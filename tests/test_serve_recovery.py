"""Crash-recovery tests for the serve journal (repro.serve.journal).

The write-ahead contract under test: every mutating op (``create`` /
``load`` / ``ingest``) is journaled before it is applied, so a server
rebooted over the same journal directory rebuilds every session through
the same decode/dedup/extend path that built it live -- and answers
*bit-identically*, on both kernel paths.  Damage degrades, never
crashes: a truncated or corrupt tail segment ends the verified prefix
(the rest is quarantined, the session surfaces ``recovered:
"partial"``), and a session whose base record is unusable is skipped
and reported.
"""

from __future__ import annotations

import random

import pytest

from repro.knowledge import Crashed
from repro.model.synthetic import synthetic_run, synthetic_system
from repro.runtime.cache import RunCache
from repro.serve.client import (
    ServeClient,
    ck_query,
    e_query,
    knows_query,
    runs_to_arena_payload,
)
from repro.serve.journal import ServeJournal, session_dirname
from repro.serve.protocol import WireError
from repro.serve.server import EpistemicServer, start_server_thread
from repro.serve.state import ServeState
from tests.conftest import BACKENDS, kernel_path
from tests.test_columnar_roundtrip import tampered_payload


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernel_path(request.param):
        yield request.param


def _base():
    return synthetic_system(3, 8, seed=21, duration=5)


def _batches(base, count=3, size=4):
    """Ingest batches with a deliberate duplicate in each, so recovery
    must reproduce the dedup decisions too."""
    rng = random.Random(97)
    out = []
    for i in range(count):
        fresh = [
            synthetic_run(base.processes, rng, duration=5, alphabet=3)
            for _ in range(size - 1)
        ]
        out.append(runs_to_arena_payload([base.runs[i], *fresh]))
    return out


def _journaled_state(root, base, batches):
    state = ServeState(journal=ServeJournal(root))
    state.create("s", runs_to_arena_payload(base.runs))
    for payload in batches:
        state.ingest("s", payload)
    return state


def _sweep(session):
    """A deterministic query sweep whose full result dicts are compared."""
    epoch = session.epoch
    procs = list(epoch.system.processes)
    crashed = Crashed(procs[1])
    answers = []
    for i, run in enumerate(epoch.system.runs):
        for m in (0, run.duration // 2, run.duration):
            answers.append(
                session.run_query(knows_query(procs[0], crashed, i, m))
            )
            answers.append(
                session.run_query(
                    {"kind": "known_crashed", "process": procs[2], "run": i, "time": m}
                )
            )
    answers.append(session.run_query(ck_query(procs, crashed, 0, 2)))
    answers.append(session.run_query(e_query(procs, 2, crashed, 0, 3)))
    answers.append(
        session.run_query(
            {
                "kind": "ck_points",
                "group": procs,
                "formula": {"op": "crashed", "process": procs[1]},
            }
        )
    )
    return answers


def _segments(root, name="s"):
    return sorted((root / session_dirname(name)).glob("seg-*.json"))


def _quarantined(root, name="s"):
    return sorted((root / session_dirname(name)).glob("*.quarantined"))


def test_replay_is_bit_identical_to_live(tmp_path, backend) -> None:
    base = _base()
    live = _journaled_state(tmp_path, base, _batches(base))
    live_session = live.sessions["s"]
    want = _sweep(live_session)

    recovered = ServeState(journal=ServeJournal(tmp_path))
    report = recovered.recover()
    assert [(name, status) for name, status in report.recovered] == [("s", "full")]
    assert report.skipped == []
    session = recovered.sessions["s"]
    assert session.recovered == "full"
    assert session.generation == live_session.generation == 3
    assert session.system.runs == live_session.system.runs
    assert _sweep(session) == want
    # Recovery is visible (and only as a status) in the descriptors.
    assert session.describe()["recovered"] == "full"
    assert session.envelope()["recovered"] == "full"
    assert "recovered" not in live_session.describe()


def test_recovery_is_idempotent_across_reboots(tmp_path) -> None:
    base = _base()
    _journaled_state(tmp_path, base, _batches(base))
    first = ServeState(journal=ServeJournal(tmp_path))
    first.recover()
    # A recovered server keeps journaling: reboot it again (recovery
    # appends nothing, so the journal is unchanged and replays the same).
    second = ServeState(journal=ServeJournal(tmp_path))
    second.recover()
    assert (
        second.sessions["s"].system.runs == first.sessions["s"].system.runs
    )
    assert second.sessions["s"].generation == first.sessions["s"].generation


def test_journaled_but_uncommitted_ingest_recovers(tmp_path) -> None:
    """The WAL half-step: a crash after the journal append but before the
    in-memory apply must still recover the ingest (it was acknowledged
    durable), and the client's idempotent re-send must add nothing."""
    base = _base()
    batch = _batches(base, count=1)[0]
    state = ServeState(journal=ServeJournal(tmp_path))
    state.create("s", runs_to_arena_payload(base.runs))
    prepared = state.prepare_ingest("s", batch)
    state.journal_append(prepared.record)
    # -- crash here: commit_ingest never runs ------------------------------
    assert state.sessions["s"].generation == 0

    recovered = ServeState(journal=ServeJournal(tmp_path))
    recovered.recover()
    session = recovered.sessions["s"]
    assert session.recovered == "full"
    assert session.generation == 1

    resend = recovered.ingest("s", batch)
    assert resend["added"] == 0
    assert resend["generation"] == 1


@pytest.mark.parametrize(
    "probe", ["event-id-minus-one", "last-offset-short", "times-fall", "foreign-event"]
)
def test_tampered_arena_is_refused_before_it_is_journaled(tmp_path, probe) -> None:
    """Columns no encoder writes answer ``bad-arena`` on ``create`` and on
    ``ingest``, and nothing of them reaches the journal.

    The runs are crash-free, so the -1 probe hands p1 another process's
    event instead of a crash the run's own R4 check would refuse.
    """
    rng = random.Random(5)
    runs = tuple(
        synthetic_run(_base().processes, rng, duration=5, crash_prob=0.0) for _ in range(6)
    )
    created, ingested = runs[:3], runs[3:]
    state = ServeState(journal=ServeJournal(tmp_path))
    with pytest.raises(WireError) as refused:
        state.create("s", tampered_payload(created, probe))
    assert refused.value.code == "bad-arena"
    assert "s" not in state.sessions
    assert _segments(tmp_path) == []

    state.create("s", runs_to_arena_payload(created))
    journaled = [path.read_bytes() for path in _segments(tmp_path)]
    with pytest.raises(WireError) as refused:
        state.ingest("s", tampered_payload(ingested, probe))
    assert refused.value.code == "bad-arena"
    assert [path.read_bytes() for path in _segments(tmp_path)] == journaled
    assert state.sessions["s"].generation == 0


def test_truncated_tail_recovers_partial(tmp_path) -> None:
    base = _base()
    _journaled_state(tmp_path, base, _batches(base))
    segments = _segments(tmp_path)
    assert len(segments) == 4  # create + 3 ingests
    torn = segments[-1].read_bytes()
    segments[-1].write_bytes(torn[: len(torn) // 2])

    # The verifiable prefix is exactly the uninterrupted two-ingest state.
    base_again = _base()
    oracle = _journaled_state(tmp_path / "oracle", base_again, _batches(base_again)[:2])

    recovered = ServeState(journal=ServeJournal(tmp_path))
    report = recovered.recover()
    assert report.partial == ["s"]
    session = recovered.sessions["s"]
    assert session.recovered == "partial"
    assert session.generation == 2
    assert session.system.runs == oracle.sessions["s"].system.runs
    assert session.envelope()["recovered"] == "partial"
    assert _sweep(session) == _sweep(oracle.sessions["s"])
    # The torn segment is preserved for forensics, never re-read.
    assert [p.name for p in _quarantined(tmp_path)] == ["seg-00000003.json.quarantined"]


def test_corrupt_segment_quarantines_its_suffix(tmp_path) -> None:
    base = _base()
    _journaled_state(tmp_path, base, _batches(base))
    segments = _segments(tmp_path)
    body = bytearray(segments[1].read_bytes())
    body[len(body) // 2] ^= 0xFF  # checksum break inside the record
    segments[1].write_bytes(bytes(body))

    recovered = ServeState(journal=ServeJournal(tmp_path))
    report = recovered.recover()
    assert report.partial == ["s"]
    session = recovered.sessions["s"]
    # Only the create survives: everything from the corrupt segment on
    # is out, including the intact segments behind it (a gap would
    # reorder ingests, which the bit-equality contract forbids).
    assert session.generation == 0
    assert session.system.runs == base.runs
    assert len(_quarantined(tmp_path)) == 3


def test_unrecoverable_base_record_is_skipped(tmp_path) -> None:
    base = _base()
    _journaled_state(tmp_path, base, _batches(base, count=1))
    segments = _segments(tmp_path)
    segments[0].write_text("{torn", encoding="utf-8")

    recovered = ServeState(journal=ServeJournal(tmp_path))
    report = recovered.recover()
    assert recovered.sessions == {}
    assert report.recovered == []
    [(dirname, reason)] = report.skipped
    assert dirname == session_dirname("s")
    assert reason
    assert "unrecoverable" in report.summary()


def test_load_sessions_replay_through_the_cache(tmp_path) -> None:
    from repro.explore.reduction import ExploreStats

    cache = RunCache(tmp_path / "cache")
    runs = _base().runs
    cache.put_exploration("abc123", runs, ExploreStats())

    root = tmp_path / "journal"
    state = ServeState(cache, journal=ServeJournal(root))
    state.load_digest("explored", "abc123")
    state.ingest(
        "explored", _batches(_base(), count=1)[0]
    )

    recovered = ServeState(RunCache(tmp_path / "cache"), journal=ServeJournal(root))
    report = recovered.recover()
    assert [name for name, _ in report.recovered] == ["explored"]
    session = recovered.sessions["explored"]
    assert session.recovered == "full"
    assert session.generation == 1
    assert session.system.runs == state.sessions["explored"].system.runs


def test_recovered_status_surfaces_over_the_wire(tmp_path) -> None:
    base = _base()
    _journaled_state(tmp_path, base, _batches(base))
    segments = _segments(tmp_path)
    torn = segments[-1].read_bytes()
    segments[-1].write_bytes(torn[: len(torn) // 3])

    state = ServeState(journal=ServeJournal(tmp_path))
    state.recover()
    thread, host, port = start_server_thread(EpistemicServer(state))
    try:
        with ServeClient.connect(host, port) as client:
            procs = list(base.processes)
            response = client.query_response(
                "s", [knows_query(procs[0], Crashed(procs[1]), 0, 2)]
            )
            assert response["recovered"] == "partial"
            info = client.info()
            assert info["systems"]["s"]["recovered"] == "partial"
            assert info["journal"]["sessions"] >= 1
            client.shutdown()
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()
