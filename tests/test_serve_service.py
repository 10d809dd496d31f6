"""End-to-end tests of the online epistemic query service (repro.serve).

A real :class:`EpistemicServer` runs on a background thread (own event
loop, ephemeral TCP port); the synchronous :class:`ServeClient` drives
it over actual sockets.  Covered: the full op surface (ping/info/
create/load/query/ingest/shutdown), per-query error isolation, the
``complete: false`` surfacing for sampled systems, online ingestion
pinned against a from-scratch rebuild, and graceful degradation on
corrupt cache entries.
"""

from __future__ import annotations

import random
import socket
import time
import warnings

import pytest

from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker, Not
from repro.model.run import Point
from repro.model.synthetic import synthetic_run, synthetic_system
from repro.model.system import System
from repro.runtime.cache import RunCache
from repro.serve.client import (
    ServeClient,
    ServeClientError,
    ck_query,
    e_query,
    holds_query,
    knows_query,
)
from repro.serve.protocol import WireError, decode_message, encode_message
from repro.serve.server import EpistemicServer, start_server_thread
from repro.serve.state import ServeState, SystemSession


@pytest.fixture
def service(tmp_path):
    """A live server over a disk-backed cache; yields (client, cache_dir)."""
    cache_dir = tmp_path / "cache"
    state = ServeState(RunCache(cache_dir))
    thread, host, port = start_server_thread(EpistemicServer(state))
    client = ServeClient.connect(host, port)
    try:
        yield client, cache_dir
    finally:
        try:
            client.shutdown()
        except (ConnectionError, OSError):
            pass  # a test may have shut the server down already
        client.close()
        thread.join(timeout=30)
        assert not thread.is_alive()


def _sampled_runs():
    return synthetic_system(3, 8, seed=21, duration=5)


def test_server_thread_fails_fast_when_its_port_is_taken() -> None:
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        server = EpistemicServer(ServeState(), port=taken.getsockname()[1])
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to start") as failed:
            start_server_thread(server)
        assert time.perf_counter() - began < 10
    assert isinstance(failed.value.__cause__, OSError)


def test_ping_info_create_query_cycle(service) -> None:
    client, _ = service
    assert client.ping()
    base = _sampled_runs()
    created = client.create("s", base.runs)
    assert created["runs"] == len(base.runs)
    assert created["complete"] is False

    procs = list(base.processes)
    response = client.query_response(
        "s",
        [
            knows_query(procs[0], Crashed(procs[1]), 0, 3),
            e_query(procs, 2, Crashed(procs[1]), 0, 3),
            ck_query(procs, Crashed(procs[1]), 0, 3),
            holds_query(Not(Crashed(procs[1])), 0, 0),
            {"kind": "known_crashed", "process": procs[0], "run": 0, "time": 4},
            {"kind": "valid", "formula": {"op": "const", "value": True}},
        ],
    )
    assert all(r["ok"] for r in response["results"])
    # Satellite: the incomplete-system warning surfaces structurally.
    assert response["complete"] is False
    assert response["missing_runs"] == 0
    assert response["generation"] == 0

    info = client.info()
    assert info["systems"]["s"]["queries_answered"] == 6


def test_query_answers_match_local_checker(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    procs = list(base.processes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checker = ModelChecker(System(base.runs))
        group = GroupChecker(checker)
        for i, run in enumerate(base.runs):
            for m in range(run.duration + 1):
                pt = Point(run, m)
                want = checker.holds(Knows(procs[0], Crashed(procs[1])), pt)
                got = client.query(
                    "s", [knows_query(procs[0], Crashed(procs[1]), i, m)]
                )[0]["result"]
                assert want == got
        want_ck = sorted(
            group.common_knowledge_points(procs, Not(Crashed(procs[1])))
        )
    got_ck = client.query(
        "s",
        [
            {
                "kind": "ck_points",
                "group": procs,
                "formula": {"op": "not", "child": {"op": "crashed", "process": procs[1]}},
            }
        ],
    )[0]["result"]
    assert [tuple(p) for p in got_ck] == want_ck


def test_ingest_differential_against_rebuild(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    rng = random.Random(31)
    extra = [synthetic_run(base.processes, rng, duration=5, alphabet=3) for _ in range(6)]
    result = client.ingest("s", extra)
    assert result["generation"] == 1
    assert result["added"] + result["duplicates"] == len(extra)
    assert result["runs"] == len(base.runs) + result["added"]

    seen = set(base.runs)
    fresh = []
    for run in extra:
        if run not in seen:
            seen.add(run)
            fresh.append(run)
    procs = list(base.processes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rebuilt = System(base.runs + tuple(fresh))
        checker = ModelChecker(rebuilt)
        group = GroupChecker(checker)
        for i, run in enumerate(rebuilt.runs):
            for m in range(run.duration + 1):
                pt = Point(run, m)
                for p in procs:
                    want = checker.holds(Knows(p, Crashed(procs[1])), pt)
                    got = client.query(
                        "s", [knows_query(p, Crashed(procs[1]), i, m)]
                    )[0]["result"]
                    assert want == got, (i, m, p)
        want_ck = sorted(group.common_knowledge_points(procs, Crashed(procs[1])))
    got_ck = client.query(
        "s",
        [{"kind": "ck_points", "group": procs, "formula": {"op": "crashed", "process": procs[1]}}],
    )[0]["result"]
    assert [tuple(p) for p in got_ck] == want_ck


def test_ingest_duplicates_are_dropped(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    result = client.ingest("s", base.runs[:3])
    assert result["added"] == 0
    assert result["duplicates"] == 3
    assert result["generation"] == 0  # nothing changed, no new system


def test_per_query_errors_do_not_fail_the_batch(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    results = client.query(
        "s",
        [
            {"kind": "knows", "process": "p1", "formula": {"op": "crashed", "process": "p2"}, "run": 0, "time": 0},
            {"kind": "nope"},
            {"kind": "knows", "process": "zz", "formula": {"op": "crashed", "process": "p2"}, "run": 0, "time": 0},
            {"kind": "knows", "process": "p1", "formula": {"op": "wat"}, "run": 0, "time": 0},
            {"kind": "knows", "process": "p1", "formula": {"op": "crashed", "process": "p2"}, "run": 99, "time": 0},
            "not even an object",
        ],
    )
    assert results[0]["ok"] is True
    assert [r["ok"] for r in results[1:]] == [False] * 5
    assert results[1]["error"] == "bad-request"
    assert results[2]["error"] == "bad-request"
    assert results[3]["error"] == "bad-formula"
    assert results[4]["error"] == "bad-point"
    assert results[5]["error"] == "bad-request"


def test_complete_and_missing_runs_surface(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("partial", base.runs, complete=False, missing_runs=4)
    response = client.query_response(
        "partial", [knows_query("p1", Crashed("p2"), 0, 2)]
    )
    assert response["complete"] is False
    assert response["missing_runs"] == 4
    client.create("full", base.runs, complete=True)
    response = client.query_response(
        "full", [knows_query("p1", Crashed("p2"), 0, 2)]
    )
    assert response["complete"] is True


@pytest.mark.parametrize(
    "field, value",
    [
        ("complete", "false"),
        ("missing_runs", -5),
        ("missing_runs", "x"),
        ("missing_runs", float("1e309")),  # a JSON number that decodes to inf
        ("missing_runs", True),
    ],
    ids=["complete-string", "missing-negative", "missing-string", "missing-inf", "missing-bool"],
)
def test_create_rejects_malformed_flags(service, field, value) -> None:
    client, _ = service
    base = _sampled_runs()
    flags = {"complete": False, "missing_runs": 0, field: value}
    with pytest.raises(ServeClientError) as excinfo:
        client.create("s", base.runs, **flags)
    assert excinfo.value.code == "bad-request"
    assert field in str(excinfo.value)
    # Rejected before the name was claimed: the same name still creates.
    assert client.create("s", base.runs)["complete"] is False


@pytest.mark.filterwarnings("error::repro.model.system.IncompleteSystemWarning")
def test_sampled_system_warning_never_escapes_the_server(service) -> None:
    """Incompleteness reaches clients in the envelope, never as a warning
    in the server: with the warning an error, a sampled system still
    answers ``ok``, before and after an ingest swaps its epoch."""
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    procs = list(base.processes)
    queries = [
        knows_query(procs[0], Crashed(procs[1]), 0, 3),
        ck_query(procs, Crashed(procs[1]), 0, 3),
    ]
    rng = random.Random(5)
    for generation in (0, 1):
        response = client.query_response("s", queries)
        assert response["generation"] == generation
        assert response["complete"] is False
        assert all(r["ok"] for r in response["results"]), response["results"]
        extra = [synthetic_run(base.processes, rng, duration=5, alphabet=3) for _ in range(4)]
        assert client.ingest("s", extra)["added"] > 0


def test_load_from_cache_and_corrupt_degradation(service, tmp_path) -> None:
    client, cache_dir = service
    # Seed the server's cache directory with a real v4 exploration entry.
    writer = RunCache(cache_dir)
    runs = _sampled_runs().runs
    from repro.explore.reduction import ExploreStats

    writer.put_exploration("abc123", runs, ExploreStats())
    (cache_dir / "explore-bad999.json").write_text("{torn", encoding="utf-8")

    loaded = client.load("explored", "abc123")
    assert loaded["runs"] == len(runs)
    assert loaded["complete"] is True  # cache stores only exhaustive sets
    assert "abc123" in client.info()["cache_digests"]

    with pytest.raises(ServeClientError) as excinfo:
        client.load("bad", "bad999")
    assert excinfo.value.code == "corrupt-entry"

    with pytest.raises(ServeClientError) as excinfo:
        client.load("ghost", "nope404")
    assert excinfo.value.code == "not-found"


def test_unknown_system_and_duplicate_create(service) -> None:
    client, _ = service
    with pytest.raises(ServeClientError) as excinfo:
        client.query("ghost", [{"kind": "holds"}])
    assert excinfo.value.code == "unknown-system"
    base = _sampled_runs()
    client.create("dup", base.runs)
    with pytest.raises(ServeClientError) as excinfo:
        client.create("dup", base.runs)
    assert excinfo.value.code == "duplicate-system"


def test_malformed_lines_and_id_echo(service) -> None:
    client, _ = service
    raw = client.request_raw({"op": "ping", "id": "tag-7"})
    assert raw["id"] == "tag-7"
    client._sock.sendall(b"this is not json\n")
    bad = decode_message(client._reader.readline())
    assert bad["ok"] is False and bad["error"] == "bad-json"
    # The connection survives a bad line.
    assert client.ping()


def test_shutdown_is_clean(service) -> None:
    client, _ = service
    base = _sampled_runs()
    client.create("s", base.runs)
    client.shutdown()  # fixture teardown asserts the thread exits


# -- protocol / state unit coverage (no sockets) ----------------------------


def test_protocol_codec_round_trip() -> None:
    payload = {"op": "query", "queries": [{"kind": "holds"}], "id": 3}
    assert decode_message(encode_message(payload).rstrip(b"\n")) == payload
    with pytest.raises(WireError) as excinfo:
        decode_message(b"\x80 junk")
    assert excinfo.value.code == "bad-json"
    with pytest.raises(WireError) as excinfo:
        decode_message(b"[1, 2]")
    assert excinfo.value.code == "bad-request"


def test_session_formula_interning_keeps_caches_hot() -> None:
    base = _sampled_runs()
    session = SystemSession("s", System(base.runs))
    wire = {"kind": "knows", "process": "p1", "formula": {"op": "crashed", "process": "p2"}, "run": 0, "time": 2}
    session.run_query(wire)
    misses = session.system.stats.formula_set_misses
    session.run_query(dict(wire))  # identical content, fresh dict
    assert session.system.stats.formula_set_misses == misses
    assert session.system.stats.formula_set_hits > 0


def test_state_claim_release_cycle() -> None:
    state = ServeState()
    name = state.claim("pending")
    with pytest.raises(WireError) as excinfo:
        state.claim("pending")
    assert excinfo.value.code == "duplicate-system"
    state.release(name)
    assert state.claim("pending") == "pending"
