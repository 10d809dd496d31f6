"""Round-trip tests for the columnar run arena (encode/decode, JSON).

The arena's contract is *losslessness*: ``decode_runs(encode_runs(rs))``
gives back value-equal runs (same hashes, timelines, durations, metas),
through both representations the arena travels in -- in-memory columns
and the JSON form of v4 cache entries, serve payloads and journal
segments.  The hypothesis property drives randomized batches through
both; the explicit tests pin the edge cases (crashes, empty batches,
events past the duration, mixed process tuples), column immutability,
the JSON bytes themselves, and the decoder's rejection of columns no
encoder writes.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import RunArena, decode_runs, encode_runs, extend_arena
from repro.columnar.arena import COLUMN_FIELDS
from repro.columnar.jsonio import arena_from_jsonable, arena_to_jsonable
from repro.model.context import make_process_ids
from repro.model.events import CrashEvent, DoEvent
from repro.model.run import Run
from repro.model.synthetic import synthetic_run


def make_batch(
    n: int,
    n_runs: int,
    seed: int,
    *,
    duration: int = 6,
    crash_prob: float = 0.4,
) -> tuple[Run, ...]:
    rng = random.Random(seed)
    procs = make_process_ids(n)
    return tuple(
        synthetic_run(procs, rng, duration=duration, crash_prob=crash_prob)
        for _ in range(n_runs)
    )


def assert_lossless(original: tuple[Run, ...], rebuilt: tuple[Run, ...]) -> None:
    assert rebuilt == original
    for a, b in zip(original, rebuilt):
        assert hash(a) == hash(b)
        assert a.duration == b.duration
        assert a.meta == b.meta
        for p in a.processes:
            assert tuple(a.timeline(p)) == tuple(b.timeline(p))


# -- hypothesis property: encode/decode through every representation ------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    n_runs=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    duration=st.integers(min_value=1, max_value=8),
    crash_prob=st.sampled_from([0.0, 0.3, 0.8]),
)
def test_roundtrip_property(n, n_runs, seed, duration, crash_prob):
    procs = make_process_ids(n)
    runs = make_batch(n, n_runs, seed, duration=duration, crash_prob=crash_prob)
    arena = encode_runs(runs, processes=procs)
    assert arena.n_runs == len(runs)
    assert_lossless(runs, decode_runs(arena))
    # ... and through the JSON form used by v4 cache entries.
    wire = json.loads(json.dumps(arena_to_jsonable(arena)))
    assert_lossless(runs, decode_runs(arena_from_jsonable(wire)))


# -- explicit edge cases ---------------------------------------------------


def test_crashed_runs_preserve_crash_structure():
    runs = make_batch(3, 8, seed=5, crash_prob=0.9)
    rebuilt = decode_runs(encode_runs(runs))
    assert any(r.faulty() for r in runs), "fixture should contain crashes"
    for a, b in zip(runs, rebuilt):
        assert a.faulty() == b.faulty()
        for p in a.processes:
            for t in range(a.duration + 1):
                assert a.crashed_by(p, t) == b.crashed_by(p, t)


def test_event_past_duration_roundtrips():
    """The kernel clamps to the duration; the arena must not -- events
    past the horizon are part of the run's value and survive encoding."""
    procs = make_process_ids(2)
    run = Run(
        procs,
        {
            "p1": [(1, DoEvent("p1", ("p1", "a"))), (9, DoEvent("p1", ("p1", "late")))],
            "p2": [(10, CrashEvent("p2"))],
        },
        duration=4,
    )
    (rebuilt,) = decode_runs(encode_runs([run]))
    assert rebuilt == run
    assert tuple(rebuilt.timeline("p1")) == tuple(run.timeline("p1"))
    assert tuple(rebuilt.timeline("p2")) == tuple(run.timeline("p2"))


def test_empty_batch_needs_explicit_processes():
    procs = make_process_ids(3)
    arena = encode_runs((), processes=procs)
    assert arena.n_runs == 0 and arena.processes == procs
    assert decode_runs(arena) == ()
    with pytest.raises(ValueError, match="empty batch"):
        encode_runs(())


def test_mixed_process_tuples_rejected():
    a = make_batch(2, 1, seed=0)[0]
    b = make_batch(3, 1, seed=0)[0]
    with pytest.raises(ValueError, match="share a process set"):
        encode_runs([a, b])


def test_missing_run_timelines_default_empty():
    """A run constructed without a timeline for some process encodes as
    an empty CSR row and decodes back to the same empty timeline."""
    procs = make_process_ids(3)
    run = Run(procs, {"p1": [(1, DoEvent("p1", ("p1", "x")))]}, duration=3)
    (rebuilt,) = decode_runs(encode_runs([run]))
    assert rebuilt == run
    assert tuple(rebuilt.timeline("p2")) == ()
    assert tuple(rebuilt.timeline("p3")) == ()


def test_metas_carried_by_value():
    runs = tuple(
        Run(
            make_process_ids(2),
            {"p1": [(1, DoEvent("p1", ("p1", "a")))]},
            duration=2,
            meta={"seed": i, "note": f"r{i}"},
        )
        for i in range(3)
    )
    arena = encode_runs(runs)
    rebuilt = decode_runs(arena)
    for a, b in zip(runs, rebuilt):
        assert b.meta == a.meta
        assert b.meta is not a.meta  # decoded metas are private copies


def test_buffers_are_frozen():
    arena = encode_runs(make_batch(3, 4, seed=2))
    for name in COLUMN_FIELDS:
        column = getattr(arena, name)
        with pytest.raises(TypeError):
            column[0] = 99


def test_jsonable_rejects_unknown_format():
    arena = encode_runs(make_batch(2, 2, seed=1))
    data = arena_to_jsonable(arena)
    data["format"] = "repro-arena-v999"
    with pytest.raises(ValueError, match="unsupported arena format"):
        arena_from_jsonable(data)


def test_alphabet_interns_each_event_once():
    runs = make_batch(3, 12, seed=4)
    arena = encode_runs(runs)
    assert len(set(arena.events)) == len(arena.events)
    seen = {e for r in runs for p in r.processes for _, e in r.timeline(p)}
    assert set(arena.events) == seen


def test_arena_repr_and_nbytes():
    arena = encode_runs(make_batch(2, 3, seed=0))
    assert isinstance(arena, RunArena)
    assert arena.nbytes > 0


# -- the JSON bytes --------------------------------------------------------

#: sha256 of the sorted-key JSON form of :func:`pinned_batch`'s arena, and
#: the arena's ``nbytes``.  Cache entries, journal segments and wire
#: payloads already written must stay readable, so neither may move.
PINNED_ARENA_SHA256 = "479d404013a9fd272d5061305f9948af175db37868f8e9920fd753e1db505f96"
PINNED_ARENA_NBYTES = 9144


def pinned_batch() -> tuple[Run, ...]:
    rng = random.Random(7)
    procs = make_process_ids(4)
    return tuple(
        synthetic_run(procs, rng, duration=6, crash_prob=0.4) for _ in range(40)
    )


def test_arena_json_bytes_are_pinned():
    runs = pinned_batch()
    for arena in (encode_runs(runs), extend_arena(encode_runs(runs[:15]), runs[15:])):
        text = json.dumps(arena_to_jsonable(arena), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ARENA_SHA256
        assert arena.nbytes == PINNED_ARENA_NBYTES


# -- columns no encoder writes ---------------------------------------------

#: Column edits no encoder makes, by name: each maps an arena to the
#: columns it replaces.
PROBES = {
    # -1 would index the alphabet from its end.
    "event-id-minus-one": lambda a: {"tl_events": (-1, *a.tl_events[1:])},
    "event-id-past-alphabet": lambda a: {"tl_events": (len(a.events), *a.tl_events[1:])},
    # The last timeline would silently lose two events.
    "last-offset-short": lambda a: {"tl_offsets": (*a.tl_offsets[:-1], a.tl_offsets[-1] - 2)},
    "offsets-not-from-zero": lambda a: {"tl_offsets": (1, *a.tl_offsets[1:])},
    "offsets-decrease": lambda a: {"tl_offsets": (0, a.tl_offsets[-1], *a.tl_offsets[2:])},
    "offset-missing": lambda a: {"tl_offsets": a.tl_offsets[:-1]},
    "duration-missing": lambda a: {"run_durations": a.run_durations[:-1]},
    "time-extra": lambda a: {"tl_times": (*a.tl_times, 0)},
    # The first two times of the first row with two or more entries
    # swap, so they fall (R2); the kernel's bisects assume they rise.
    "times-fall": lambda a: {"tl_times": _swap_first_pair(a)},
    # The first entry names an event of another process than its row's.
    "foreign-event": lambda a: {"tl_events": (_foreign_id(a), *a.tl_events[1:])},
}


def _swap_first_pair(arena: RunArena) -> tuple[int, ...]:
    offsets = arena.tl_offsets
    k = next(lo for lo, hi in zip(offsets, offsets[1:]) if hi - lo >= 2)
    times = list(arena.tl_times)
    times[k], times[k + 1] = times[k + 1], times[k]
    return tuple(times)


def _foreign_id(arena: RunArena) -> int:
    """The id of the first non-crash event that the owner of entry 0
    does not own (a crash would also break R4 in the decoded run)."""
    owner = arena.events[arena.tl_events[0]].process
    return next(
        i
        for i, event in enumerate(arena.events)
        if event.process != owner and not isinstance(event, CrashEvent)
    )


def tampered_payload(runs: tuple[Run, ...], probe: str) -> dict:
    """The JSON form of ``runs``' arena with the columns ``probe`` edits."""
    arena = encode_runs(runs)
    edit = PROBES[probe](arena)
    columns = {name: edit.get(name, getattr(arena, name)) for name in COLUMN_FIELDS}
    return arena_to_jsonable(
        RunArena(
            processes=arena.processes,
            events=arena.events,
            n_runs=arena.n_runs,
            metas=arena.metas,
            **columns,
        )
    )


@pytest.mark.parametrize("probe", PROBES)
def test_decoder_rejects_columns_no_encoder_writes(probe):
    with pytest.raises(ValueError, match="arena"):
        arena_from_jsonable(tampered_payload(make_batch(3, 6, seed=3), probe))
