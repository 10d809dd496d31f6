"""The run arena: a lossless struct-of-arrays encoding of a run batch.

A :class:`RunArena` flattens ``tuple[Run, ...]`` (all over one process
tuple) into four int columns plus two small tables:

* ``events`` -- the interned event alphabet; timelines store indexes
  into it instead of event objects;
* ``run_durations[i]`` -- duration of run ``i``;
* ``tl_offsets`` -- CSR offsets of length ``n_runs * n + 1``: the
  timeline of run ``i``, process ``j`` occupies the half-open slice
  ``[tl_offsets[i*n+j], tl_offsets[i*n+j+1])`` of the flat columns;
* ``tl_times`` / ``tl_events`` -- the flattened ``(time, event_id)``
  timeline entries, run-major then process-major then time order;
* ``metas[i]`` -- run ``i``'s meta dict, carried by reference.  The
  arena itself never interprets metas; the cache layer applies the
  JSON meta contract.

The encoding is exact: ``decode_runs(encode_runs(runs)) == runs`` with
equal hashes, timelines, durations, and metas.  Times past a run's
duration (events no cut ever sees) round-trip too -- the *kernel*
clamps, the arena does not.

Arena columns are tuples, so they are immutable once built, and lint
rule INV004 flags rebinding them from any module outside
``repro.columnar``.  Only :mod:`repro.columnar.jsonio` turns them into
int64 bytes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.model.events import Event, ProcessId
from repro.model.run import Run

#: The names of the int columns, in serialization order.
COLUMN_FIELDS = ("run_durations", "tl_offsets", "tl_times", "tl_events")


class RunArena:
    """Struct-of-arrays form of a run batch over one process tuple."""

    __slots__ = (
        "processes",
        "events",
        "n_runs",
        "run_durations",
        "tl_offsets",
        "tl_times",
        "tl_events",
        "metas",
    )

    def __init__(
        self,
        *,
        processes: tuple[ProcessId, ...],
        events: tuple[Event, ...],
        n_runs: int,
        run_durations: Iterable[int],
        tl_offsets: Iterable[int],
        tl_times: Iterable[int],
        tl_events: Iterable[int],
        metas: tuple[dict[str, Any], ...],
    ) -> None:
        self.processes = processes
        self.events = events
        self.n_runs = n_runs
        self.run_durations: tuple[int, ...] = tuple(run_durations)
        self.tl_offsets: tuple[int, ...] = tuple(tl_offsets)
        self.tl_times: tuple[int, ...] = tuple(tl_times)
        self.tl_events: tuple[int, ...] = tuple(tl_events)
        self.metas = metas

    @property
    def nbytes(self) -> int:
        """Byte size of the columns as int64 (tables excluded)."""
        return 8 * sum(len(getattr(self, f)) for f in COLUMN_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunArena({self.n_runs} runs, n={len(self.processes)}, "
            f"|alphabet|={len(self.events)}, {self.nbytes} column bytes)"
        )


def encode_runs(
    runs: Iterable[Run], *, processes: Sequence[ProcessId] | None = None
) -> RunArena:
    """Flatten ``runs`` into a :class:`RunArena` (lossless).

    All runs must share one process tuple; for an empty batch the tuple
    must be supplied explicitly.
    """
    batch = tuple(runs)
    if processes is None:
        if not batch:
            raise ValueError("cannot infer the process tuple of an empty batch")
        procs = batch[0].processes
    else:
        procs = tuple(processes)
    for run in batch:
        if run.processes != procs:
            raise ValueError("all runs in an arena must share a process set")

    # Each run caches its own flattened columns (Run.timeline_columns,
    # warm after the first encode, like Run._prefixes).  Batching then
    # only re-hashes each run's *alphabet* -- a handful of distinct
    # events -- and remaps the occurrence column by C-level list
    # indexing; ids land in first-occurrence order, so the
    # insertion-ordered keys of ``event_ids`` ARE the shared alphabet.
    event_ids: dict[Event, int] = {}
    durations: list[int] = []
    lengths: list[int] = []
    times: list[int] = []
    eids: list[int] = []
    intern = event_ids.setdefault
    times_extend = times.extend
    eids_extend = eids.extend
    lengths_extend = lengths.extend
    for run in batch:
        durations.append(run.duration)
        alphabet_r, times_r, eids_r, lengths_r = run.timeline_columns()
        remap = [intern(e, len(event_ids)) for e in alphabet_r]
        times_extend(times_r)
        eids_extend([remap[x] for x in eids_r])
        lengths_extend(lengths_r)
    offsets: list[int] = [0, *accumulate(lengths)]

    return RunArena(
        processes=procs,
        events=tuple(event_ids),
        n_runs=len(batch),
        run_durations=durations,
        tl_offsets=offsets,
        tl_times=times,
        tl_events=eids,
        metas=tuple(run.meta for run in batch),
    )


def extend_arena(arena: RunArena, runs: Iterable[Run]) -> RunArena:
    """Append ``runs`` to an arena, reusing its interned alphabet.

    The online-ingestion primitive: returns a new arena whose first
    ``arena.n_runs`` runs are encoded exactly as in the input and whose
    alphabet extends the input's in first-occurrence order -- column for
    column what ``encode_runs`` over the concatenated batch would
    produce, without re-hashing a single event of the existing runs.
    The input arena is never mutated (its columns are tuples); an empty
    batch returns the input arena itself.
    """
    batch = tuple(runs)
    if not batch:
        return arena
    procs = arena.processes
    for run in batch:
        if run.processes != procs:
            raise ValueError("all runs in an arena must share a process set")

    durations = list(arena.run_durations)
    offsets = list(arena.tl_offsets)
    times = list(arena.tl_times)
    eids = list(arena.tl_events)
    event_ids: dict[Event, int] = {e: i for i, e in enumerate(arena.events)}
    intern = event_ids.setdefault
    lengths: list[int] = []
    for run in batch:
        durations.append(run.duration)
        alphabet_r, times_r, eids_r, lengths_r = run.timeline_columns()
        remap = [intern(e, len(event_ids)) for e in alphabet_r]
        times.extend(times_r)
        eids.extend([remap[x] for x in eids_r])
        lengths.extend(lengths_r)
    acc = offsets[-1]
    for length in lengths:
        acc += length
        offsets.append(acc)

    return RunArena(
        processes=procs,
        events=tuple(event_ids),
        n_runs=arena.n_runs + len(batch),
        run_durations=durations,
        tl_offsets=offsets,
        tl_times=times,
        tl_events=eids,
        metas=arena.metas + tuple(run.meta for run in batch),
    )


def decode_runs(arena: RunArena) -> tuple[Run, ...]:
    """Rebuild the original run batch from an arena."""
    procs = arena.processes
    n = len(procs)
    events = arena.events
    durations, offsets = arena.run_durations, arena.tl_offsets
    times, eids = arena.tl_times, arena.tl_events
    out: list[Run] = []
    for i in range(arena.n_runs):
        timelines: dict[ProcessId, list[tuple[int, Event]]] = {}
        row = i * n
        for j, p in enumerate(procs):
            start, stop = offsets[row + j], offsets[row + j + 1]
            timelines[p] = [(times[k], events[eids[k]]) for k in range(start, stop)]
        out.append(Run(procs, timelines, durations[i], meta=dict(arena.metas[i])))
    return tuple(out)
