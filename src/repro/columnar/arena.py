"""The run arena: a lossless struct-of-arrays encoding of a run batch.

A :class:`RunArena` flattens ``tuple[Run, ...]`` (all over one process
tuple) into four contiguous int64 buffers plus two small tables:

* ``events`` -- the interned event alphabet; timelines store indexes
  into it instead of event objects;
* ``run_durations[i]`` -- duration of run ``i``;
* ``tl_offsets`` -- CSR offsets of length ``n_runs * n + 1``: the
  timeline of run ``i``, process ``j`` occupies the half-open slice
  ``[tl_offsets[i*n+j], tl_offsets[i*n+j+1])`` of the flat arrays;
* ``tl_times`` / ``tl_events`` -- the flattened ``(time, event_id)``
  timeline entries, run-major then process-major then time order;
* ``metas[i]`` -- run ``i``'s meta dict, carried by reference.  The
  arena itself never interprets metas; the cache layer applies the
  JSON meta contract.

The encoding is exact: ``decode_runs(encode_runs(runs)) == runs`` with
equal hashes, timelines, durations, and metas.  Times past a run's
duration (events no cut ever sees) round-trip too -- the *kernel*
clamps, the arena does not.

Arena buffers are immutable once built: numpy buffers are flagged
read-only, and lint rule INV004 flags writes to them from any module
outside ``repro.columnar``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.columnar.backend import (
    IntBuffer,
    buffer_nbytes,
    buffer_tolist,
    freeze_buffer,
    make_buffer,
    numpy_or_none,
)
from repro.model.events import Event, ProcessId
from repro.model.run import Run

#: The names of the int64 buffers, in serialization order.
BUFFER_FIELDS = ("run_durations", "tl_offsets", "tl_times", "tl_events")


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
        "_column_lists",
    )

    def __init__(
        self,
        *,
        processes: tuple[ProcessId, ...],
        events: tuple[Event, ...],
        n_runs: int,
        run_durations: IntBuffer,
        tl_offsets: IntBuffer,
        tl_times: IntBuffer,
        tl_events: IntBuffer,
        metas: tuple[dict[str, Any], ...],
        column_lists: (
            tuple[list[int], list[int], list[int], list[int]] | None
        ) = None,
    ) -> None:
        self.processes = processes
        self.events = events
        self.n_runs = n_runs
        self.run_durations = freeze_buffer(run_durations)
        self.tl_offsets = freeze_buffer(tl_offsets)
        self.tl_times = freeze_buffer(tl_times)
        self.tl_events = freeze_buffer(tl_events)
        self.metas = metas
        # The plain-list originals of the buffers (BUFFER_FIELDS order),
        # kept when the arena was built in-process: the kernel's trie
        # walk iterates Python ints either way, and round-tripping
        # through the frozen buffers would only add conversion cost.
        self._column_lists = column_lists

    def columns_as_lists(
        self,
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """The buffers as plain lists, in ``BUFFER_FIELDS`` order."""
        cols = self._column_lists
        if cols is None:
            cols = tuple(  # type: ignore[assignment]
                buffer_tolist(getattr(self, name)) for name in BUFFER_FIELDS
            )
            self._column_lists = cols
        return cols  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        """Total byte size of the int64 buffers (tables excluded)."""
        return sum(buffer_nbytes(getattr(self, f)) for f in BUFFER_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunArena({self.n_runs} runs, n={len(self.processes)}, "
            f"|alphabet|={len(self.events)}, {self.nbytes} buffer bytes)"
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

    np = numpy_or_none()
    return RunArena(
        processes=procs,
        events=tuple(event_ids),
        n_runs=len(batch),
        run_durations=make_buffer(durations, np),
        tl_offsets=make_buffer(offsets, np),
        tl_times=make_buffer(times, np),
        tl_events=make_buffer(eids, np),
        metas=tuple(run.meta for run in batch),
        column_lists=(durations, offsets, times, eids),
    )


def extend_arena(arena: RunArena, runs: Iterable[Run]) -> RunArena:
    """Append ``runs`` to an arena, reusing its interned alphabet.

    The online-ingestion primitive: returns a new arena whose first
    ``arena.n_runs`` runs are encoded exactly as in the input and whose
    alphabet extends the input's in first-occurrence order -- column for
    column what ``encode_runs`` over the concatenated batch would
    produce, without re-hashing a single event of the existing runs.
    The input arena (and its cached column lists) is never mutated; an
    empty batch returns the input arena itself.
    """
    batch = tuple(runs)
    if not batch:
        return arena
    procs = arena.processes
    for run in batch:
        if run.processes != procs:
            raise ValueError("all runs in an arena must share a process set")

    durs0, offs0, times0, eids0 = arena.columns_as_lists()
    durations = list(durs0)
    offsets = list(offs0)
    times = list(times0)
    eids = list(eids0)
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

    np = numpy_or_none()
    return RunArena(
        processes=procs,
        events=tuple(event_ids),
        n_runs=arena.n_runs + len(batch),
        run_durations=make_buffer(durations, np),
        tl_offsets=make_buffer(offsets, np),
        tl_times=make_buffer(times, np),
        tl_events=make_buffer(eids, np),
        metas=arena.metas + tuple(run.meta for run in batch),
        column_lists=(durations, offsets, times, eids),
    )


def decode_runs(arena: RunArena) -> tuple[Run, ...]:
    """Rebuild the original run batch from an arena."""
    procs = arena.processes
    n = len(procs)
    events = arena.events
    durations, offsets, times, eids = arena.columns_as_lists()
    out: list[Run] = []
    for i in range(arena.n_runs):
        timelines: dict[ProcessId, list[tuple[int, Event]]] = {}
        row = i * n
        for j, p in enumerate(procs):
            start, stop = offsets[row + j], offsets[row + j + 1]
            timelines[p] = [(times[k], events[eids[k]]) for k in range(start, stop)]
        out.append(Run(procs, timelines, durations[i], meta=dict(arena.metas[i])))
    return tuple(out)
