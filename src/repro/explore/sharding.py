"""Frontier sharding: drain slices of the search frontier in worker processes.

The explorer's frontier entries are ``(crash_plan, choice-prefix)``
coordinates, and every leaf under an entry is a pure function of
``(spec, entry)`` -- no shared mutable state, no rng.  That makes the
sharding protocol trivial and its determinism easy to argue:

1. the driver widens the frontier breadth-first until it holds at least
   ``workers * _WIDEN_FACTOR`` entries (or drains, in which case no pool
   is spawned);
2. the remaining entries are striped round-robin into
   ``min(len(frontier), workers * _CHUNK_FACTOR)`` chunks -- striping is
   cheap static load balancing (adjacent frontier entries tend to root
   subtrees of similar size, so striping spreads the expensive ones);
   more chunks than workers gives the pool work-stealing slack: a worker
   that finishes a light chunk steals the next queued one;
3. each chunk is drained to its leaf list by
   :func:`repro.explore.scheduler.drain_frontier` in a
   ``ProcessPoolExecutor`` worker, with per-shard ``ExploreStats``; the
   leaf *runs* come back through a shared-memory arena
   (:mod:`repro.columnar.transfer`) rather than the pickled result
   pipe, with plain pickling as the automatic fallback;
4. the driver consumes shard results in *chunk index order* (not
   completion order) and merges stats via ``ExploreStats.merge_shard``.

Only step 4's ordering could introduce worker-count dependence, and it
cannot: the final report deduplicates runs with an order-independent
representative preference and sorts them by canonical ``(plan, trace)``
coordinates, so the run list, violations, and search-shape stats are
identical for every worker count.  (With ``stop_on_violation`` the
short-circuit happens at shard granularity -- *that* exploration stops
after a different prefix of the leaf stream, which is the documented
trade.)

A worker failure (broken pool, unpicklable surprise) degrades softly:
the driver re-drains that chunk serially in-process, preserving the
result exactly at the cost of the parallelism.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.reduction import ExploreStats
    from repro.explore.scheduler import Leaf, Trace
    from repro.explore.spec import ExploreSpec
    from repro.sim.failures import CrashPlan

__all__ = ["run_sharded"]

#: Chunks per worker: slack for the pool's queue to level uneven subtrees.
_CHUNK_FACTOR = 4


def _explore_chunk(
    spec: "ExploreSpec", entries: Sequence[tuple["CrashPlan", "Trace"]]
) -> tuple[list["Leaf"], "ExploreStats"]:
    """Worker entry point: drain one frontier slice to its leaves.

    Top-level (picklable) by necessity; imports lazily so spawned
    workers pay the import once and fork-start workers pay nothing.
    """
    from repro.explore.scheduler import drain_frontier

    return drain_frontier(spec, entries)


def _explore_chunk_shipped(
    spec: "ExploreSpec", entries: Sequence[tuple["CrashPlan", "Trace"]]
) -> tuple[str, object]:
    """Worker entry point with arena transfer.

    Leaf runs are parked in one shared-memory arena
    (:func:`repro.columnar.ship_runs`); only the (plan, trace)
    coordinates, per-shard stats, and the arena header cross the result
    pipe.  Falls back to plain pickling on mixed process tuples or when
    shared memory is unavailable -- the driver detects the form.
    """
    leaves, stats = _explore_chunk(spec, entries)
    if not leaves:
        return ("plain", (leaves, stats))
    runs = [run for _plan, _trace, run in leaves]
    procs = runs[0].processes
    if any(run.processes != procs for run in runs):
        return ("plain", (leaves, stats))
    try:
        from repro.columnar.transfer import ship_runs

        shipped = ship_runs(runs)
    except Exception:  # pragma: no cover - environmental
        return ("plain", (leaves, stats))
    coords = [(plan, trace) for plan, trace, _run in leaves]
    return ("shipped", (coords, stats, shipped))


def _unship_result(
    raw: tuple[str, object],
) -> tuple[list["Leaf"], "ExploreStats"]:
    """Driver side: decode a shard result back into (leaves, stats).

    Raises on a failed shared-memory handoff; the caller's degraded
    path then re-drains the chunk serially (the block is unlinked by
    ``receive_runs`` even on failure).
    """
    tag, payload = raw
    if tag == "plain":
        return payload  # type: ignore[return-value]
    coords, stats, shipped = payload  # type: ignore[misc]
    from repro.columnar.transfer import receive_runs

    runs = receive_runs(shipped)
    leaves: list["Leaf"] = [
        (plan, trace, run) for (plan, trace), run in zip(coords, runs)
    ]
    return leaves, stats


def run_sharded(
    spec: "ExploreSpec",
    frontier: Sequence[tuple["CrashPlan", "Trace"]],
    workers: int,
) -> Iterator[tuple[list["Leaf"], "ExploreStats"]]:
    """Drain ``frontier`` across ``workers`` processes, yielding shard
    results in deterministic chunk order.

    A generator so the driver can stop early (``stop_on_violation``):
    closing it cancels the queued chunks without waiting for them.
    """
    from repro.explore.scheduler import drain_frontier

    if workers <= 1 or len(frontier) <= 1:
        yield drain_frontier(spec, frontier)
        return
    n_chunks = min(len(frontier), workers * _CHUNK_FACTOR)
    chunks = [list(frontier[i::n_chunks]) for i in range(n_chunks)]
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures: list[Future[tuple[str, object]]] = [
            pool.submit(_explore_chunk_shipped, spec, chunk) for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            try:
                result = _unship_result(future.result())
            except Exception:
                # Degraded mode: the pool died under this chunk (worker
                # OOM, interpreter teardown).  The chunk is pure, so
                # re-draining serially yields the identical leaves.
                result = drain_frontier(spec, chunk)
            yield result
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
