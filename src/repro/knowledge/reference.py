"""Naive reference implementations of the epistemic kernel.

These are the pre-kernel algorithms, retained verbatim in spirit:
every query quantifies over points by scanning runs and comparing local
histories structurally, with no hash-consing, no equivalence classes,
no bitsets, and no caching.  They exist for two reasons:

* the differential property tests pin the fast kernel's verdicts to
  these semantics point-for-point on randomized systems;
* the kernel microbenchmarks report speedups against this baseline.

Never use them in production paths -- they are O(points x candidates)
per query by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.knowledge.formulas import Formula
from repro.knowledge.semantics import ModelChecker
from repro.model.events import ProcessId
from repro.model.run import Point
from repro.model.system import System


def naive_indistinguishable_points(
    system: System, process: ProcessId, point: Point
) -> list[Point]:
    """All points ~_process ``point``, by full scan (no index)."""
    target = point.history(process)
    return [
        Point(run, m)
        for run in system.runs
        for m in range(run.duration + 1)
        if run.history(process, m) == target
    ]


def naive_knows(
    system: System,
    process: ProcessId,
    point: Point,
    predicate: Callable[[Point], bool],
) -> bool:
    """K_p(predicate) by scanning every candidate point."""
    return all(
        predicate(candidate)
        for candidate in naive_indistinguishable_points(system, process, point)
    )


def naive_knows_crashed(
    system: System, process: ProcessId, point: Point, target: ProcessId
) -> bool:
    """K_p(crash(q)) by candidate scan."""
    return naive_knows(
        system, process, point, lambda pt: pt.run.crashed_by(target, pt.time)
    )


def naive_known_crashed_set(
    system: System, process: ProcessId, point: Point
) -> frozenset[ProcessId]:
    """{q : K_p(crash(q))}, one candidate scan per q."""
    return frozenset(
        q
        for q in system.processes
        if naive_knows_crashed(system, process, point, q)
    )


def naive_known_crash_count(
    system: System,
    process: ProcessId,
    point: Point,
    subset: frozenset[ProcessId],
) -> int:
    """max{k : K_p("at least k of subset crashed")} by candidate scan."""
    candidates = naive_indistinguishable_points(system, process, point)
    if not candidates:
        return 0
    return min(
        sum(1 for q in subset if pt.run.crashed_by(q, pt.time))
        for pt in candidates
    )


def naive_common_knowledge_points(
    checker: ModelChecker, group: Sequence[ProcessId], formula: Formula
) -> set[tuple[int, int]]:
    """C_G phi's point set by per-point iterated refinement.

    The original fixpoint loop: start from the points satisfying phi,
    repeatedly drop any point some member of G considers possibly
    outside the current set, re-walking the candidate lists of every
    surviving point each round.
    """
    system = checker.system
    runs = list(system.runs)
    index = {run: i for i, run in enumerate(runs)}
    current: set[tuple[int, int]] = set()
    for i, run in enumerate(runs):
        for m in range(run.duration + 1):
            if checker.holds(formula, Point(run, m)):
                current.add((i, m))
    changed = True
    while changed:
        changed = False
        # sorted(): the fixpoint is order-independent, but the *work* per
        # round is not — sorting keeps the reference kernel's query
        # counters replayable for the differential tests.
        for i, m in sorted(current):
            point = Point(runs[i], m)
            for p in system.processes:
                if p not in group:
                    continue
                for candidate in naive_indistinguishable_points(system, p, point):
                    key = (
                        index[candidate.run],
                        min(candidate.time, candidate.run.duration),
                    )
                    if key not in current:
                        current.discard((i, m))
                        changed = True
                        break
                if (i, m) not in current:
                    break
    return current


def naive_max_e_depth(
    checker: ModelChecker,
    group: Sequence[ProcessId],
    formula: Formula,
    point: Point,
    *,
    cap: int = 10,
) -> int:
    """The E^k ladder by materializing and model-checking nested formulas."""
    from repro.knowledge.group import e_iterated

    depth = 0
    while depth < cap:
        if not checker.holds(e_iterated(group, formula, depth + 1), point):
            break
        depth += 1
    return depth
