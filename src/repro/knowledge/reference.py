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

from repro.knowledge.formulas import (
    And,
    Atom,
    Box,
    Crashed,
    Diamond,
    Did,
    Formula,
    Implies,
    Inited,
    Knows,
    Not,
    Or,
    Received,
    Sent,
    _Const,
)
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


def naive_holds(system: System, formula: Formula, point: Point) -> bool:
    """(R, r, m) |= phi by direct recursion over the formula.

    Atoms read the point's ``History``; Box/Diamond sweep the run from
    the point to its duration (the final cut repeats forever); K_p scans
    :func:`naive_indistinguishable_points`.  Nothing is cached and the
    columnar kernel is never built.
    """
    run, time = point.run, min(point.time, point.run.duration)
    point = Point(run, time)
    history = point.history

    def holds(child: Formula, at: Point = point) -> bool:
        return naive_holds(system, child, at)

    if isinstance(formula, _Const):
        return formula.value
    if isinstance(formula, Atom):
        return bool(formula.fn(point))
    if isinstance(formula, Inited):
        return history(formula.process).inited(formula.action)
    if isinstance(formula, Did):
        return history(formula.process).did(formula.action)
    if isinstance(formula, Crashed):
        return history(formula.process).crashed
    if isinstance(formula, Sent):
        return history(formula.sender).sent(formula.receiver, formula.message)
    if isinstance(formula, Received):
        return history(formula.receiver).received(formula.sender, formula.message)
    if isinstance(formula, Not):
        return not holds(formula.child)
    if isinstance(formula, And):
        return all(map(holds, formula.parts))
    if isinstance(formula, Or):
        return any(map(holds, formula.parts))
    if isinstance(formula, Implies):
        return not holds(formula.antecedent) or holds(formula.consequent)
    if isinstance(formula, (Box, Diamond)):
        later = range(time, run.duration + 1)
        sweep = (holds(formula.child, Point(run, m)) for m in later)
        return all(sweep) if isinstance(formula, Box) else any(sweep)
    if isinstance(formula, Knows):
        child = formula.child
        return naive_knows(system, formula.process, point, lambda c: holds(child, c))
    raise TypeError(f"unknown formula node {formula!r}")


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
            if naive_holds(system, formula, Point(run, m)):
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
    """The E^k ladder by materializing and naively checking nested formulas."""
    from repro.knowledge.group import e_iterated

    depth = 0
    while depth < cap:
        if not naive_holds(
            checker.system, e_iterated(group, formula, depth + 1), point
        ):
            break
        depth += 1
    return depth
