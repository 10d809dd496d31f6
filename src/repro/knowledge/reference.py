"""Naive reference implementations of the epistemic kernel.

These are the pre-kernel algorithms, retained verbatim in spirit:
every query quantifies over points by scanning runs and comparing local
histories structurally, with no hash-consing, no equivalence classes,
no bitsets, and no caching.  They exist for two reasons:

* the differential property tests pin the fast kernel's verdicts to
  these semantics point-for-point on randomized systems;
* the kernel microbenchmarks report speedups against this baseline.

The point-at-a-time run transformations f and f' of Theorems 3.6 and
4.3 live here for the same reasons: :mod:`repro.core.simulation_theorem`
builds them from the kernel's class rows, and the differential tests
and the ``transform`` benchmark row compare it with these.

Never use them in production paths -- they are O(points x candidates)
per query by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.simulation_theorem import subset_order
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
from repro.model.events import (
    Event,
    GeneralizedSuspicion,
    ProcessId,
    StandardSuspicion,
    SuspectEvent,
    Suspicion,
)
from repro.model.run import Point, Run
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


def _transformed_timelines(
    run: Run,
    system: System,
    report_for: Callable[[ProcessId, Point], Suspicion],
) -> dict[ProcessId, list[tuple[int, Event]]]:
    """Shared skeleton of f and f': copy non-FD events to even times and
    splice derived reports (``report_for(p, point)``) at odd times."""
    # Query through the system's own object for the run, so each point
    # lookup resolves by identity instead of a deep Run.__eq__.
    pos = system.run_index(run)
    own = run if pos is None else system.runs[pos]
    timelines: dict[ProcessId, list[tuple[int, Event]]] = {}
    for p in run.processes:
        crash_tick = run.crash_time(p)
        merged: list[tuple[int, Event]] = []
        for m in range(run.duration + 1):
            if crash_tick is not None and m >= crash_tick:
                break  # R4: nothing follows the crash event
            report = report_for(p, Point(own, m))
            if report is not None:
                merged.append((2 * m + 1, SuspectEvent(p, report, derived=True)))
        for t, event in run.timeline(p):
            if isinstance(event, SuspectEvent):
                continue  # P2 deletes the original failure-detector events
            merged.append((2 * t, event))
        merged.sort(key=lambda te: te[0])
        timelines[p] = merged
    return timelines


def naive_transform_run_f(run: Run, system: System) -> Run:
    """The transformation f of Theorem 3.6 (P1-P3), one query per point."""

    def report_for(p: ProcessId, point: Point) -> StandardSuspicion:
        return StandardSuspicion(system.known_crashed_set(p, point))

    timelines = _transformed_timelines(run, system, report_for)
    return Run(
        run.processes,
        timelines,
        duration=2 * run.duration + 1,
        meta={**run.meta, "transformed": "f"},
    )


def naive_transform_run_f_prime(run: Run, system: System) -> Run:
    """The transformation f' of Theorem 4.3 (P1, P2, P3'), one query per point."""
    subsets = subset_order(run.processes)
    modulus = len(subsets)

    def report_for(p: ProcessId, point: Point) -> GeneralizedSuspicion:
        # P3': the subset index is the length of r_p(m+1) mod 2^n.
        history_len = len(run.history(p, min(point.time + 1, run.duration)))
        subset = subsets[history_len % modulus]
        k = system.known_crash_count(p, point, subset)
        return GeneralizedSuspicion(subset, k)

    timelines = _transformed_timelines(run, system, report_for)
    return Run(
        run.processes,
        timelines,
        duration=2 * run.duration + 1,
        meta={**run.meta, "transformed": "f'"},
    )
