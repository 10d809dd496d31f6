"""The knowledge-based run transformations of Theorems 3.6 and 4.3.

Theorem 3.6: if a system R attains UDC (under A1-A4, A5_{n-1}, and
infinitely many initiations), then R can *simulate perfect failure
detectors*: the transformed system R^f = {f(r) : r in R} has perfect
detectors, where f interleaves, at every odd step, a derived report

    suspect'_p(S)   with   S = {q : (R, r, m) |= K_p crash(q)}   (P3)

Theorem 4.3 generalises to a bound t on failures via f' which emits
generalized reports

    suspect'_p(S_l, k),  l = |r_p(m+1)| mod 2^n,
    k = max{k' : (R, r, m) |= K_p("at least k' processes in S_l crashed")}
                                                                    (P3')

Time mapping.  P1-P2 double the timeline: r(0) maps to f(r)(0) (both
empty, R1), an original event that lands at time m >= 1 of r lands at
time 2m of f(r), and the derived report carrying knowledge at (r, m)
lands at time 2m + 1.  Original failure-detector events are *deleted*
(P2) -- the derived reports replace them -- and derived reports carry
``derived=True`` so the property checkers can tell the two apart.
Knowledge is veridical, so a derived suspicion of q at time 2m + 1
implies q's crash landed at some 2m_c <= 2m < 2m + 1: the transformed
detector satisfies strong accuracy *by construction*, for any system
(this is a theorem of the semantics; the property tests exercise it on
arbitrary ensembles).  Completeness is where the theorem's hypotheses
bite.

R4 footnote: the paper appends derived reports at every odd step; we
stop appending to a history once its crash event has landed, since R4
makes the crash terminal.  Reports by crashed processes are irrelevant
to every detector property.

Knowledge here is evaluated over the finite ensemble R that the caller
provides (DESIGN.md substitution 3): exact with respect to R, an upper
bound on knowledge with respect to the infinite system it samples.
"""

from __future__ import annotations

from typing import Sequence

from repro.model.events import (
    GeneralizedSuspicion,
    ProcessId,
    StandardSuspicion,
    SuspectEvent,
)
from repro.model.run import Point, Run
from repro.model.system import System


def _transformed_timelines(
    run: Run,
    system: System,
    report_for,
) -> dict[ProcessId, list]:
    """Shared skeleton of f and f': copy non-FD events to even times and
    splice derived reports (``report_for(p, point)``) at odd times."""
    # Query through the system's own object for the run, so each point
    # lookup resolves by identity instead of a deep Run.__eq__.
    pos = system.run_index(run)
    own = run if pos is None else system.runs[pos]
    timelines: dict[ProcessId, list] = {}
    for p in run.processes:
        crash_tick = run.crash_time(p)
        merged: list = []
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


def transform_run_f(run: Run, system: System) -> Run:
    """The transformation f of Theorem 3.6 (P1-P3)."""

    def report_for(p: ProcessId, point: Point) -> StandardSuspicion:
        return StandardSuspicion(system.known_crashed_set(p, point))

    timelines = _transformed_timelines(run, system, report_for)
    return Run(
        run.processes,
        timelines,
        duration=2 * run.duration + 1,
        meta={**run.meta, "transformed": "f"},
    )


def subset_order(processes: Sequence[ProcessId]) -> tuple[frozenset[ProcessId], ...]:
    """The fixed order S_0, ..., S_{2^n - 1} used by P3': binary counting
    over the sorted process list (S_0 is empty, S_{2^n-1} is Proc)."""
    procs = sorted(processes)
    n = len(procs)
    return tuple(
        frozenset(procs[i] for i in range(n) if mask & (1 << i))
        for mask in range(1 << n)
    )


def transform_run_f_prime(run: Run, system: System) -> Run:
    """The transformation f' of Theorem 4.3 (P1, P2, P3')."""
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


def simulate_perfect_detectors(system: System) -> System:
    """R^f = {f(r) : r in R}: Theorem 3.6's simulated-detector system."""
    return System(
        [transform_run_f(run, system) for run in system],
        context=system.context,
    )


def simulate_generalized_detectors(system: System) -> System:
    """R^{f'} = {f'(r) : r in R}: Theorem 4.3's simulated-detector system."""
    return System(
        [transform_run_f_prime(run, system) for run in system],
        context=system.context,
    )
