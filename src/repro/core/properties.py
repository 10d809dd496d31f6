"""Uniform Distributed Coordination properties DC1-DC3 and DC2' (Section 2.4).

UDC of action alpha in A_p holds in a system R iff:

* DC1: init_p(alpha) => eventually (do_p(alpha) or crash(p))
* DC2: for all q1, q2: do_q1(alpha) => eventually (do_q2(alpha) or crash(q2))
* DC3: for all q2: do_q2(alpha) => init_p(alpha)

nUDC replaces DC2 with

* DC2': do_q1(alpha) => eventually (do_q2(alpha) or crash(q2) or crash(q1))

All constituent formulas are stable, so on quiescent finite runs the
"eventually" obligations are decided at the run's duration (the final
cut repeats forever).  DC3 is an invariant across cuts: whenever
do_q2(alpha) holds at a cut, init_p(alpha) already holds at that cut,
which on our globally-timed runs is the statement that the init event is
no later than the first do event.
"""

from __future__ import annotations

from repro.detectors.properties import PropertyVerdict
from repro.model.events import ActionId, DoEvent, InitEvent, ProcessId
from repro.model.run import Run
from repro.model.system import System
from repro.workloads.generators import initiator_of


def actions_in(run: Run) -> set[ActionId]:
    """All actions initiated in the run."""
    return {
        event.action
        for p in run.processes
        for event in run.events(p)
        if isinstance(event, InitEvent)
    }


def _do_time(run: Run, process: ProcessId, action: ActionId) -> int | None:
    for tick, event in run.timeline(process):
        if isinstance(event, DoEvent) and event.action == action:
            return tick
    return None


def _init_time(run: Run, action: ActionId) -> int | None:
    initiator = initiator_of(action)
    for tick, event in run.timeline(initiator):
        if isinstance(event, InitEvent) and event.action == action:
            return tick
    return None


def dc1(run: Run, action: ActionId) -> PropertyVerdict:
    """init_p(alpha) => eventually (do_p(alpha) or crash(p))."""
    p = initiator_of(action)
    if _init_time(run, action) is None:
        return PropertyVerdict.ok()  # antecedent false
    if _do_time(run, p, action) is not None or run.crash_time(p) is not None:
        return PropertyVerdict.ok()
    return PropertyVerdict.fail(
        f"{p} initiated {action!r} but neither performed it nor crashed"
    )


def dc2(run: Run, action: ActionId) -> PropertyVerdict:
    """Uniformity: if anyone performs alpha, every process performs or crashes."""
    performers = [q for q in run.processes if _do_time(run, q, action) is not None]
    if not performers:
        return PropertyVerdict.ok()
    for q2 in run.processes:
        if q2 not in performers and run.crash_time(q2) is None:
            return PropertyVerdict.fail(
                f"{performers[0]} performed {action!r} but correct {q2} never did"
            )
    return PropertyVerdict.ok()


def dc2_prime(run: Run, action: ActionId) -> PropertyVerdict:
    """Non-uniform variant: obligation only triggered by correct performers."""
    performers = [q for q in run.processes if _do_time(run, q, action) is not None]
    correct_performers = [q for q in performers if run.crash_time(q) is None]
    if not correct_performers:
        return PropertyVerdict.ok()
    for q2 in run.processes:
        if q2 not in performers and run.crash_time(q2) is None:
            return PropertyVerdict.fail(
                f"correct {correct_performers[0]} performed {action!r} "
                f"but correct {q2} never did"
            )
    return PropertyVerdict.ok()


def dc3(run: Run, action: ActionId) -> PropertyVerdict:
    """No process performs alpha unless its initiator initiated it first.

    Validity at all points: at every cut where do_q(alpha) holds,
    init_p(alpha) holds, i.e. the init event is no later than the
    earliest do event (global time).
    """
    init_t = _init_time(run, action)
    for q in run.processes:
        do_t = _do_time(run, q, action)
        if do_t is None:
            continue
        if init_t is None:
            return PropertyVerdict.fail(
                f"{q} performed {action!r} which was never initiated"
            )
        if do_t < init_t:
            return PropertyVerdict.fail(
                f"{q} performed {action!r} at time {do_t}, before its "
                f"initiation at time {init_t}"
            )
    return PropertyVerdict.ok()


def _each_action(run: Run, action: ActionId | None) -> list[ActionId]:
    if action is not None:
        return [action]
    # Include actions that were performed without init (DC3 violations).
    performed = {
        e.action
        for p in run.processes
        for e in run.events(p)
        if isinstance(e, DoEvent)
    }
    return sorted(actions_in(run) | performed)


def udc_holds(run: Run, action: ActionId | None = None) -> PropertyVerdict:
    """DC1 and DC2 and DC3, for one action or for every action in the run."""
    for a in _each_action(run, action):
        for check in (dc1, dc2, dc3):
            verdict = check(run, a)
            if not verdict:
                return verdict
    return PropertyVerdict.ok()


def nudc_holds(run: Run, action: ActionId | None = None) -> PropertyVerdict:
    """DC1 and DC2' and DC3."""
    for a in _each_action(run, action):
        for check in (dc1, dc2_prime, dc3):
            verdict = check(run, a)
            if not verdict:
                return verdict
    return PropertyVerdict.ok()


def system_udc(system: System) -> PropertyVerdict:
    """UDC holds of a system iff it holds in every run."""
    for i, run in enumerate(system):
        verdict = udc_holds(run)
        if not verdict:
            return PropertyVerdict.fail(f"run {i}: {verdict.witness}")
    return PropertyVerdict.ok()


def system_nudc(system: System) -> PropertyVerdict:
    """nUDC holds of a system iff it holds in every run."""
    for i, run in enumerate(system):
        verdict = nudc_holds(run)
        if not verdict:
            return PropertyVerdict.fail(f"run {i}: {verdict.witness}")
    return PropertyVerdict.ok()
