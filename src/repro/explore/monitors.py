"""Online property monitors for explored runs.

A monitor is checked against every distinct run the explorer finds, as
it is found, so a violating branch can short-circuit the search
(``explore(..., stop_on_violation=True)``) and hand its coordinates to
the shrinker.

The finite-horizon subtlety: DC1/DC2 are *liveness* clauses evaluated
at the final cut, so a run truncated at the horizon mid-protocol would
flag them spuriously -- the obligation might have been met one tick
past T.  The explorer marks each run with ``meta["quiescent"]``: True
iff the final cut is a fixpoint (no pending sends, in-flight messages,
workload, crashes, or protocol intent), which under the
final-cut-repeats-forever convention makes the finite verdict exact.
Liveness monitors therefore *skip* non-quiescent runs by default; the
safety clause DC3 is checked on every run.  A violation reported by a
monitor is thus genuine: it survives every infinite extension of the
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.core.properties import _each_action, dc3, nudc_holds, udc_holds
from repro.detectors.properties import PropertyVerdict
from repro.model.events import ActionId
from repro.model.run import Run
from repro.sim.failures import CrashPlan

__all__ = [
    "PredicateMonitor",
    "RunMonitor",
    "UniformityMonitor",
    "Violation",
    "is_quiescent",
]


class RunMonitor(Protocol):
    """Anything with a name that can pass verdict on one run."""

    @property
    def name(self) -> str: ...

    def check(self, run: Run) -> PropertyVerdict: ...


def is_quiescent(run: Run) -> bool:
    """Did the explorer certify this run's final cut as a fixpoint?

    Runs from the seeded executor (driven to quiescence by
    construction) default to True.
    """
    return bool(run.meta.get("quiescent", True))


@dataclass(frozen=True)
class Violation:
    """One monitored property failing on one explored run.

    ``crash_plan`` and ``trace`` are the branch coordinates:
    ``repro.explore.replay(spec, crash_plan, trace)`` reproduces ``run``
    exactly, which is what makes the counterexample shrinkable.
    """

    monitor: str
    verdict: PropertyVerdict
    run: Run
    crash_plan: CrashPlan
    trace: tuple[int, ...]

    def describe(self) -> str:
        crashes = dict(self.crash_plan.crashes) if self.crash_plan.faulty else {}
        return (
            f"{self.monitor} violated: {self.verdict.witness} "
            f"[crashes={crashes or 'none'}, trace={list(self.trace)}]"
        )


@dataclass(frozen=True)
class UniformityMonitor:
    """UDC (or nUDC) over one explored run.

    ``uniform=True`` checks DC1+DC2+DC3, ``uniform=False`` the
    non-uniform DC1+DC2'+DC3.  On non-quiescent runs only the safety
    clause DC3 is checked (see the module docstring); set
    ``liveness_on_partial=True`` to check everything anyway (useful when
    a caller has its own truncation argument).
    """

    action: ActionId | None = None
    uniform: bool = True
    liveness_on_partial: bool = False

    @property
    def name(self) -> str:
        label = "udc" if self.uniform else "nudc"
        return label if self.action is None else f"{label}[{self.action!r}]"

    def check(self, run: Run) -> PropertyVerdict:
        if self.liveness_on_partial or is_quiescent(run):
            checker = udc_holds if self.uniform else nudc_holds
            return checker(run, self.action)
        if self.action is not None:
            return dc3(run, self.action)
        for a in _each_action(run, None):
            verdict = dc3(run, a)
            if not verdict:
                return verdict
        return PropertyVerdict.ok()


@dataclass(frozen=True)
class PredicateMonitor:
    """An arbitrary run predicate as a monitor (testing/extension hook)."""

    predicate: Callable[[Run], PropertyVerdict]
    label: str = "predicate"
    quiescent_only: bool = False

    @property
    def name(self) -> str:
        return self.label

    def check(self, run: Run) -> PropertyVerdict:
        if self.quiescent_only and not is_quiescent(run):
            return PropertyVerdict.ok()
        return self.predicate(run)
