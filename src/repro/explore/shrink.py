"""Delta-debugging minimization of violating runs.

A violating run found by the explorer comes with its branch coordinates
``(crash_plan, trace)``, and :func:`repro.explore.scheduler.replay` is a
pure function of those coordinates -- so shrinking is search over
coordinate space, with the monitor re-validating every candidate:

1. **drop crash events** -- remove one planned crash at a time; a crash
   the violation does not need disappears from the witness;
2. **collapse delivery delays / drops** -- zero one nonzero choice at a
   time (option 0 is always the most cooperative alternative: deliver
   the oldest message, accept the copy), turning adversarial moves the
   violation does not need into cooperative ones;
3. **truncate the suffix** -- cut the trace's tail, first by halves then
   one choice at a time; the greedy completion replaces the cut tail
   with all-cooperative behaviour.

The passes repeat until a fixed point.  Every accepted candidate still
violates the monitor, so the result is a *locally minimal* witness: no
single crash can be removed, no single adversarial choice can be made
cooperative, and no suffix can be cut without losing the violation.
The search order is deterministic, so equal inputs shrink to equal
witnesses (the property ``tests/test_explore_shrink.py`` pins down).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detectors.properties import PropertyVerdict
from repro.explore.monitors import RunMonitor, Violation
from repro.explore.scheduler import Trace, replay
from repro.explore.spec import ExploreSpec
from repro.model.run import Run
from repro.sim.failures import CrashPlan

__all__ = ["ShrinkResult", "shrink_violation"]


@dataclass(frozen=True)
class ShrinkResult:
    """A minimized counterexample, still violating its monitor."""

    run: Run
    crash_plan: CrashPlan
    trace: Trace
    verdict: PropertyVerdict
    attempts: int  # candidate replays tried
    reductions: int  # candidates accepted (strictly simplifying steps)

    @property
    def crashes(self) -> dict[str, int]:
        return dict(self.crash_plan.crashes)


def _violates(
    spec: ExploreSpec,
    monitor: RunMonitor,
    plan: CrashPlan,
    trace: Trace,
) -> tuple[Run, PropertyVerdict] | None:
    """Replay a candidate; return it iff the monitor still fails."""
    run = replay(spec, plan, trace)
    verdict = monitor.check(run)
    return None if verdict else (run, verdict)


def _normalize(trace: Trace) -> Trace:
    """Drop the all-cooperative tail: trailing zeros are the greedy
    completion's defaults and carry no information."""
    end = len(trace)
    while end and trace[end - 1] == 0:
        end -= 1
    return trace[:end]


def shrink_violation(
    spec: ExploreSpec,
    violation: Violation,
    *,
    monitor: RunMonitor,
    max_attempts: int = 10_000,
) -> ShrinkResult:
    """Minimize ``violation`` to a locally minimal witness.

    ``monitor`` must be the monitor object whose check produced the
    violation (a :class:`Violation` carries only the monitor's *name*).
    """
    plan = violation.crash_plan
    trace = _normalize(violation.trace)
    current = _violates(spec, monitor, plan, trace)
    attempts = 1
    if current is None:
        raise ValueError(
            f"violation does not reproduce under replay: monitor "
            f"{monitor.name!r} passes at crashes="
            f"{dict(plan.crashes)}, trace={list(violation.trace)}"
        )
    reductions = 0

    changed = True
    while changed and attempts < max_attempts:
        changed = False

        # Pass 1: drop crash events, one at a time (deterministic order).
        for pid, _tick in sorted(plan.crashes):
            candidate_plan = CrashPlan(
                tuple((p, t) for p, t in plan.crashes if p != pid)
            )
            attempt = _violates(spec, monitor, candidate_plan, trace)
            attempts += 1
            if attempt is not None:
                plan, current = candidate_plan, attempt
                reductions += 1
                changed = True

        # Pass 2: truncate the suffix -- halves first, then single steps.
        cut = len(trace) // 2
        while cut >= 1 and trace:
            candidate_trace = _normalize(trace[: len(trace) - cut])
            if candidate_trace == trace:
                cut //= 2
                continue
            attempt = _violates(spec, monitor, plan, candidate_trace)
            attempts += 1
            if attempt is not None:
                trace, current = candidate_trace, attempt
                reductions += 1
                changed = True
            else:
                cut //= 2

        # Pass 3: make single adversarial choices cooperative.
        index = 0
        while index < len(trace):
            if trace[index] == 0:
                index += 1
                continue
            candidate_trace = _normalize(
                trace[:index] + (0,) + trace[index + 1 :]
            )
            attempt = _violates(spec, monitor, plan, candidate_trace)
            attempts += 1
            if attempt is not None:
                trace, current = candidate_trace, attempt
                reductions += 1
                changed = True
                # The trace may have shortened past `index`; re-scan.
                index = min(index, len(trace))
            else:
                index += 1

    run, verdict = current
    return ShrinkResult(
        run=run,
        crash_plan=plan,
        trace=trace,
        verdict=verdict,
        attempts=attempts,
        reductions=reductions,
    )
