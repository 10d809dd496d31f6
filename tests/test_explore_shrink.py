"""Tests for repro.explore.shrink: counterexample minimization.

The contract: shrinking is deterministic (equal inputs give equal
witnesses), every accepted step still violates the monitor, and the
result is locally minimal -- no crash removable, no adversarial choice
zeroable, no suffix cuttable.
"""

import pytest

from repro import (
    ExploreSpec,
    UniformityMonitor,
    Violation,
    explore,
    make_process_ids,
    replay_exploration,
    shrink_violation,
    uniform_protocol,
)
from repro.core.protocols import NUDCProcess
from repro.sim.failures import CrashPlan
from repro.workloads.generators import single_action

pytestmark = pytest.mark.filterwarnings(
    "error::repro.model.system.IncompleteSystemWarning"
)

MONITOR = UniformityMonitor()  # udc


def lossy_spec(**overrides):
    base = dict(
        processes=make_process_ids(3),
        protocol=uniform_protocol(NUDCProcess),
        horizon=6,
        max_failures=1,
        crash_ticks=(1, 3, 5),
        workload=single_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )
    base.update(overrides)
    return ExploreSpec(**base)


@pytest.fixture(scope="module")
def seeded_violation():
    """The drop-based UDC violation: p1 crashes at 5 after both of its
    alpha-copies were deferred at every delivery choice point (under
    drop elision an undelivered copy IS a drop), so no correct process
    ever hears of the action it performed."""
    spec = lossy_spec()
    report = explore(spec, monitors=[MONITOR], cache=None)
    violation = next(v for v in report.violations if v.trace)
    return spec, violation


class TestShrink:
    def test_result_still_violates_and_replays(self, seeded_violation):
        spec, violation = seeded_violation
        result = shrink_violation(spec, violation, monitor=MONITOR)
        assert not MONITOR.check(result.run)
        assert replay_exploration(spec, result.crash_plan, result.trace) == (
            result.run
        )

    def test_deterministic(self, seeded_violation):
        spec, violation = seeded_violation
        first = shrink_violation(spec, violation, monitor=MONITOR)
        second = shrink_violation(spec, violation, monitor=MONITOR)
        assert (first.crash_plan, first.trace) == (
            second.crash_plan,
            second.trace,
        )
        assert first.run == second.run

    def test_locally_minimal(self, seeded_violation):
        spec, violation = seeded_violation
        result = shrink_violation(spec, violation, monitor=MONITOR)
        # no crash is removable
        for pid, _tick in result.crash_plan.crashes:
            reduced = CrashPlan(
                tuple(c for c in result.crash_plan.crashes if c[0] != pid)
            )
            run = replay_exploration(spec, reduced, result.trace)
            assert MONITOR.check(run), f"crash of {pid} was removable"
        # no single adversarial choice is zeroable
        for i, choice in enumerate(result.trace):
            if choice == 0:
                continue
            candidate = result.trace[:i] + (0,) + result.trace[i + 1 :]
            run = replay_exploration(spec, result.crash_plan, candidate)
            assert MONITOR.check(run), f"choice {i} was zeroable"

    def test_minimal_witness_needs_both_drops_and_the_crash(
        self, seeded_violation
    ):
        spec, violation = seeded_violation
        result = shrink_violation(spec, violation, monitor=MONITOR)
        assert result.crashes == {"p1": 5}
        assert result.trace == (1, 1, 1, 1, 1)

    def test_sloppy_trace_shrinks_to_the_same_witness(self, seeded_violation):
        """A witness padded with redundant adversarial junk (unconsumed
        or clamped choices) reduces to the canonical minimal one."""
        spec, violation = seeded_violation
        padded = Violation(
            monitor=violation.monitor,
            verdict=violation.verdict,
            run=replay_exploration(
                spec, violation.crash_plan, violation.trace + (7, 0, 3)
            ),
            crash_plan=violation.crash_plan,
            trace=violation.trace + (7, 0, 3),
        )
        result = shrink_violation(spec, padded, monitor=MONITOR)
        assert result.trace == (1, 1, 1, 1, 1)
        assert result.reductions > 0

    def test_redundant_crash_is_dropped(self):
        """Pass 1: a bystander crash the violation does not need goes."""
        spec = lossy_spec(max_failures=2)
        plan = CrashPlan.of({"p1": 5, "p3": 1})
        # Defer at every delivery choice point; the trace is long enough
        # to keep both alpha-copies undelivered whether or not p3's
        # crash (which removes p3's copy's choice points) is kept.
        trace = (1, 1, 1, 1, 1)
        run = replay_exploration(spec, plan, trace)
        verdict = MONITOR.check(run)
        assert not verdict
        violation = Violation(
            monitor=MONITOR.name,
            verdict=verdict,
            run=run,
            crash_plan=plan,
            trace=trace,
        )
        result = shrink_violation(spec, violation, monitor=MONITOR)
        assert result.crashes == {"p1": 5}
        assert result.reductions >= 1

    def test_non_reproducing_violation_rejected(self, seeded_violation):
        spec, violation = seeded_violation
        healthy = replay_exploration(spec, CrashPlan.none(), ())
        fake = Violation(
            monitor=MONITOR.name,
            verdict=violation.verdict,
            run=healthy,
            crash_plan=CrashPlan.none(),
            trace=(),
        )
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_violation(spec, fake, monitor=MONITOR)
