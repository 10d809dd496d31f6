"""Tests for the Chandra-Toueg consensus baselines (Table 1's consensus rows)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.consensus import (
    RotatingCoordinatorConsensus,
    StrongConsensusProcess,
    check_consensus,
    consensus_factory,
    consensus_outcome,
    decide_action,
)
from repro.detectors.base import NoDetector
from repro.detectors.standard import (
    EventuallyWeakOracle,
    PerfectOracle,
    StrongOracle,
)
from repro.model.context import ChannelSemantics, make_process_ids
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.failures import CrashPlan, staggered_plan
from repro.sim.network import ChannelConfig
from repro.model.run import Run
from repro.model.events import DoEvent

PROCS = make_process_ids(5)
VALUES = {p: f"v{i % 2}" for i, p in enumerate(PROCS)}
RELIABLE = ExecutionConfig(channel=ChannelConfig(semantics=ChannelSemantics.RELIABLE))


@st.composite
def rotating_cases(draw):
    """(n, crashes, proposals, reliable, stabilization tick, seed): a
    majority stays correct, crashes land at ticks 0-40, proposals come
    from three values, and <>W settles at a tick in 0-60."""
    n = draw(st.integers(3, 5))
    procs = make_process_ids(n)
    faulty = draw(st.lists(st.sampled_from(procs), unique=True, max_size=(n - 1) // 2))
    crashes = {p: draw(st.integers(0, 40)) for p in faulty}
    values = tuple(draw(st.sampled_from(("v0", "v1", "v2"))) for _ in procs)
    return (n, crashes, values, draw(st.booleans()), draw(st.integers(0, 60)),
            draw(st.integers(0, 10**6)))


def run_consensus(cls, detector, plan=CrashPlan.none(), seed=0, config=None, **kwargs):
    return Executor(
        PROCS,
        consensus_factory(cls, VALUES, **kwargs),
        crash_plan=plan,
        detector=detector,
        config=config or ExecutionConfig(max_ticks=3000),
        seed=seed,
    ).run()


class TestStrongConsensus:
    @pytest.mark.parametrize("seed", range(4))
    def test_failure_free(self, seed):
        run = run_consensus(StrongConsensusProcess, StrongOracle(), seed=seed)
        assert check_consensus(run, VALUES)

    @pytest.mark.parametrize("seed", range(4))
    def test_tolerates_n_minus_1_failures(self, seed):
        plan = staggered_plan(PROCS, ["p2", "p3", "p4", "p5"], first_tick=4)
        run = run_consensus(StrongConsensusProcess, StrongOracle(), plan, seed)
        assert check_consensus(run, VALUES)

    def test_reliable_channels_also_work(self):
        plan = CrashPlan.of({"p4": 6})
        run = run_consensus(
            StrongConsensusProcess, StrongOracle(), plan, config=RELIABLE
        )
        assert check_consensus(run, VALUES)

    def test_uniform_agreement_across_seeds(self):
        plan = CrashPlan.of({"p2": 8, "p5": 14})
        for seed in range(6):
            run = run_consensus(StrongConsensusProcess, PerfectOracle(), plan, seed)
            outcome = consensus_outcome(run)
            assert len(set(outcome.values())) == 1

    def test_validity(self):
        run = run_consensus(StrongConsensusProcess, StrongOracle())
        outcome = consensus_outcome(run)
        assert set(outcome.values()) <= set(VALUES.values())


class TestRotatingCoordinator:
    @pytest.mark.parametrize("seed", range(4))
    def test_majority_correct_with_eventually_weak(self, seed):
        plan = CrashPlan.of({"p4": 6, "p5": 10})  # t = 2 < n/2
        run = run_consensus(
            RotatingCoordinatorConsensus,
            EventuallyWeakOracle(stabilization_tick=30),
            plan,
            seed,
        )
        assert check_consensus(run, VALUES)

    def test_no_detector_stalls_on_dead_coordinator(self):
        # FLP face: round 0's coordinator crashes unsuspectably.
        plan = CrashPlan.of({"p1": 2})
        run = run_consensus(
            RotatingCoordinatorConsensus,
            NoDetector(),
            plan,
            config=ExecutionConfig(max_ticks=600),
        )
        assert consensus_outcome(run) == {}

    def test_majority_loss_stalls(self):
        # t >= n/2: the coordinator can never assemble a majority.
        plan = staggered_plan(PROCS, ["p3", "p4", "p5"], first_tick=2, spacing=1)
        run = run_consensus(
            RotatingCoordinatorConsensus,
            EventuallyWeakOracle(stabilization_tick=20),
            plan,
            config=ExecutionConfig(max_ticks=600),
        )
        assert not check_consensus(run, VALUES)

    def test_decision_propagates_to_late_processes(self):
        run = run_consensus(
            RotatingCoordinatorConsensus,
            EventuallyWeakOracle(stabilization_tick=10),
        )
        outcome = consensus_outcome(run)
        assert set(outcome) >= run.correct()

    @settings(max_examples=60, deadline=None)
    @given(rotating_cases())
    # Each witness decided two values while ts started at 0, round 0's
    # own number, so that a lock in round 0 tied with no lock at all.
    @example((3, {}, ("v2", "v1", "v1"), False, 21, 142658))
    @example((3, {"p1": 20}, ("v0", "v1", "v1"), False, 48, 666445))
    @example((5, {"p3": 24, "p4": 21}, ("v1", "v2", "v2", "v2", "v1"), True, 2, 821274))
    def test_solves_consensus_with_a_correct_majority(self, case):
        n, crashes, values, reliable, stabilization, seed = case
        procs = make_process_ids(n)
        proposals = dict(zip(procs, values))
        channel = ChannelConfig(
            semantics=ChannelSemantics.RELIABLE if reliable else ChannelSemantics.FAIR_LOSSY
        )
        run = Executor(
            procs,
            consensus_factory(RotatingCoordinatorConsensus, proposals),
            crash_plan=CrashPlan.of(crashes),
            detector=EventuallyWeakOracle(stabilization_tick=stabilization),
            config=ExecutionConfig(max_ticks=4000, channel=channel),
            seed=seed,
        ).run()
        verdict = check_consensus(run, proposals)
        assert verdict, verdict.witness

    def test_agreement_with_noisy_prefix(self):
        # Wrong suspicions before stabilization cause wasted rounds but
        # never disagreement (quorum locking).
        for seed in range(6):
            run = run_consensus(
                RotatingCoordinatorConsensus,
                EventuallyWeakOracle(stabilization_tick=45, noise_rate=0.6),
                CrashPlan.of({"p2": 7}),
                seed,
            )
            outcome = consensus_outcome(run)
            assert len(set(outcome.values())) <= 1


class TestOutcomeCheckers:
    def test_consensus_outcome_reads_decides(self):
        run = Run(
            ("p1", "p2"),
            {
                "p1": [(3, DoEvent("p1", decide_action("v0")))],
                "p2": [],
            },
            duration=5,
        )
        assert consensus_outcome(run) == {"p1": "v0"}

    def test_check_consensus_requires_termination(self):
        run = Run(("p1", "p2"), {"p1": [], "p2": []}, duration=5)
        verdict = check_consensus(run, {"p1": "v0", "p2": "v1"})
        assert not verdict and "never decided" in verdict.witness

    def test_check_consensus_flags_disagreement(self):
        run = Run(
            ("p1", "p2"),
            {
                "p1": [(3, DoEvent("p1", decide_action("v0")))],
                "p2": [(3, DoEvent("p2", decide_action("v1")))],
            },
            duration=5,
        )
        verdict = check_consensus(run, {"p1": "v0", "p2": "v1"})
        assert not verdict and "conflicting" in verdict.witness

    def test_check_consensus_flags_invalid_value(self):
        run = Run(
            ("p1", "p2"),
            {
                "p1": [(3, DoEvent("p1", decide_action("vX")))],
                "p2": [(3, DoEvent("p2", decide_action("vX")))],
            },
            duration=5,
        )
        verdict = check_consensus(run, {"p1": "v0", "p2": "v1"})
        assert not verdict and "never proposed" in verdict.witness
