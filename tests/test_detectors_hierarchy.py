"""Tests for the detector-class hierarchy and conversion graph."""

import pytest

from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.atd import AtdRotatingOracle
from repro.detectors.hierarchy import (
    BY_NAME,
    CLASS_ORDER,
    classify_system,
    conversion_graph,
    convertible,
    satisfied_classes,
    strongest_class,
)
from repro.detectors.standard import (
    ImpermanentStrongOracle,
    ImpermanentWeakOracle,
    LyingOracle,
    PerfectOracle,
    StrongOracle,
    WeakOracle,
)
from repro.model.context import make_process_ids
from repro.model.system import System
from repro.sim.executor import Executor
from repro.sim.failures import CrashPlan
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

PROCS = make_process_ids(4)
PLAN = CrashPlan.of({"p2": 5, "p4": 12})


def run_with(detector, seed=0):
    workload = single_action("p1", tick=1) + post_crash_workload(
        PROCS, PLAN, actions_per_survivor=1
    )
    return Executor(
        PROCS,
        uniform_protocol(StrongFDUDCProcess),
        crash_plan=PLAN,
        workload=workload,
        detector=detector,
        seed=seed,
    ).run()


class TestClassification:
    def test_perfect_oracle_classified_perfect(self):
        assert strongest_class(run_with(PerfectOracle())) == "perfect"

    def test_strong_oracle_classified_strong(self):
        # Find a run where the false positives actually fired.
        results = {
            strongest_class(run_with(StrongOracle(false_positive_rate=0.6), s))
            for s in range(5)
        }
        assert "strong" in results

    def test_weak_oracle_classified_weak(self):
        assert strongest_class(run_with(WeakOracle())) == "weak"

    def test_impermanent_oracles(self):
        assert (
            strongest_class(run_with(ImpermanentStrongOracle(retract_after=4)))
            == "impermanent-strong"
        )
        assert (
            strongest_class(run_with(ImpermanentWeakOracle(retract_after=4)))
            == "impermanent-weak"
        )

    def test_lying_oracle_unclassified(self):
        results = [strongest_class(run_with(LyingOracle(), s)) for s in range(4)]
        assert None in results

    def test_satisfied_classes_ordered_strongest_first(self):
        names = satisfied_classes(run_with(PerfectOracle()))
        assert names[0] == "perfect"
        order = [cls.name for cls in CLASS_ORDER]
        assert names == [n for n in order if n in names]

    def test_classify_system_takes_worst_run(self):
        system = System(
            [run_with(PerfectOracle()), run_with(WeakOracle(), seed=1)]
        )
        assert classify_system(system) == "weak"


class TestConversionGraph:
    def test_graph_nodes_match_classes(self):
        graph = conversion_graph()
        assert set(graph) == set(BY_NAME)
        assert graph["strong"]["weak"] == "weaken completeness"

    def test_paper_conversions_compose(self):
        # Cor 3.2's pipeline: impermanent-weak reaches strong.
        assert convertible("impermanent-weak", "strong")

    def test_no_free_lunch_to_perfect(self):
        # Strong accuracy cannot be manufactured by conversion (it takes
        # context assumptions: Prop 3.4 needs A1 + A5_{n-1}).
        for source in ("strong", "weak", "impermanent-weak", "atd"):
            assert not convertible(source, "perfect")

    def test_perfect_reaches_everything(self):
        for target in BY_NAME:
            assert convertible("perfect", target)

    def test_reflexive(self):
        assert convertible("weak", "weak")

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            convertible("perfect", "psychic")

    def test_weak_strong_equivalence_class(self):
        # Props 2.1 + 2.2 make {strong, weak, imp-strong, imp-weak}
        # mutually reachable.
        group = ["strong", "weak", "impermanent-strong", "impermanent-weak"]
        for a in group:
            for b in group:
                assert convertible(a, b), (a, b)


class TestAtdClassification:
    def test_atd_runs_classified(self):
        oracle = AtdRotatingOracle(rotation_period=10)
        run = run_with(oracle)
        names = satisfied_classes(run)
        assert "atd" in names
