"""Tests for the ATD oracle."""

import pytest

from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.atd import AtdRotatingOracle
from repro.detectors.properties import (
    atd_accuracy,
    strong_completeness,
    weak_accuracy,
)
from repro.model.context import make_process_ids
from repro.sim.executor import Executor
from repro.sim.failures import CrashPlan
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

PROCS = make_process_ids(4)


class TestAtdOracle:
    def atd_run(self, plan, seed=0):
        from repro.core.protocols import AtdUDCProcess

        workload = single_action("p1", tick=1) + post_crash_workload(
            PROCS, plan, actions_per_survivor=1
        )
        return Executor(
            PROCS,
            uniform_protocol(AtdUDCProcess),
            crash_plan=plan,
            workload=workload,
            detector=AtdRotatingOracle(rotation_period=10),
            seed=seed,
        ).run()

    def test_atd_accuracy_holds(self):
        for seed in range(3):
            run = self.atd_run(CrashPlan.of({"p4": 6}), seed)
            assert atd_accuracy(run)

    def test_strong_completeness_holds(self):
        run = self.atd_run(CrashPlan.of({"p4": 6}))
        assert strong_completeness(run)

    def test_weak_accuracy_violated_in_failure_free_run(self):
        run = self.atd_run(CrashPlan.none())
        assert not weak_accuracy(run)

    def test_rotation_freezes(self):
        oracle = AtdRotatingOracle(rotation_period=5, stop_after_windows=2)
        run = Executor(
            PROCS,
            uniform_protocol(StrongFDUDCProcess),
            workload=single_action("p1", tick=1),
            detector=oracle,
            seed=0,
        ).run()
        assert not run.meta["hit_tick_cap"]

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            AtdRotatingOracle(rotation_period=0)
