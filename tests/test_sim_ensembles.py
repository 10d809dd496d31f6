"""Tests for ensembles: Systems built by sweeping an EnsembleSpec."""

from repro.core.protocols import NUDCProcess, StrongFDUDCProcess
from repro.detectors.standard import PerfectOracle
from repro.model.context import Context, make_process_ids
from repro.runtime import EnsembleSpec, run_ensemble
from repro.sim.failures import CrashPlan, all_crash_plans
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

PROCS = make_process_ids(3)


def system_of(spec):
    return run_ensemble(spec, cache=None).system()


class TestBuildEnsemble:
    def test_size_is_plans_times_seeds(self):
        plans = [CrashPlan.none(), CrashPlan.of({"p2": 5})]
        system = system_of(
            EnsembleSpec(
                PROCS,
                uniform_protocol(NUDCProcess),
                crash_plans=plans,
                workload=single_action("p1", tick=1),
                seeds=(0, 1, 2),
            )
        )
        assert len(system) == 6

    def test_callable_workload_receives_plan(self):
        seen = []

        def workload_for(plan):
            seen.append(plan.faulty)
            return post_crash_workload(PROCS, plan, actions_per_survivor=1)

        system_of(
            EnsembleSpec(
                PROCS,
                uniform_protocol(StrongFDUDCProcess),
                crash_plans=[CrashPlan.of({"p2": 5})],
                workload=workload_for,
                detector=PerfectOracle(),
                seeds=(0,),
            )
        )
        assert seen == [frozenset({"p2"})]

    def test_context_attached(self):
        ctx = Context.of(3, failure_bound=1)
        system = system_of(
            EnsembleSpec(
                PROCS,
                uniform_protocol(NUDCProcess),
                crash_plans=[CrashPlan.none()],
                seeds=(0,),
                context=ctx,
            )
        )
        assert system.context is ctx

    def test_runs_record_their_plans(self):
        plans = [CrashPlan.none(), CrashPlan.of({"p3": 4})]
        system = system_of(
            EnsembleSpec(
                PROCS,
                uniform_protocol(NUDCProcess),
                crash_plans=plans,
                workload=single_action("p1", tick=1),
                seeds=(0,),
            )
        )
        assert [r.meta["crash_plan"] for r in system] == plans


class TestA5tEnsemble:
    def test_covers_every_pattern(self):
        system = system_of(
            EnsembleSpec.a5t(
                PROCS,
                uniform_protocol(NUDCProcess),
                t=2,
                workload=single_action("p1", tick=1),
                seeds=(0,),
            )
        )
        expected = {p.faulty for p in all_crash_plans(PROCS, max_failures=2)}
        observed = {r.faulty() for r in system}
        assert observed == expected

    def test_faulty_sets_match_plans(self):
        system = system_of(
            EnsembleSpec.a5t(
                PROCS,
                uniform_protocol(NUDCProcess),
                t=1,
                workload=single_action("p1", tick=1),
                seeds=(0,),
            )
        )
        for run in system:
            assert run.faulty() == run.meta["crash_plan"].faulty
