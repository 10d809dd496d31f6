"""Long mixed-scenario integration tests: many actions, staggered
crashes, layered wrappers, partitions -- everything at once."""

from repro.core.properties import actions_in, udc_holds
from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.conversions import with_gossip
from repro.detectors.standard import ImpermanentWeakOracle, PerfectOracle
from repro.harness.stats import RunStats, detection_latency
from repro.model.context import make_process_ids
from repro.model.serialize import run_from_dict, run_to_dict
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig, Partition
from repro.sim.process import uniform_protocol
from repro.workloads.generators import action_id, stream_workload

PROCS = make_process_ids(5)


def churn_run(seed=0):
    """Ten streamed actions, two staggered crashes, lossy channel."""
    workload = stream_workload(PROCS, count=10, spacing=7)
    # Drop actions of the processes that crash before their init.
    plan = CrashPlan.of({"p2": 25, "p5": 50})
    workload = [
        (t, p, a)
        for t, p, a in workload
        if plan.crash_tick(p) is None or t < plan.crash_tick(p)
    ]
    return (
        Executor(
            PROCS,
            uniform_protocol(StrongFDUDCProcess),
            crash_plan=plan,
            workload=workload,
            detector=PerfectOracle(),
            seed=seed,
        ).run(),
        workload,
    )


class TestChurn:
    def test_udc_for_every_action(self):
        for seed in range(3):
            run, workload = churn_run(seed)
            assert len(actions_in(run)) >= 6
            verdict = udc_holds(run)
            assert verdict, verdict.witness

    def test_stats_sane(self):
        run, _ = churn_run()
        stats = RunStats.of(run)
        assert stats.faulty == 2
        assert stats.do_events >= 6 * 3  # each action done by >= 3 survivors
        assert 0 < stats.delivery_ratio <= 1

    def test_detection_latencies_bounded(self):
        run, _ = churn_run()
        lat = detection_latency(run)
        assert set(lat) == {"p2", "p5"}
        assert all(v < 20 for v in lat.values())

    def test_serialization_round_trip_at_scale(self):
        run, _ = churn_run()
        assert run_from_dict(run_to_dict(run)) == run


class TestLayeredWrappers:
    def test_partition_plus_crash_plus_churn(self):
        partitions = (Partition(10, 35, frozenset({"p1", "p2"})),)
        config = ExecutionConfig(
            channel=ChannelConfig(drop_prob=0.25, partitions=partitions),
            validate=False,
        )
        workload = [
            (1, "p1", action_id("p1", "x0")),
            (15, "p3", action_id("p3", "x1")),  # initiated mid-partition
            (45, "p4", action_id("p4", "x2")),  # after healing
        ]
        run = Executor(
            PROCS,
            uniform_protocol(StrongFDUDCProcess, resend_rounds=80),
            crash_plan=CrashPlan.of({"p5": 20}),
            workload=workload,
            detector=PerfectOracle(),
            config=config,
            seed=1,
        ).run()
        verdict = udc_holds(run)
        assert verdict, verdict.witness

    def test_slow_scheduling_with_everything(self):
        config = ExecutionConfig(activation_prob=0.6, max_consecutive_skips=4)
        run = Executor(
            PROCS,
            with_gossip(uniform_protocol(StrongFDUDCProcess)),
            crash_plan=CrashPlan.of({"p3": 12}),
            workload=stream_workload(PROCS, count=4, spacing=10),
            detector=ImpermanentWeakOracle(retract_after=5),
            config=config,
            seed=2,
        ).run()
        verdict = udc_holds(run)
        assert verdict, verdict.witness
