"""Integration tests for the executor: scheduling, crashes, quiescence,
determinism, and validation of generated runs."""

import pytest

from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.standard import PerfectOracle
from repro.model.context import ChannelSemantics, make_process_ids
from repro.model.events import (
    CrashEvent,
    Message,
    SuspectEvent,
)
from repro.model.run import validate_run
from repro.sim.executor import ExecutionConfig, Executor, execute
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig
from repro.sim.process import ProcessEnv, ProtocolProcess, uniform_protocol
from repro.workloads.generators import single_action

PROCS = make_process_ids(3)


class EchoProcess(ProtocolProcess):
    """Minimal protocol: performs on init and replies to any message."""

    def on_init(self, action):
        self.env.broadcast(Message("ping", action))
        self.env.perform(action)

    def on_receive(self, sender, message):
        if message.kind == "ping":
            self.env.send(sender, Message("pong", message.payload))


def run_echo(**kwargs):
    kwargs.setdefault("workload", single_action("p1", tick=1))
    return Executor(PROCS, uniform_protocol(EchoProcess), **kwargs).run()


class TestBasicExecution:
    def test_r1_no_events_at_time_zero(self):
        run = run_echo(seed=1)
        for p in PROCS:
            assert len(run.history(p, 0)) == 0

    def test_init_becomes_event(self):
        run = run_echo(seed=1)
        assert run.final_history("p1").inited(("p1", "a0"))

    def test_generated_run_validates(self):
        run = run_echo(seed=2)
        validate_run(run)

    def test_messages_flow(self):
        run = run_echo(seed=3)
        assert run.final_history("p2").received("p1")
        assert run.final_history("p1").received("p2")  # pong

    def test_unknown_workload_process_rejected(self):
        with pytest.raises(ValueError):
            Executor(
                PROCS,
                uniform_protocol(EchoProcess),
                workload=[(0, "p9", ("p9", "a"))],
            )

    def test_unknown_crash_process_rejected(self):
        with pytest.raises(ValueError):
            Executor(
                PROCS,
                uniform_protocol(EchoProcess),
                crash_plan=CrashPlan.of({"nope": 1}),
            )

    def test_empty_process_set_rejected(self):
        with pytest.raises(ValueError):
            Executor((), uniform_protocol(EchoProcess))


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = run_echo(seed=17)
        b = run_echo(seed=17)
        assert a == b

    def test_different_seeds_diverge(self):
        runs = {run_echo(seed=s) for s in range(6)}
        assert len(runs) > 1

    def test_protocol_runs_reproducible(self):
        kwargs = dict(
            crash_plan=CrashPlan.of({"p2": 6}),
            workload=single_action("p1", tick=1),
            detector=PerfectOracle(),
            seed=5,
        )
        a = Executor(PROCS, uniform_protocol(StrongFDUDCProcess), **kwargs).run()
        b = Executor(PROCS, uniform_protocol(StrongFDUDCProcess), **kwargs).run()
        assert a == b


class TestCrashes:
    def test_crash_is_last_event(self):
        run = run_echo(crash_plan=CrashPlan.of({"p2": 4}), seed=1)
        h = run.final_history("p2")
        assert h.crashed
        assert isinstance(h.last, CrashEvent)

    def test_crash_time_recorded(self):
        run = run_echo(crash_plan=CrashPlan.of({"p2": 4}), seed=1)
        assert run.crash_time("p2") == 4

    def test_faulty_set_matches_plan(self):
        run = run_echo(crash_plan=CrashPlan.of({"p2": 4, "p3": 9}), seed=1)
        assert run.faulty() == frozenset({"p2", "p3"})

    def test_crashed_process_appends_nothing_after(self):
        run = run_echo(crash_plan=CrashPlan.of({"p2": 4}), seed=1)
        assert all(t <= 4 for t, _ in run.timeline("p2"))

    def test_crashed_initiator_never_inits(self):
        run = run_echo(
            crash_plan=CrashPlan.of({"p1": 1}),
            workload=single_action("p1", tick=5),
            seed=1,
        )
        assert not run.final_history("p1").inited(("p1", "a0"))

    def test_crash_tick_zero_lands_at_one(self):
        # R1 pins r(0) empty, so a planned tick-0 crash lands at tick 1.
        run = run_echo(crash_plan=CrashPlan.of({"p3": 0}), seed=1)
        assert run.crash_time("p3") == 1


class TestQuiescence:
    def test_echo_quiesces_quickly(self):
        run = run_echo(seed=4)
        assert run.duration < 200
        assert not run.meta["hit_tick_cap"]

    def test_tick_cap_respected(self):
        config = ExecutionConfig(max_ticks=30)
        run = run_echo(seed=4, config=config)
        assert run.duration <= 30

    def test_final_cut_is_fixpoint(self):
        # After quiescence nothing is pending: re-validate that no
        # events occur in the last quiescence_window ticks.
        config = ExecutionConfig(quiescence_window=10)
        run = run_echo(seed=4, config=config)
        if not run.meta["hit_tick_cap"]:
            recent = [
                t
                for p in PROCS
                for t, _ in run.timeline(p)
                if t > run.duration - 10
            ]
            assert recent == []


class TestDetectorIntegration:
    def test_suspect_events_appear(self):
        run = run_echo(
            crash_plan=CrashPlan.of({"p3": 3}),
            detector=PerfectOracle(),
            seed=2,
        )
        suspects = [
            e
            for p in ("p1", "p2")
            for e in run.events(p)
            if isinstance(e, SuspectEvent)
        ]
        assert suspects
        assert all(e.report.suspects == frozenset({"p3"}) for e in suspects)

    def test_no_detector_no_suspect_events(self):
        run = run_echo(crash_plan=CrashPlan.of({"p3": 3}), seed=2)
        assert not any(
            isinstance(e, SuspectEvent) for p in PROCS for e in run.events(p)
        )

    def test_crashed_process_gets_no_reports_after_crash(self):
        run = run_echo(
            crash_plan=CrashPlan.of({"p2": 3, "p3": 8}),
            detector=PerfectOracle(),
            seed=2,
        )
        for t, e in run.timeline("p2"):
            if isinstance(e, SuspectEvent):
                assert t < 3


class TestMeta:
    def test_meta_fields(self):
        run = run_echo(seed=9, detector=PerfectOracle())
        assert run.meta["seed"] == 9
        assert run.meta["detector"] == "perfect"
        assert run.meta["channel"] == "fair_lossy"
        assert "dropped" in run.meta and "delivered" in run.meta

    def test_reliable_channel_meta(self):
        config = ExecutionConfig(
            channel=ChannelConfig(semantics=ChannelSemantics.RELIABLE)
        )
        run = run_echo(seed=9, config=config)
        assert run.meta["channel"] == "reliable"
        assert run.meta["dropped"] == 0


class TestSpecExecution:
    def spec(self, **overrides):
        from repro.runtime import RunSpec

        fields = dict(
            processes=PROCS,
            protocol=uniform_protocol(EchoProcess),
            crash_plan=CrashPlan.of({"p2": 4}),
            workload=single_action("p1", tick=1),
            detector=PerfectOracle(),
            seed=11,
        )
        fields.update(overrides)
        return RunSpec(**fields)

    def test_from_spec_equals_legacy_constructor(self):
        spec = self.spec()
        via_spec = Executor.from_spec(spec).run()
        legacy = Executor(
            PROCS,
            uniform_protocol(EchoProcess),
            crash_plan=spec.crash_plan,
            workload=spec.workload,
            detector=spec.detector,
            seed=spec.seed,
        ).run()
        assert via_spec == legacy

    def test_execute_accepts_a_spec(self):
        spec = self.spec()
        assert execute(spec) == Executor.from_spec(spec).run()

    def test_execute_spec_rejects_extra_arguments(self):
        with pytest.raises(TypeError):
            execute(self.spec(), uniform_protocol(EchoProcess))

    def test_execute_rejects_anything_but_a_spec(self):
        with pytest.raises(TypeError, match="RunSpec"):
            execute(PROCS)

    def test_crash_index_covers_multi_crash_ticks(self):
        # Two processes crashing at the same tick both land there.
        spec = self.spec(crash_plan=CrashPlan.of({"p2": 4, "p3": 4}))
        run = Executor.from_spec(spec).run()
        assert run.crash_time("p2") == 4
        assert run.crash_time("p3") == 4


class TestProcessEnv:
    def make_env(self):
        return ProcessEnv("p1", PROCS)

    def test_send_to_self_rejected(self):
        with pytest.raises(ValueError):
            self.make_env().send("p1", Message("m"))

    def test_send_to_unknown_rejected(self):
        with pytest.raises(ValueError):
            self.make_env().send("p9", Message("m"))

    def test_broadcast_excludes_self(self):
        env = self.make_env()
        env.broadcast(Message("m"))
        receivers = [e.receiver for e in env.outbox]
        assert receivers == ["p2", "p3"]

    def test_perform_idempotent(self):
        env = self.make_env()
        env.perform("a")
        env.perform("a")
        assert env.outbox_size == 1
        assert env.has_performed("a")

    def test_others(self):
        assert self.make_env().others == ("p2", "p3")
