"""The deterministic seeded scheduler (protocol + context + adversary -> Run).

The executor realises the paper's model of Section 2.1 operationally:

* Global time is a tick counter.  Per tick, each live process appends at
  most one event to its history (condition R2).
* The adversary -- a seeded ``random.Random`` -- controls message drops
  (within the channel's R5 fairness budget), delivery delays and order,
  the per-tick scheduling order of processes, and crash timing (via the
  externally supplied :class:`CrashPlan`; A1 failure independence holds
  because the plan is fixed before execution and applied regardless of
  protocol behaviour).
* A failure-detector oracle may record ``suspect`` events in histories,
  per Section 2.2.

Per-tick priority for the single event slot of a live process:
pending protocol event (outbox) > due ``init`` from the workload >
due detector report > message delivery > ``on_tick`` retransmissions.

Termination: runs are driven to *quiescence* -- a configurable number of
consecutive ticks in which no event is appended anywhere, all outboxes
are empty, no message is in flight to a live process, the workload is
exhausted, every planned crash has happened, and no protocol reports
pending work.  The final cut of the returned run is then a fixpoint, so
evaluating temporal formulas with the final-cut-repeats-forever
convention is faithful (DESIGN.md, substitution 1).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.detectors.base import DetectorOracle, GroundTruthView, NoDetector
from repro.model.context import ChannelSemantics, Context
from repro.model.events import (
    ActionId,
    CrashEvent,
    DoEvent,
    Event,
    InitEvent,
    ProcessId,
    ReceiveEvent,
    SendEvent,
    SuspectEvent,
)
from repro.model.run import Run, validate_run
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig, Envelope, make_channel
from repro.sim.process import ProcessEnv, ProtocolProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultInjector, FaultPlan
    from repro.runtime.spec import RunSpec

#: (tick, process, action) triples; see repro.workloads.
InitSchedule = Sequence[tuple[int, ProcessId, ActionId]]

ProtocolFactory = Callable[[ProcessId, ProcessEnv], ProtocolProcess]


@dataclass(frozen=True)
class ExecutionConfig:
    """Tunable parameters of one execution."""

    channel: ChannelConfig = field(default_factory=ChannelConfig)
    max_ticks: int = 5000
    quiescence_window: int = 15
    #: probability the adversary postpones a deliverable message one tick
    postpone_prob: float = 0.2
    #: postponement is only allowed while the envelope is younger than this
    max_postpone_age: int = 12
    #: probability a live process is activated on a given tick; the
    #: adversary models relative process speeds by skipping activations,
    #: bounded by ``max_consecutive_skips`` (scheduling fairness)
    activation_prob: float = 1.0
    max_consecutive_skips: int = 4
    validate: bool = True
    #: wall-clock budget in seconds for one execution; the executor
    #: raises :class:`RunDeadlineExceeded` mid-run when exceeded, and the
    #: backends post-check it so pre-run stalls are caught too.  None
    #: disables the check entirely (and costs nothing).
    deadline: float | None = None
    #: injected faults beyond the paper's model (repro.faults).  An empty
    #: or None plan is never wired in: runs stay bit-identical to the
    #: un-instrumented executor.
    fault_plan: "FaultPlan | None" = None

    def with_channel(self, **kwargs) -> "ExecutionConfig":
        """A copy of this config with channel parameters replaced."""
        return replace(self, channel=replace(self.channel, **kwargs))


class RunDeadlineExceeded(RuntimeError):
    """An execution overran its ``ExecutionConfig.deadline``.

    Raised cooperatively from the tick loop (and post-hoc by the
    backends when a run stalls before the loop starts).  The hardened
    backends convert it into a structured ``FailedRun`` of kind
    ``"deadline"`` instead of aborting the batch.
    """


class Executor:
    """Executes one run of a joint protocol under one adversary seed."""

    def __init__(
        self,
        processes: Iterable[ProcessId],
        protocol_factory: ProtocolFactory,
        *,
        crash_plan: CrashPlan = CrashPlan.none(),
        workload: InitSchedule = (),
        detector: DetectorOracle | None = None,
        config: ExecutionConfig | None = None,
        seed: int = 0,
        context: Context | None = None,
    ) -> None:
        self.processes = tuple(processes)
        if not self.processes:
            raise ValueError("need at least one process")
        unknown = crash_plan.faulty - set(self.processes)
        if unknown:
            raise ValueError(f"crash plan names unknown processes {sorted(unknown)}")
        self.config = config or ExecutionConfig()
        self.rng = random.Random(seed)
        self.seed = seed
        self.crash_plan = crash_plan
        self.context = context

        # Fault injection (repro.faults): an empty/None plan is never
        # wired in at all, keeping un-faulted runs bit-identical.
        plan = self.config.fault_plan
        self._injector: "FaultInjector | None" = None
        if plan is not None and not plan.is_empty:
            self._injector = plan.injector(seed)

        base_detector = detector or NoDetector()
        if (
            self._injector is not None
            and plan is not None
            and plan.detector is not None
            and plan.detector.active
        ):
            from repro.faults.detector import FaultyDetectorOracle

            base_detector = FaultyDetectorOracle(
                base_detector, plan.detector, injector=self._injector
            )
        self.detector = base_detector.fresh()

        self.channel = make_channel(self.config.channel, self.rng)
        if self._injector is not None and self._injector.channel_faults_active:
            from repro.faults.channel import FaultyChannel

            self.channel = FaultyChannel(self.channel, self._injector)
        self.envs = {p: ProcessEnv(p, self.processes) for p in self.processes}
        self.protocols = {
            p: protocol_factory(p, self.envs[p]) for p in self.processes
        }
        self._actual_crash_ticks: dict[ProcessId, int] = {}
        self.truth = GroundTruthView(
            self.processes, crash_plan.faulty, self._actual_crash_ticks
        )
        self._timelines: dict[ProcessId, list[tuple[int, Event]]] = {
            p: [] for p in self.processes
        }
        self._crashed: set[ProcessId] = set()
        # tick -> processes whose planned crash lands on that tick (ticks
        # start at 1, so a plan's tick 0 lands on the first tick).
        by_tick: dict[int, list[ProcessId]] = {}
        for pid in self.processes:
            planned = crash_plan.crash_tick(pid)
            if planned is not None:
                by_tick.setdefault(max(planned, 1), []).append(pid)
        self._crash_index: dict[int, tuple[ProcessId, ...]] = {
            t: tuple(pids) for t, pids in by_tick.items()
        }
        self._last_crash_tick = max(self._crash_index, default=0)
        self._skip_streak: dict[ProcessId, int] = {p: 0 for p in self.processes}
        # Per-process queues of pending inits, in schedule order.
        self._pending_inits: dict[ProcessId, list[tuple[int, ActionId]]] = {
            p: [] for p in self.processes
        }
        for tick, pid, action in sorted(workload):
            if pid not in self._pending_inits:
                raise ValueError(f"workload names unknown process {pid!r}")
            self._pending_inits[pid].append((tick, action))

    @classmethod
    def from_spec(cls, spec: "RunSpec") -> "Executor":
        """Build an executor from a declarative :class:`repro.runtime.RunSpec`.

        This is the canonical constructor; the keyword form builds an
        executor directly from its parts.
        """
        return cls(
            spec.processes,
            spec.protocol,
            crash_plan=spec.crash_plan,
            workload=spec.workload,
            detector=spec.detector,
            config=spec.config,
            seed=spec.seed,
            context=spec.context,
        )

    # -- helpers -------------------------------------------------------------

    def _live(self) -> list[ProcessId]:
        return [p for p in self.processes if p not in self._crashed]

    def _append(self, pid: ProcessId, tick: int, event: Event) -> None:
        self._timelines[pid].append((tick, event))

    def _due_init(self, pid: ProcessId, tick: int) -> ActionId | None:
        queue = self._pending_inits[pid]
        if queue and queue[0][0] <= tick:
            return queue.pop(0)[1]
        return None

    def _pick_delivery(self, pid: ProcessId, tick: int) -> Envelope | None:
        ready = self.channel.deliverable(pid, tick)
        if not ready:
            return None
        envelope = self.rng.choice(ready)
        age = tick - envelope.sent_at
        if (
            age <= self.config.max_postpone_age
            and self.rng.random() < self.config.postpone_prob
        ):
            return None
        self.channel.consume(envelope)
        return envelope

    def _workload_exhausted(self) -> bool:
        return all(
            not queue or pid in self._crashed
            for pid, queue in self._pending_inits.items()
        )

    def _crashes_done(self, tick: int) -> bool:
        """Every planned crash has landed at or before ``tick``."""
        return tick >= self._last_crash_tick

    # -- main loop ----------------------------------------------------------------

    def run(self) -> Run:
        """Execute to quiescence (or the tick cap) and return the run."""
        for pid in self.processes:
            self.protocols[pid].on_start()

        tick = 1  # r(0) is the empty cut (R1); the first events land at time 1
        quiet_streak = 0
        cfg = self.config
        deadline = cfg.deadline
        started_at = time.perf_counter() if deadline is not None else 0.0
        while tick < cfg.max_ticks:
            if (
                deadline is not None
                and time.perf_counter() - started_at > deadline
            ):
                raise RunDeadlineExceeded(
                    f"run (seed={self.seed}) exceeded its {deadline:.3f}s "
                    f"deadline at tick {tick}"
                )
            appended_this_tick = False

            # 1. planned crashes land first; a crash occupies the tick.
            for pid in self._crash_index.get(tick, ()):
                self._append(pid, tick, CrashEvent(pid))
                self._crashed.add(pid)
                self._actual_crash_ticks[pid] = tick
                self.envs[pid].outbox.clear()
                self.channel.discard_for(pid)
                appended_this_tick = True

            # 2. live processes take their steps in adversary order; the
            # adversary may skip a process (model of relative speeds),
            # bounded by the scheduling-fairness budget.
            order = self._live()
            self.rng.shuffle(order)
            for pid in order:
                if self._injector is not None and self._injector.stalled(pid, tick):
                    continue  # injected stall: no step, no rng consumption
                if (
                    cfg.activation_prob < 1.0
                    and self._skip_streak[pid] < cfg.max_consecutive_skips
                    and self.rng.random() >= cfg.activation_prob
                ):
                    self._skip_streak[pid] += 1
                    continue
                self._skip_streak[pid] = 0
                env = self.envs[pid]
                env.now = tick
                event = self._step_event(pid, tick)
                if event is None:
                    continue
                appended_this_tick = True
                self._append(pid, tick, event)
                self._dispatch(pid, event, tick)

            # 3. quiescence detection.
            quiet = (
                not appended_this_tick
                and all(not self.envs[p].outbox for p in self._live())
                and self.channel.in_flight_to(self._live()) == 0
                and self._workload_exhausted()
                and self._crashes_done(tick)
                and all(
                    not self.protocols[p].wants_to_act() for p in self._live()
                )
            )
            quiet_streak = quiet_streak + 1 if quiet else 0
            if quiet_streak >= cfg.quiescence_window:
                break
            tick += 1

        meta = {
            "seed": self.seed,
            "crash_plan": self.crash_plan,
            "detector": self.detector.name,
            "channel": cfg.channel.semantics.value,
            "dropped": self.channel.dropped_count,
            "delivered": self.channel.delivered_count,
            "hit_tick_cap": tick >= cfg.max_ticks,
        }
        channel_faults = (
            self._injector is not None and self._injector.channel_faults_active
        )
        if self._injector is not None:
            meta["faults"] = self._injector.summary()
        run = Run(
            self.processes,
            self._timelines,
            duration=tick,
            meta=meta,
        )
        if (
            cfg.validate
            and not channel_faults  # duplicates break R3, extra drops break R5
            and cfg.channel.semantics is not ChannelSemantics.UNFAIR
        ):
            # The finite R5 checker flags persistent unreceived sends; a
            # sender may legitimately stop just under the channel's
            # drop budget, so the threshold must exceed it.  Beyond the
            # budget a copy is force-accepted into flight, and the
            # quiescence condition guarantees its delivery.
            validate_run(
                run,
                r5_send_threshold=cfg.channel.max_consecutive_drops + 2,
            )
        return run

    def _step_event(self, pid: ProcessId, tick: int) -> Event | None:
        """Choose the one event ``pid`` appends this tick, per the priority order.

        Detector reports come first: the oracle emits autonomously
        (Section 2.2's "automatically emits a suspicion") and a process
        cannot starve its own detector with a long burst of sends.
        """
        env = self.envs[pid]
        report = self.detector.poll(pid, tick, self.truth, self.rng)
        if report is not None:
            return SuspectEvent(pid, report)

        if env.outbox:
            return env.outbox.popleft()

        action = self._due_init(pid, tick)
        if action is not None:
            return InitEvent(pid, action)

        envelope = self._pick_delivery(pid, tick)
        if envelope is not None:
            return ReceiveEvent(pid, envelope.sender, envelope.message)

        self.protocols[pid].on_tick()
        if env.outbox:
            return env.outbox.popleft()
        return None

    def _dispatch(self, pid: ProcessId, event: Event, tick: int) -> None:
        """Execute the side effects of an appended event."""
        protocol = self.protocols[pid]
        if isinstance(event, SendEvent):
            self.channel.submit(event.sender, event.receiver, event.message, tick)
        elif isinstance(event, ReceiveEvent):
            protocol.on_receive(event.sender, event.message)
        elif isinstance(event, SuspectEvent):
            protocol.on_suspect(event.report)
        elif isinstance(event, InitEvent):
            protocol.on_init(event.action)
        elif isinstance(event, DoEvent):
            pass  # the do event has no further side effects
        else:  # pragma: no cover - crash events never reach here
            raise AssertionError(f"unexpected event {event!r}")


def execute(spec: "RunSpec") -> Run:
    """One-shot execution of a :class:`repro.runtime.RunSpec`.

    Exactly ``Executor.from_spec(spec).run()``; anything other than a
    ``RunSpec`` raises ``TypeError`` (build the executor directly with
    :class:`Executor` for the keyword form).
    """
    from repro.runtime.spec import RunSpec  # local: avoids an import cycle

    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"execute() takes a repro.runtime.RunSpec, got {type(spec).__name__}"
        )
    return Executor.from_spec(spec).run()
