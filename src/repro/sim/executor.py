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
due detector report > pending protocol event (outbox) > due ``init``
from the workload > message delivery > ``on_tick`` retransmissions.

One tick (:meth:`Executor._tick`) lands the tick's crashes and then gives
each live process its step, feeding every appended event to the run's
:class:`repro.model.run.RunCheck`.  The bounded explorer
(:mod:`repro.explore.scheduler`) plays the same tick in a subclass that
takes the adversary's decisions from an enumerated choice trace.

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
    Event,
    InitEvent,
    Message,
    ProcessId,
    ReceiveEvent,
    SendEvent,
    SuspectEvent,
)
from repro.model.run import Run, RunCheck, validate_run
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig, Envelope, make_channel
from repro.sim.process import ProcessEnv, ProtocolProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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

    _crash_index: dict[int, tuple[ProcessId, ...]]
    _receives: dict[tuple[ProcessId, ProcessId, Message], ReceiveEvent]

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
        self.detector = (detector or NoDetector()).fresh()
        self.channel = make_channel(self.config.channel, self.rng)
        self.envs = {p: ProcessEnv(p, self.processes) for p in self.processes}
        self.protocols = {
            p: protocol_factory(p, self.envs[p]) for p in self.processes
        }
        # NoDetector never reports and never draws: skip the poll.
        self._poll = type(self.detector) is not NoDetector
        self._skips = self.config.activation_prob < 1.0
        self._skip_streak: dict[ProcessId, int] = {p: 0 for p in self.processes}
        self._plan_state(crash_plan)
        self._start_state(workload)

    def _plan_state(
        self, crash_plan: CrashPlan, same_plan: Executor | None = None
    ) -> None:
        """What the crash plan fixes: the plan's crashes indexed by the
        tick they land on, one ``ReceiveEvent`` per (receiver, sender,
        message) delivered so far, and the detectors' view of the crashes
        that have landed (empty until one does).  ``same_plan``, an
        execution of the same plan, lends its index and its events; the
        view is always new, since crashes land into it."""
        self._actual_crash_ticks: dict[ProcessId, int] = {}
        self.truth = GroundTruthView(
            self.processes, crash_plan.faulty, self._actual_crash_ticks
        )
        if same_plan is not None:
            self._crash_index = same_plan._crash_index
            self._last_crash_tick = same_plan._last_crash_tick
            self._receives = same_plan._receives
            return
        # tick -> processes whose planned crash lands on that tick (ticks
        # start at 1, so a plan's tick 0 lands on the first tick).
        by_tick: dict[int, list[ProcessId]] = {}
        for pid in self.processes:
            planned = crash_plan.crash_tick(pid)
            if planned is not None:
                by_tick.setdefault(max(planned, 1), []).append(pid)
        self._crash_index = {t: tuple(pids) for t, pids in by_tick.items()}
        self._last_crash_tick = max(self._crash_index, default=0)
        self._receives = {}

    def _start_state(self, workload: InitSchedule) -> None:
        """The rest of the state before tick 1: empty timelines and their
        run check, every process live, and the workload queued per
        process."""
        self._timelines: dict[ProcessId, list[tuple[int, Event]]] = {
            p: [] for p in self.processes
        }
        self._check = RunCheck(self.processes)
        self._crashed: set[ProcessId] = set()
        # The live processes in process order, updated as crashes land.
        self._live: list[ProcessId] = list(self.processes)
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

    def _settled(self, tick: int) -> bool:
        """Nothing is left to do at ``tick`` but deliver what is in flight:
        live outboxes are empty, the workload is exhausted, every planned
        crash has landed, and no live protocol wants to act."""
        live = self._live
        return (
            all(not self.envs[p].outbox for p in live)
            and all(
                not queue or pid in self._crashed
                for pid, queue in self._pending_inits.items()
            )
            and tick >= self._last_crash_tick
            and all(not self.protocols[p].wants_to_act() for p in live)
        )

    def _order(self) -> list[ProcessId]:
        """The order the live processes step in this tick: the adversary's."""
        order = self._live.copy()
        self.rng.shuffle(order)
        return order

    # -- main loop ----------------------------------------------------------------

    def _tick(self, tick: int) -> bool:
        """Play one tick; True iff some event was appended.  Every
        appended event also goes to the run check, as it is appended."""
        appended = False
        timelines = self._timelines
        envs = self.envs
        protocols = self.protocols
        channel = self.channel
        check = self._check
        pending_inits = self._pending_inits
        receives = self._receives

        # 1. planned crashes land first; a crash occupies the tick.
        for pid in self._crash_index.get(tick, ()):
            crash = CrashEvent(pid)
            timelines[pid].append((tick, crash))
            check.append(pid, tick, crash)
            self._crashed.add(pid)
            self._live.remove(pid)
            self._actual_crash_ticks[pid] = tick
            envs[pid].outbox.clear()
            channel.discard_for(pid)
            appended = True

        # 2. live processes take their steps in the tick's order; the
        # adversary may skip a process (model of relative speeds),
        # bounded by the scheduling-fairness budget.
        skips = self._skips
        poll = self._poll
        for pid in self._order():
            if skips:
                cfg = self.config
                streak = self._skip_streak
                if (
                    streak[pid] < cfg.max_consecutive_skips
                    and self.rng.random() >= cfg.activation_prob
                ):
                    streak[pid] += 1
                    continue
                streak[pid] = 0
            env = envs[pid]
            env.now = tick
            outbox = env.outbox
            # The step's one event, by priority.  Detector reports come
            # first: the oracle emits autonomously (Section 2.2's
            # "automatically emits a suspicion") and a process cannot
            # starve its own detector with a long burst of sends.
            if poll and (
                report := self.detector.poll(pid, tick, self.truth, self.rng)
            ) is not None:
                event = SuspectEvent(pid, report)
            elif outbox:
                event = outbox.popleft()
            elif (inits := pending_inits[pid]) and inits[0][0] <= tick:
                event = InitEvent(pid, inits.pop(0)[1])
            elif (envelope := self._pick_delivery(pid, tick)) is not None:
                key = (pid, envelope.sender, envelope.message)
                event = receives.get(key)
                if event is None:
                    event = receives[key] = ReceiveEvent(*key)
            else:
                protocols[pid].on_tick()
                if not outbox:
                    continue
                event = outbox.popleft()
            appended = True
            timelines[pid].append((tick, event))
            check.append(pid, tick, event)
            # The event's side effects; a do event has none.
            kind = type(event)
            if kind is SendEvent:
                channel.submit(event.sender, event.receiver, event.message, tick)
            elif kind is ReceiveEvent:
                protocols[pid].on_receive(event.sender, event.message)
            elif kind is SuspectEvent:
                protocols[pid].on_suspect(event.report)
            elif kind is InitEvent:
                protocols[pid].on_init(event.action)
        check.end_tick()
        return appended

    def run(self) -> Run:
        """Execute to quiescence (or the tick cap) and return the run."""
        for pid in self.processes:
            self.protocols[pid].on_start()

        tick = 1  # r(0) is the empty cut (R1); the first events land at time 1
        quiet_streak = 0
        cfg = self.config
        deadline = cfg.deadline
        started_at = time.perf_counter() if deadline is not None else 0.0
        channel = self.channel
        live = self._live
        while tick < cfg.max_ticks:
            if (
                deadline is not None
                and time.perf_counter() - started_at > deadline
            ):
                raise RunDeadlineExceeded(
                    f"run (seed={self.seed}) exceeded its {deadline:.3f}s "
                    f"deadline at tick {tick}"
                )
            appended = self._tick(tick)
            quiet = (
                not appended
                and channel.in_flight_to(live) == 0
                and self._settled(tick)
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
        run = Run(
            self.processes,
            self._timelines,
            duration=tick,
            meta=meta,
        )
        if cfg.validate and cfg.channel.semantics is not ChannelSemantics.UNFAIR:
            # The finite R5 checker flags persistent unreceived sends; a
            # sender may legitimately stop just under the channel's
            # drop budget, so the threshold must exceed it.  Beyond the
            # budget a copy is force-accepted into flight, and the
            # quiescence condition guarantees its delivery.  The tick
            # loop has checked every event; validate_run, the reference,
            # only says why a flagged run fails.
            threshold = cfg.channel.max_consecutive_drops + 2
            if not self._check.passes(threshold):
                validate_run(run, r5_send_threshold=threshold)
        return run


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
