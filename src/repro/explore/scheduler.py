"""The bounded exhaustive explorer: every run of a context up to horizon T.

Where :class:`repro.sim.executor.Executor` *samples* one adversary
schedule per seed, the explorer *enumerates* them.  A run is produced by
a deterministic replay executor that mirrors the seeded executor's tick
semantics exactly (same per-tick event priority, same crash handling,
same channel bookkeeping) but replaces every ``random.Random`` draw with
an explicit **choice**:

* the crash pattern is a top-level branch -- one root per plan from
  :meth:`repro.explore.spec.ExploreSpec.crash_plans` (A1/A5_t, bounded
  by ``max_failures``);
* per live process per tick, when deliverable envelopes exist, a choice
  selects which in-flight message to consume -- or defers them all one
  tick (this single primitive realizes message delay *and* reordering:
  every pattern the seeded adversary's delay draws and postponements can
  produce corresponds to some assignment of defer choices);
* under ``reduction="none"`` only, per submitted copy on a lossy
  channel, a drop/accept choice clamped by the R5 fairness budget.
  Under DPOR the drop branch is *elided*: a dropped copy is
  observationally an accepted copy that is never delivered, so the
  defer choices above already cover every drop pattern, and the final
  cut's quiescence is recovered by synthesizing an R5-feasible drop
  schedule (:func:`repro.explore.reduction.drop_schedule_feasible`).

The two ``reduction`` modes differ only in how many options those
choice points offer: ``"none"`` branches once per deliverable copy and
once per drop/accept, ``"dpor"`` once per distinct ``(sender, message)``
class of deliverable copies and never on drops
(:mod:`repro.explore.reduction`).  Both enumerate the same run set.

Executions are *stateless-model-checking* style: a frontier entry is a
``(crash_plan, choice-prefix)`` pair; replaying the prefix and then
greedily taking option 0 (the most cooperative alternative: deliver the
oldest message, accept the copy) yields one complete run while
recording how many options each fresh decision had, and every untaken
alternative becomes a new frontier entry.  Exploration is exhaustive
when the frontier drains.  The statelessness is what makes the search
*shardable*: any slice of the frontier can be drained in any process
(:mod:`repro.explore.sharding`) and the leaves merged deterministically,
because every leaf is a pure function of its coordinates.

Scope: the explored nondeterminism is crash timing and channel
behaviour -- the two adversary dimensions the paper's proofs quantify
over.  Processes run at full speed (the executor's activation-skipping
is a derived behaviour: a skipped tick is a defer plus a delayed
protocol step), and stochastic detector noise is *not* enumerated; a
detector attached to an ``ExploreSpec`` is polled with a fixed-seed rng,
so it must be deterministic for completeness claims to cover it.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Deque, Iterable, Iterator, Sequence

from repro.detectors.base import GroundTruthView, NoDetector
from repro.explore.monitors import RunMonitor, Violation
from repro.explore.reduction import (
    ExploreStats,
    drop_schedule_feasible,
    group_deliverable,
)
from repro.explore.spec import ExploreSpec
from repro.model.events import (
    ActionId,
    CrashEvent,
    DoEvent,
    Event,
    InitEvent,
    Message,
    ProcessId,
    ReceiveEvent,
    SendEvent,
    SuspectEvent,
)
from repro.model.run import Run, validate_run
from repro.runtime.report import ExploreReport
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelKey, Envelope
from repro.sim.process import ProcessEnv

__all__ = ["ExecutionResult", "Leaf", "drain_frontier", "explore", "replay"]

#: A choice trace: the option index taken at each decision point, in
#: encounter order.  The empty trace is the all-cooperative run.
Trace = tuple[int, ...]

#: One search leaf: its coordinates and the run it produced.
Leaf = tuple[CrashPlan, Trace, Run]

_CACHE_DEFAULT = object()  # sentinel: "use the process-wide default cache"

#: Driver-side breadth-first widening target, per worker, before the
#: frontier is striped into shards.
_WIDEN_FACTOR = 8


class ExecutionResult:
    """What one deterministic bounded execution produced."""

    __slots__ = ("run", "taken", "option_counts")

    def __init__(
        self, run: Run, taken: Trace, option_counts: tuple[int, ...]
    ) -> None:
        self.run = run
        self.taken = taken
        self.option_counts = option_counts


class _BoundedExecution:
    """One replay: (spec, crash plan, choice trace) -> Run, deterministically.

    Mirrors :class:`repro.sim.executor.Executor` tick-for-tick with the
    rng replaced by :meth:`_choose`.  Out-of-range prefix choices are
    clamped (never produced by the frontier, but shrink candidates may
    mutate a trace into a region where fewer options exist).
    """

    def __init__(
        self,
        spec: ExploreSpec,
        plan: CrashPlan,
        prefix: Trace,
        stats: ExploreStats,
    ) -> None:
        self.spec = spec
        self.plan = plan
        self.prefix = prefix
        self.stats = stats
        self._group = spec.reduction == "dpor"
        self._elide = self._group and spec.lossy
        self.processes = spec.processes
        self.envs = {p: ProcessEnv(p, self.processes) for p in self.processes}
        self.protocols = {
            p: spec.protocol(p, self.envs[p]) for p in self.processes
        }
        self._poll = spec.detector is not None
        if self._poll:
            self.detector = (spec.detector or NoDetector()).fresh()
            self._rng = random.Random(0)  # consumed only by detector oracles
            self._detector_name = self.detector.name
        else:
            # No detector: skip oracle + rng construction on the hot path
            self.detector = None
            self._rng = None
            self._detector_name = NoDetector.name
        self._timelines: dict[ProcessId, list[tuple[int, Event]]] = {
            p: [] for p in self.processes
        }
        self._crashed: set[ProcessId] = set()
        self._actual_crash_ticks: dict[ProcessId, int] = {}
        self.truth = GroundTruthView(
            self.processes, plan.faulty, self._actual_crash_ticks
        )
        by_tick: dict[int, list[ProcessId]] = {}
        for pid in self.processes:
            planned = plan.crash_tick(pid)
            if planned is not None:
                by_tick.setdefault(max(planned, 1), []).append(pid)
        self._crash_index = {t: tuple(pids) for t, pids in by_tick.items()}
        self._pending_inits: dict[ProcessId, list[tuple[int, ActionId]]] = {
            p: [] for p in self.processes
        }
        for tick, pid, action in sorted(spec.workload):
            self._pending_inits[pid].append((tick, action))
        self._in_flight: dict[ProcessId, list[Envelope]] = {}
        self._next_uid = 0
        self._streaks: dict[ChannelKey, int] = {}
        # Drop elision: submission-ordered uid log per channel key and
        # the delivered subset, for post-hoc drop-schedule synthesis.
        self._submission_log: dict[ChannelKey, list[int]] = {}
        self._delivered_uids: set[int] = set()
        self._dropped = 0
        self._delivered = 0
        self._taken: list[int] = []
        self._counts: list[int] = []

    # -- choice plumbing ----------------------------------------------------

    def _choose(self, options: int) -> int:
        i = len(self._taken)
        if i < len(self.prefix):
            pick = min(self.prefix[i], options - 1)
        else:
            pick = 0
        self._taken.append(pick)
        self._counts.append(options)
        return pick

    @property
    def _fresh(self) -> bool:
        """Past the replayed prefix, into never-explored territory?"""
        return len(self._taken) > len(self.prefix)

    # -- channel ------------------------------------------------------------

    def _submit(
        self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int
    ) -> None:
        spec = self.spec
        if receiver in self._crashed:
            # Unobservable either way (nothing is ever delivered to a
            # crashed process): forced drop, no branch.
            self._dropped += 1
            return
        deliver_at = tick + 1
        if spec.lossy and deliver_at <= spec.horizon:
            key: ChannelKey = (sender, receiver, message)
            if self._elide:
                # Sleep-set elision: the drop branch commutes with every
                # observable transition (a dropped copy is an accepted
                # copy that is never delivered, and defer-all is always
                # available), so it is never scheduled.  Quiescence is
                # synthesized from this log at the final cut.
                self._submission_log.setdefault(key, []).append(self._next_uid)
                self.stats.drops_elided += 1
            else:
                streak = self._streaks.get(key, 0)
                if streak >= spec.max_consecutive_drops:
                    self._streaks[key] = 0  # R5: the budget forces this copy
                elif self._choose(2) == 1:
                    self._streaks[key] = streak + 1
                    self._dropped += 1
                    return
                else:
                    self._streaks[key] = 0
        # Copies that cannot be delivered within the horizon
        # (deliver_at > horizon) are accepted without a drop branch:
        # dropping them is unobservable in the run prefix, and keeping
        # them in flight lets the quiescence check see the obligation.
        self._in_flight.setdefault(receiver, []).append(
            Envelope(
                sender=sender,
                receiver=receiver,
                message=message,
                sent_at=tick,
                deliver_at=deliver_at,
                uid=self._next_uid,
            )
        )
        self._next_uid += 1

    def _pick_delivery(self, pid: ProcessId, tick: int) -> Envelope | None:
        pending = self._in_flight.get(pid)
        if not pending:
            return None
        # Appends happen in (deliver_at, uid) order (deliver_at is the
        # submit tick + 1, monotone; uids increase), and removals keep
        # relative order -- so the deliverable envelopes are exactly a
        # prefix of the list, already sorted.
        cut = 0
        total = len(pending)
        while cut < total and pending[cut].deliver_at <= tick:
            cut += 1
        if not cut:
            return None
        ready = pending[:cut] if cut < total else pending
        if self._group:
            groups = group_deliverable(ready)
            if self._fresh:
                self.stats.deliveries_collapsed += cut - len(groups)
            pick = self._choose(len(groups) + 1)
            if pick == len(groups):
                return None  # defer them all one tick (delay/reorder move)
            envelope = groups[pick][0]
            index = 0
            while pending[index] is not envelope:
                index += 1
        else:
            pick = self._choose(cut + 1)
            if pick == cut:
                return None
            envelope = ready[pick]
            index = pick
        del pending[index]
        self._delivered += 1
        if self._elide:
            self._delivered_uids.add(envelope.uid)
        return envelope

    # -- the tick loop ------------------------------------------------------

    def _due_init(self, pid: ProcessId, tick: int) -> ActionId | None:
        queue = self._pending_inits[pid]
        if queue and queue[0][0] <= tick:
            return queue.pop(0)[1]
        return None

    def _step_event(self, pid: ProcessId, tick: int) -> Event | None:
        env = self.envs[pid]
        if self._poll:
            report = self.detector.poll(pid, tick, self.truth, self._rng)
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
        protocol = self.protocols[pid]
        if isinstance(event, SendEvent):
            self._submit(event.sender, event.receiver, event.message, tick)
        elif isinstance(event, ReceiveEvent):
            protocol.on_receive(event.sender, event.message)
        elif isinstance(event, SuspectEvent):
            protocol.on_suspect(event.report)
        elif isinstance(event, InitEvent):
            protocol.on_init(event.action)
        elif isinstance(event, DoEvent):
            pass
        else:  # pragma: no cover - crash events never reach here
            raise AssertionError(f"unexpected event {event!r}")

    def _final_flags(self) -> tuple[bool, int]:
        """Classify the final cut: (quiescent, synthesized drops).

        *Quiescent*: some continuation of the adversary's choices keeps
        the run silent forever.  With drop elision, copies still in
        flight within the horizon do not refute quiescence if an
        R5-feasible schedule drops them all -- the leaf then stands for
        the old drop-branch leaf with identical timelines.
        """
        horizon = self.spec.horizon
        live = [p for p in self.processes if p not in self._crashed]
        base = (
            all(not self.envs[p].outbox for p in live)
            and all(
                not queue or pid in self._crashed
                for pid, queue in self._pending_inits.items()
            )
            and all(t <= horizon for t in self._crash_index)
            and all(not self.protocols[p].wants_to_act() for p in live)
        )
        if not base:
            return False, 0
        if all(not self._in_flight.get(p) for p in live):
            return True, 0
        if not self._elide:
            return False, 0
        synthesized = 0
        for p in live:
            for env in self._in_flight.get(p, ()):
                if env.deliver_at > horizon:
                    # Matches the unreduced semantics: beyond-horizon
                    # copies never get a drop branch, so they always
                    # stand as obligations against quiescence.
                    return False, 0
                synthesized += 1
        budget = self.spec.max_consecutive_drops
        for key, uids in self._submission_log.items():
            if key[1] in self._crashed:
                continue  # popped at the crash; nothing to synthesize
            flags = [uid in self._delivered_uids for uid in uids]
            if not drop_schedule_feasible(flags, budget):
                return False, 0
        return True, synthesized

    def execute(self) -> ExecutionResult:
        spec = self.spec
        stats = self.stats
        horizon = spec.horizon
        for pid in self.processes:
            self.protocols[pid].on_start()
        for tick in range(1, horizon + 1):
            for pid in self._crash_index.get(tick, ()):
                self._timelines[pid].append((tick, CrashEvent(pid)))
                self._crashed.add(pid)
                self._actual_crash_ticks[pid] = tick
                self.envs[pid].outbox.clear()
                self._in_flight.pop(pid, None)
            for pid in self.processes:
                if pid in self._crashed:
                    continue
                env = self.envs[pid]
                env.now = tick
                event = self._step_event(pid, tick)
                if event is None:
                    continue
                self._timelines[pid].append((tick, event))
                self._dispatch(pid, event, tick)
            stats.states_expanded += 1
        quiescent, synthesized = self._final_flags()
        run = Run(
            self.processes,
            self._timelines,
            duration=horizon,
            meta={
                "explored": True,
                "crash_plan": self.plan,
                "trace": tuple(self._taken),
                "detector": self._detector_name,
                "quiescent": quiescent,
                "dropped": self._dropped + (synthesized if quiescent else 0),
                "delivered": self._delivered,
            },
        )
        # R5's finite send threshold is only meaningful at a fixpoint: a
        # non-quiescent prefix may have every copy legitimately in flight
        # past the horizon.  One outbox event per tick bounds sends per
        # target by the horizon, so horizon + 2 can never fire.
        threshold = (
            spec.max_consecutive_drops + 2 if quiescent else horizon + 2
        )
        validate_run(run, r5_send_threshold=threshold)
        return ExecutionResult(run, tuple(self._taken), tuple(self._counts))


def replay(spec: ExploreSpec, plan: CrashPlan, trace: Trace) -> Run:
    """Re-execute one explored branch: the run is a pure function of
    ``(spec, plan, trace)``.  Out-of-range choices clamp to the last
    option, so any int tuple is a valid (if redundant) trace -- the
    property :mod:`repro.explore.shrink` relies on.
    """
    return _BoundedExecution(spec, plan, tuple(trace), ExploreStats()).execute().run


def drain_frontier(
    spec: ExploreSpec, entries: Iterable[tuple[CrashPlan, Trace]]
) -> tuple[list[Leaf], ExploreStats]:
    """Exhaustively drain a frontier slice; pure and side-effect free.

    This is the sharding work unit: leaves are pure functions of their
    coordinates, so any partition of the frontier drains to the same
    leaf multiset in any process.  No monitors, no cache, no budget --
    the driver owns those.
    """
    stats = ExploreStats(reduction=spec.reduction)
    frontier: Deque[tuple[CrashPlan, Trace]] = deque(entries)
    dfs = spec.strategy == "dfs"
    leaves: list[Leaf] = []
    while frontier:
        if len(frontier) > stats.max_frontier:
            stats.max_frontier = len(frontier)
        plan, prefix = frontier.pop() if dfs else frontier.popleft()
        result = _BoundedExecution(spec, plan, prefix, stats).execute()
        stats.executions += 1
        for i in range(len(prefix), len(result.option_counts)):
            options = result.option_counts[i]
            stats.choice_points += 1
            for alternative in range(1, options):
                frontier.append((plan, result.taken[:i] + (alternative,)))
                stats.branches_scheduled += 1
        leaves.append((plan, result.taken, result.run))
    return leaves, stats


def _rep_key(run: Run, plan_order: dict[CrashPlan, int]) -> tuple[int, int, Trace]:
    """Deterministic representative preference for value-equal runs.

    Quiescent variants win (their final cut is a fixpoint, so liveness
    verdicts are exact), then the smallest ``(plan, trace)`` coordinate.
    Being discovery-order-independent is what makes the final run list
    identical across worker counts.
    """
    meta = run.meta
    return (
        0 if meta.get("quiescent") else 1,
        plan_order.get(meta["crash_plan"], len(plan_order)),
        tuple(meta["trace"]),
    )


def explore(
    spec: ExploreSpec,
    *,
    monitors: Sequence[RunMonitor] = (),
    stop_on_violation: bool = False,
    cache: object = _CACHE_DEFAULT,
    workers: int = 1,
) -> ExploreReport:
    """Enumerate every run of ``spec``'s context up to its horizon.

    Returns an :class:`repro.runtime.report.ExploreReport` whose
    ``system()`` is *complete* (and says so: ``System.complete``) when
    exploration was exhaustive -- i.e. neither truncated by
    ``spec.max_executions`` nor short-circuited by ``stop_on_violation``.

    ``monitors`` are checked once per distinct run; violations carry the
    ``(crash_plan, trace)`` coordinates needed to replay and shrink
    them.  Only exhaustive explorations are cached (key:
    ``spec.digest()``), so a cache hit can never hide part of the run
    set; monitors re-run over cached runs.

    ``workers > 1`` shards the frontier across worker processes
    (:mod:`repro.explore.sharding`).  The run list, stats that describe
    the search space, and violations are identical for every worker
    count; with ``stop_on_violation`` the short-circuit happens at shard
    granularity, so *which* single violation is reported may differ.
    """
    from repro.runtime.cache import RunCache, default_run_cache

    resolved_cache: RunCache | None
    if cache is _CACHE_DEFAULT:
        resolved_cache = default_run_cache()
    else:
        resolved_cache = cache  # type: ignore[assignment]

    started = time.perf_counter()
    digest = spec.digest()
    if resolved_cache is not None and digest is not None:
        hit = resolved_cache.get_exploration(digest)
        if hit is not None:
            runs, stats = hit
            violations = _check_monitors(
                runs, monitors, stats, stop_on_violation=stop_on_violation
            )
            return ExploreReport(
                spec=spec,
                runs=runs,
                stats=stats,
                violations=tuple(violations),
                wall_time=time.perf_counter() - started,
                cached=True,
                context=spec.context,
            )

    plans = spec.crash_plans()
    plan_order = {plan: i for i, plan in enumerate(plans)}
    workers = max(1, workers)
    if spec.max_executions is not None or digest is None:
        workers = 1  # budgeted search is inherently serial; pools need pickling
    stats = ExploreStats(reduction=spec.reduction, workers=workers)

    # -- the search ----------------------------------------------------------
    dfs = spec.strategy == "dfs"
    unique: dict[Run, Run] = {}
    violations: list[Violation] = []
    reported: set[tuple[str, Run]] = set()

    def consume(plan: CrashPlan, trace: Trace, run: Run) -> None:
        stats.runs_enumerated += 1
        stored = unique.get(run)
        if stored is not None and _rep_key(stored, plan_order) <= _rep_key(
            run, plan_order
        ):
            return
        unique[run] = run
        if stop_on_violation:
            for monitor in monitors:
                key = (monitor.name, run)
                if key in reported:
                    continue
                stats.monitor_checks += 1
                verdict = monitor.check(run)
                if not verdict:
                    reported.add(key)
                    stats.violations += 1
                    violations.append(
                        Violation(
                            monitor=monitor.name,
                            verdict=verdict,
                            run=run,
                            crash_plan=plan,
                            trace=trace,
                        )
                    )
                    stats.stopped_on_violation = True
                    return

    frontier: Deque[tuple[CrashPlan, Trace]] = deque(
        (plan, ()) for plan in plans
    )

    def drain() -> None:
        """Exhaust the frontier: serial expansion, then shards if wide."""
        widen = workers * _WIDEN_FACTOR if workers > 1 else 0
        while frontier and not stats.stopped_on_violation:
            if (
                spec.max_executions is not None
                and stats.executions >= spec.max_executions
            ):
                stats.truncated = True
                return
            if len(frontier) > stats.max_frontier:
                stats.max_frontier = len(frontier)
            if widen and len(frontier) >= widen:
                break  # wide enough: hand the rest to the shard pool
            if widen:
                plan, prefix = frontier.popleft()  # widen breadth-first
            else:
                plan, prefix = frontier.pop() if dfs else frontier.popleft()
            result = _BoundedExecution(spec, plan, prefix, stats).execute()
            stats.executions += 1
            for i in range(len(prefix), len(result.option_counts)):
                options = result.option_counts[i]
                stats.choice_points += 1
                for alternative in range(1, options):
                    frontier.append((plan, result.taken[:i] + (alternative,)))
                    stats.branches_scheduled += 1
            consume(plan, result.taken, result.run)
        if not frontier or stats.stopped_on_violation:
            return
        from repro.explore.sharding import run_sharded

        shard_results = run_sharded(spec, list(frontier), workers)
        frontier.clear()
        try:
            for shard_leaves, shard_stats in shard_results:
                stats.merge_shard(shard_stats)
                for leaf in shard_leaves:
                    consume(*leaf)
                    if stats.stopped_on_violation:
                        return
        finally:
            shard_results.close()

    drain()

    # -- canonical ordering --------------------------------------------------
    runs_final = tuple(
        sorted(
            unique.values(),
            key=lambda r: (
                plan_order.get(r.meta["crash_plan"], len(plan_order)),
                tuple(r.meta["trace"]),
            ),
        )
    )
    stats.runs_unique = len(runs_final)

    if not stop_on_violation:
        violations = list(
            _check_monitors(
                runs_final, monitors, stats, stop_on_violation=False
            )
        )

    if (
        resolved_cache is not None
        and digest is not None
        and stats.exhaustive
        and runs_final
    ):
        resolved_cache.put_exploration(digest, runs_final, stats)
    return ExploreReport(
        spec=spec,
        runs=runs_final,
        stats=stats,
        violations=tuple(violations),
        wall_time=time.perf_counter() - started,
        cached=False,
        context=spec.context,
    )


def _check_monitors(
    runs: Sequence[Run],
    monitors: Sequence[RunMonitor],
    stats: ExploreStats,
    *,
    stop_on_violation: bool,
) -> Iterator[Violation]:
    """Monitor a canonically ordered (final or cached) run set."""
    for run in runs:
        for monitor in monitors:
            stats.monitor_checks += 1
            verdict = monitor.check(run)
            if not verdict:
                stats.violations += 1
                yield Violation(
                    monitor=monitor.name,
                    verdict=verdict,
                    run=run,
                    crash_plan=run.meta.get("crash_plan", CrashPlan.none()),
                    trace=tuple(run.meta.get("trace", ())),
                )
                if stop_on_violation:
                    return
