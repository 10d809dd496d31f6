"""The bounded exhaustive explorer: every run of a context up to horizon T.

Where :class:`repro.sim.executor.Executor` *samples* one adversary
schedule per seed, the explorer *enumerates* them.  A run is produced by
an ``Executor`` subclass that plays the executor's own tick (same crash
landing, same per-tick event priority) but takes every adversary
decision as an explicit **choice** instead of a ``random.Random`` draw:

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

A frontier entry is a ``(crash_plan, choice-prefix)`` pair; executing
the prefix and then greedily taking option 0 (the most cooperative
alternative: deliver the oldest message, accept the copy) yields one
complete run while recording how many options each fresh decision had,
and every untaken alternative becomes a new frontier entry.  The
depth-first drain resumes an entry from a snapshot taken at the start
of the tick that holds its last choice instead of replaying the prefix
from tick 1.  Every leaf is still a pure function of its coordinates:
:func:`replay` re-executes it from tick 1 and is the reference the
drain is tested against.

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
from typing import Deque, Iterator, NamedTuple, Sequence

from repro.detectors.base import NoDetector
from repro.explore.monitors import RunMonitor, Violation
from repro.explore.reduction import (
    ExploreStats,
    drop_schedule_feasible,
    group_deliverable,
)
from repro.explore.spec import ExploreSpec
from repro.model.events import ActionId, Event, Message, ProcessId
from repro.model.run import Run, RunCheck, RunCheckState, validate_run
from repro.runtime.report import ExploreReport
from repro.sim.executor import Executor
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


class ExecutionResult:
    """What one deterministic bounded execution produced."""

    __slots__ = ("run", "taken", "option_counts")

    def __init__(
        self, run: Run, taken: Trace, option_counts: tuple[int, ...]
    ) -> None:
        self.run = run
        self.taken = taken
        self.option_counts = option_counts


#: One process in a snapshot: timeline, outbox, performed, now, protocol, inits.
_ProcessState = tuple[tuple[tuple[int, Event], ...], tuple[Event, ...],
                      frozenset[ActionId], int, object, tuple[tuple[int, ActionId], ...]]


class _Snapshot(NamedTuple):
    """A bounded execution's mutable state at the start of one tick; immutable,
    so branches that resume from it share no containers."""

    tick: int
    processes: tuple[_ProcessState, ...]  # in spec.processes order
    crash_ticks: tuple[tuple[ProcessId, int], ...]
    in_flight: tuple[tuple[ProcessId, tuple[Envelope, ...]], ...]
    streaks: tuple[tuple[ChannelKey, int], ...]
    submissions: tuple[tuple[ChannelKey, tuple[int, ...]], ...]
    delivered_uids: frozenset[int]
    counters: tuple[int, int, int, int]  # next uid, dropped, delivered, elided
    taken: Trace
    counts: tuple[int, ...]
    check: RunCheckState


#: A frontier entry: crash plan, choice prefix, and the snapshot of the tick
#: that holds the prefix's last choice (None: replay from tick 1).
_Entry = tuple[CrashPlan, Trace, _Snapshot | None]


class _BoundedExecution(Executor):
    """One replay: (spec, crash plan, choice trace) -> Run, deterministically.

    Plays :class:`repro.sim.executor.Executor`'s tick with every adversary
    decision taken by :meth:`_choose` instead of an rng: processes step
    in a fixed order, the execution is its own channel (:meth:`submit`,
    :meth:`discard_for`, :meth:`_pick_delivery`), and the loop stops at
    the horizon.  Out-of-range prefix choices are clamped (never
    produced by the frontier, but shrink candidates may mutate a trace
    into a region where fewer options exist).

    From a ``snapshot`` it resumes at the snapshot's tick, in ``reuse``'s
    envs and protocols if given; a ``reuse`` of the same crash plan also
    lends its crash index and receive events.  With ``save`` it records
    ``(index of the tick's first choice, snapshot)`` in ``marks`` for
    every tick -- unless the spec has a detector (oracle and rng are not
    captured).
    """

    # No skipped activations: a skipped tick is a defer plus a delayed
    # step, which the delivery choices already cover.
    _skips = False

    def __init__(
        self,
        spec: ExploreSpec,
        plan: CrashPlan,
        prefix: Trace,
        stats: ExploreStats,
        snapshot: _Snapshot | None = None,
        save: bool = False,
        reuse: _BoundedExecution | None = None,
    ) -> None:
        # Executor.__init__ is not called: it builds a channel, an rng and
        # fresh protocols, where a resumed execution reuses envs and
        # protocols and only a detector draws from an rng.
        self.spec = spec
        self.crash_plan = plan
        self.prefix = prefix
        self.stats = stats
        self._group = spec.reduction == "dpor"
        self._elide = self._group and spec.lossy
        self.processes = spec.processes
        if snapshot is None or reuse is None:
            self.envs = {p: ProcessEnv(p, self.processes) for p in self.processes}
            self.protocols = {
                p: spec.protocol(p, self.envs[p]) for p in self.processes
            }
        else:  # restoring overwrites their state; only send memos carry over
            self.envs = reuse.envs
            self.protocols = reuse.protocols
        detector = spec.detector
        self._poll = detector is not None
        if detector is not None:
            self.detector = detector.fresh()
            self.rng = random.Random(0)  # consumed only by detector oracles
        self._save = save and not self._poll
        self.marks: list[tuple[int, _Snapshot]] = []
        self._plan_state(
            plan, reuse if reuse is not None and reuse.crash_plan is plan else None
        )
        self._in_flight: dict[ProcessId, list[Envelope]] = {}
        self._next_uid = 0
        self._streaks: dict[ChannelKey, int] = {}
        # Drop elision: submission-ordered uid log per channel key and
        # the delivered subset, for post-hoc drop-schedule synthesis.
        self._submission_log: dict[ChannelKey, list[int]] = {}
        self._delivered_uids: set[int] = set()
        self._dropped = 0
        self._delivered = 0
        self._elided = 0
        self._taken: list[int] = []
        self._counts: list[int] = []
        self._resumed = snapshot
        if snapshot is None:
            self._start_state(spec.workload)
        else:
            self._restore(snapshot)

    @property
    def channel(self) -> _BoundedExecution:  # type: ignore[override]
        """The execution is its own channel.  A property, not an attribute:
        ``self.channel = self`` would keep every execution in a reference
        cycle until the cyclic collector runs."""
        return self

    def _order(self) -> list[ProcessId]:
        """Process order, fixed: it sets the envelope uids, and with them
        the choice indices and traces."""
        return self._live

    # -- snapshots ------------------------------------------------------------

    def _snapshot(self, tick: int) -> _Snapshot | None:
        """The state at the start of ``tick`` (None: a protocol opted out)."""
        processes: list[_ProcessState] = []
        for p in self.processes:
            state = self.protocols[p].snapshot()
            if state is None:
                return None
            env = self.envs[p]
            processes.append((
                tuple(self._timelines[p]), tuple(env.outbox),
                frozenset(env._performed), env.now, state,
                tuple(self._pending_inits[p]),
            ))
        return _Snapshot(
            tick,
            tuple(processes),
            tuple(self._actual_crash_ticks.items()),
            tuple((p, tuple(queue)) for p, queue in self._in_flight.items()),
            tuple(self._streaks.items()),
            tuple((key, tuple(uids)) for key, uids in self._submission_log.items()),
            frozenset(self._delivered_uids),
            (self._next_uid, self._dropped, self._delivered, self._elided),
            tuple(self._taken),
            tuple(self._counts),
            self._check.state(),
        )

    def _restore(self, snapshot: _Snapshot) -> None:
        """Build the state at the start of ``snapshot``'s tick from it: in
        place of :meth:`_start_state`, on top of :meth:`_plan_state`."""
        timelines: dict[ProcessId, list[tuple[int, Event]]] = {}
        pending: dict[ProcessId, list[tuple[int, ActionId]]] = {}
        for p, (timeline, outbox, performed, now, state, inits) in zip(
            self.processes, snapshot.processes
        ):
            timelines[p] = list(timeline)
            env = self.envs[p]
            env.outbox, env._performed, env.now = deque(outbox), set(performed), now
            self.protocols[p].restore(state)
            pending[p] = list(inits)
        self._timelines, self._pending_inits = timelines, pending
        self._check = RunCheck(self.processes, snapshot.check)
        self._actual_crash_ticks.update(snapshot.crash_ticks)
        self._crashed = set(self._actual_crash_ticks)
        self._live = [p for p in self.processes if p not in self._crashed]
        self._in_flight = {p: list(queue) for p, queue in snapshot.in_flight}
        self._streaks = dict(snapshot.streaks)
        self._submission_log = {key: list(uids) for key, uids in snapshot.submissions}
        self._delivered_uids = set(snapshot.delivered_uids)
        self._next_uid, self._dropped, self._delivered, self._elided = snapshot.counters
        self._taken = list(snapshot.taken)
        self._counts = list(snapshot.counts)
        self.stats.states_expanded += snapshot.tick - 1  # ticks per leaf

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

    # -- channel ------------------------------------------------------------

    def submit(
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
                self._elided += 1
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
            Envelope(sender, receiver, message, tick, deliver_at, self._next_uid)
        )
        self._next_uid += 1

    def discard_for(self, receiver: ProcessId) -> None:
        self._in_flight.pop(receiver, None)

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
            if len(self._taken) >= len(self.prefix):  # the next choice is fresh
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

    # -- the bounded run ----------------------------------------------------

    def _final_flags(self) -> tuple[bool, int]:
        """Classify the final cut: (quiescent, synthesized drops).

        *Quiescent*: some continuation of the adversary's choices keeps
        the run silent forever.  With drop elision, copies still in
        flight within the horizon do not refute quiescence if an
        R5-feasible schedule drops them all -- the leaf then stands for
        the old drop-branch leaf with identical timelines.
        """
        horizon = self.spec.horizon
        live = self._live
        if not self._settled(horizon):
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

    def push_alternatives(
        self, result: ExecutionResult, frontier: Deque[_Entry]
    ) -> None:
        """Count this execution and push one entry per untaken alternative
        of its fresh choices, with the snapshot of the tick holding it."""
        stats = self.stats
        stats.executions += 1
        taken, counts, marks = result.taken, result.option_counts, self.marks
        mark = -1
        for i in range(len(self.prefix), len(counts)):
            # Choice i is in the last tick to start at or before it.
            while mark + 1 < len(marks) and marks[mark + 1][0] <= i:
                mark += 1
            saved = marks[mark][1] if mark >= 0 else None
            stats.choice_points += 1
            for alternative in range(1, counts[i]):
                frontier.append((self.crash_plan, taken[:i] + (alternative,), saved))
                stats.branches_scheduled += 1

    def execute(self) -> ExecutionResult:
        spec = self.spec
        stats = self.stats
        horizon = spec.horizon
        resumed = self._resumed
        first = 1 if resumed is None else resumed.tick
        if resumed is None:
            for pid in self.processes:
                self.protocols[pid].on_start()
        for tick in range(first, horizon + 1):
            if self._save:  # the resumed tick keeps the snapshot it resumed from
                snapshot = resumed if resumed and tick == first else self._snapshot(tick)
                if snapshot is None:
                    self._save = False  # a protocol opted out: replay instead
                else:
                    self.marks.append((len(self._taken), snapshot))
            self._tick(tick)
            stats.states_expanded += 1
        stats.drops_elided += self._elided
        quiescent, synthesized = self._final_flags()
        run = Run(
            self.processes,
            self._timelines,
            duration=horizon,
            meta={
                "explored": True,
                "crash_plan": self.crash_plan,
                "trace": tuple(self._taken),
                "detector": self.detector.name if self._poll else NoDetector.name,
                "quiescent": quiescent,
                "dropped": self._dropped + (synthesized if quiescent else 0),
                "delivered": self._delivered,
            },
        )
        # R5's finite send threshold is only meaningful at a fixpoint: a
        # non-quiescent prefix may have every copy legitimately in flight
        # past the horizon.  One outbox event per tick bounds sends per
        # target by the horizon, so horizon + 2 can never fire.  The
        # ticks played here (and, through the snapshot, those before
        # them) were checked as they ran; validate_run says why a
        # flagged run fails.
        threshold = (
            spec.max_consecutive_drops + 2 if quiescent else horizon + 2
        )
        if not self._check.passes(threshold):
            validate_run(run, r5_send_threshold=threshold)
        return ExecutionResult(run, tuple(self._taken), tuple(self._counts))


def replay(spec: ExploreSpec, plan: CrashPlan, trace: Trace) -> Run:
    """Re-execute one explored branch: the run is a pure function of
    ``(spec, plan, trace)``.  Out-of-range choices clamp to the last
    option, so any int tuple is a valid (if redundant) trace -- the
    property :mod:`repro.explore.shrink` relies on.
    """
    return _BoundedExecution(spec, plan, tuple(trace), ExploreStats()).execute().run


def drain_frontier(spec: ExploreSpec, stats: ExploreStats) -> Iterator[Leaf]:
    """Drain the search from one root per crash plan, yielding every leaf.

    Depth-first (``spec.strategy``) resumes each entry from the snapshot
    of the tick that holds its last choice; breadth-first replays it from
    tick 1 (a wide frontier would hold a snapshot per entry).  The search
    is counted in ``stats``; a caller stops it by ceasing to iterate.
    """
    frontier: Deque[_Entry] = deque((plan, (), None) for plan in spec.crash_plans())
    dfs = spec.strategy == "dfs"
    last: _BoundedExecution | None = None
    while frontier:
        if len(frontier) > stats.max_frontier:
            stats.max_frontier = len(frontier)
        plan, prefix, snapshot = frontier.pop() if dfs else frontier.popleft()
        last = _BoundedExecution(spec, plan, prefix, stats, snapshot, dfs, last)
        result = last.execute()
        last.push_alternatives(result, frontier)
        yield plan, result.taken, result.run


def _rep_key(run: Run, plan_order: dict[CrashPlan, int]) -> tuple[int, int, Trace]:
    """Deterministic representative preference for value-equal runs.

    Quiescent variants win (their final cut is a fixpoint, so liveness
    verdicts are exact), then the smallest ``(plan, trace)`` coordinate.
    Being discovery-order-independent is what makes the final run list
    identical for either frontier discipline.
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
    stats = ExploreStats(reduction=spec.reduction)
    budget = spec.max_executions

    # -- the search ----------------------------------------------------------
    unique: dict[Run, Run] = {}
    violations: list[Violation] = []
    for plan, trace, run in drain_frontier(spec, stats):
        stats.runs_enumerated += 1
        stored = unique.get(run)
        if stored is None or _rep_key(run, plan_order) < _rep_key(stored, plan_order):
            unique[run] = run
            if stop_on_violation:
                violations.extend(
                    _check_monitors((run,), monitors, stats, stop_on_violation=True)
                )
                if violations:
                    stats.stopped_on_violation = True
                    break
        if budget is not None and stats.executions >= budget:
            # Entries left on the frontier: one per root and pushed branch,
            # less one per execution.  Only if some are left is it cut short.
            stats.truncated = stats.executions < len(plans) + stats.branches_scheduled
            break

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
