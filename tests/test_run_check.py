"""The incremental run check agrees with ``validate_run``.

``RunCheck`` is fed a run's events in tick order, as ``Executor._tick``
appends them, and must flag exactly the runs ``validate_run`` refuses, at
both R5 thresholds the executor and the explorer use.  The property
draws runs the executor produced and ``synthetic_run`` batches, applies
one mutation, feeds the processes of each tick in either order and may
resume the check from its ``state()`` between two ticks.  The executor
and the explorer call ``validate_run`` only on a flagged run: a protocol
that queues an event the model forbids still gets ``validate_run``'s
message, and a well-behaved workload never calls it.
"""

from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import NUDCProcess
from repro.explore import ExploreSpec, explore
from repro.explore.reduction import ExploreStats
from repro.model.context import make_process_ids
from repro.model.events import (
    CrashEvent,
    DoEvent,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
)
from repro.model.run import Run, RunCheck, RunValidationError, validate_run
from repro.model.synthetic import synthetic_run
from repro.runtime.cache import RunCache, default_run_cache, set_default_run_cache
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.process import ProtocolProcess, uniform_protocol
from repro.workloads.generators import single_action

from tests.test_sim_digest import matrix_runs

# ``repro.explore`` exports a function named ``explore``, which shadows the
# subpackage on attribute lookup; take the modules from the import system.
executor_module = importlib.import_module("repro.sim.executor")
scheduler = importlib.import_module("repro.explore.scheduler")

#: The explorer's drop budget on X02; the executor's default is 3.
X02_BUDGET = 1

#: Foreign-event mutations, by the kind of event they move.
FOREIGN = {"foreign-send": SendEvent, "foreign-receive": ReceiveEvent, "foreign-do": DoEvent}

MUTATIONS = (
    "none",
    *FOREIGN,
    "repeated-time",
    "time-zero",
    "after-crash",
    "second-init",
    "receive-before-send",
    "same-tick-receive",
    "unknown-sender",
    "r5-sends",
)


# -- feeding and judging ------------------------------------------------------


def reference_passes(processes, timelines, duration, threshold) -> bool:
    """``validate_run``'s verdict; ``Run``'s own R4 ``ValueError`` counts
    as a refusal, since the executor builds the run before validating."""
    try:
        run = Run(processes, timelines, duration)
    except ValueError:
        return False
    try:
        validate_run(run, r5_send_threshold=threshold)
    except RunValidationError:
        return False
    return True


def check_passes(processes, timelines, threshold, *, reverse=False, resume_at=None) -> bool:
    """Feed ``timelines`` tick by tick, each tick's processes in process
    order or its reverse, optionally resuming from ``state()`` before the
    ``resume_at``-th tick, and ask the check for its verdict."""
    check = RunCheck(processes)
    order = processes[::-1] if reverse else processes
    ticks = sorted({t for timeline in timelines.values() for t, _ in timeline})
    for i, tick in enumerate(ticks):
        if i == resume_at:
            check = RunCheck(processes, check.state())
        for p in order:
            for t, event in timelines[p]:
                if t == tick:
                    check.append(p, t, event)
        check.end_tick()
    return check.passes(threshold)


# -- mutations ----------------------------------------------------------------


def _free(timeline) -> int:
    """The first time after a timeline's last entry."""
    return timeline[-1][0] + 1 if timeline else 1


def _live(processes, timelines):
    live = [p for p in processes if not (timelines[p] and isinstance(timelines[p][-1][1], CrashEvent))]
    return live or list(processes)


def mutate(kind, processes, timelines, rng, threshold) -> None:
    """Apply mutation ``kind`` to ``timelines`` (a dict of lists) in place.
    Each keeps every timeline's times non-decreasing, so it can be fed in
    tick order."""
    live = _live(processes, timelines)
    p = rng.choice(live)
    others = [q for q in processes if q != p]
    q = rng.choice(others)
    tl = timelines[p]
    if kind in FOREIGN:
        # The event moves to another process but keeps its channel or
        # action, so ownership is all that fails.
        spots = [
            (r, i)
            for r in live
            for i, (_, e) in enumerate(timelines[r])
            if isinstance(e, FOREIGN[kind])
        ]
        if spots:
            r, i = rng.choice(spots)
            t, event = timelines[r][i]
            owner = rng.choice([x for x in processes if x != r])
            if isinstance(event, SendEvent):
                foreign = SendEvent(owner, event.receiver, event.message)
            elif isinstance(event, ReceiveEvent):
                foreign = ReceiveEvent(owner, event.sender, event.message)
            else:
                foreign = DoEvent(owner, event.action)
            timelines[r][i] = (t, foreign)
        else:
            tl.append((_free(tl), DoEvent(q, ("foreign",))))
    elif kind == "repeated-time":
        if len(tl) >= 2:
            i = rng.randrange(len(tl) - 1)
            tl[i + 1] = (tl[i][0], tl[i + 1][1])
        else:
            t = _free(tl)
            tl += [(t, DoEvent(p, ("twice", 0))), (t, DoEvent(p, ("twice", 1)))]
    elif kind == "time-zero":
        if tl:
            tl[0] = (0, tl[0][1])
        else:
            tl.append((0, DoEvent(p, ("zero",))))
    elif kind == "after-crash":
        if not (tl and isinstance(tl[-1][1], CrashEvent)):
            tl.append((_free(tl), CrashEvent(p)))
        tl.append((_free(tl), DoEvent(p, ("late",))))
    elif kind == "second-init":
        other = rng.choice(live)
        tl.append((_free(tl), InitEvent(p, ("again",))))
        timelines[other].append((_free(timelines[other]), InitEvent(other, ("again",))))
    elif kind == "receive-before-send":
        t = max(_free(tl), _free(timelines[q]))
        message = Message("ghost")
        timelines[q].append((t, ReceiveEvent(q, p, message)))
        tl.append((t + 1, SendEvent(p, q, message)))
    elif kind == "same-tick-receive":
        t = max(_free(tl), _free(timelines[q]))
        message = Message("same-tick")
        tl.append((t, SendEvent(p, q, message)))
        timelines[q].append((t, ReceiveEvent(q, p, message)))
    elif kind == "unknown-sender":
        tl.append((_free(tl), ReceiveEvent(p, "p99", Message("stray"))))
    elif kind == "r5-sends":
        # threshold - 1 or threshold copies, to a live or a crashed receiver
        copies = threshold - rng.randrange(2)
        if rng.random() < 0.5 and not (timelines[q] and isinstance(timelines[q][-1][1], CrashEvent)):
            timelines[q].append((_free(timelines[q]), CrashEvent(q)))
        start = _free(tl)
        tl += [(start + k, SendEvent(p, q, Message("r5"))) for k in range(copies)]
    else:
        assert kind == "none"


def thresholds(run, budget):
    """The R5 thresholds in use: budget + 2 (the executor, and the explorer
    on a quiescent run) and horizon + 2 (the explorer otherwise)."""
    return (budget + 2, run.duration + 2)


def executor_bases():
    """Runs of every protocol, oracle and channel family the executor has,
    the unfair channel's R5 violation included."""
    return [run for _, run in matrix_runs()]


# -- the property --------------------------------------------------------------


@st.composite
def mutated_runs(draw):
    if draw(st.integers(0, 2)):  # two in three from the executor
        base = draw(st.sampled_from(executor_bases()))
        budget = ExecutionConfig().channel.max_consecutive_drops
    else:
        rng = random.Random(draw(st.integers(0, 2**16)))
        processes = make_process_ids(draw(st.integers(2, 4)))
        base = synthetic_run(
            processes, rng, duration=draw(st.integers(1, 9)), crash_prob=0.4, alphabet=2
        )
        budget = X02_BUDGET
    timelines = {p: list(base.timeline(p)) for p in base.processes}
    kind = draw(st.sampled_from(MUTATIONS))
    rng = random.Random(draw(st.integers(0, 2**16)))
    cuts = thresholds(base, budget)
    mutate(kind, base.processes, timelines, rng, rng.choice(cuts))
    return base.processes, timelines, base.duration, cuts


@settings(max_examples=300, deadline=None)
@given(mutated_runs(), st.booleans(), st.integers(0, 60))
def test_check_agrees_with_validate_run(case, reverse, resume_at):
    processes, timelines, duration, cuts = case
    for threshold in cuts:
        assert check_passes(
            processes, timelines, threshold, reverse=reverse, resume_at=resume_at
        ) == reference_passes(processes, timelines, duration, threshold)


#: Verdicts on a valid run in which two processes crash; the check and
#: the reference must agree with each other and with these.
EXPECTED = {
    "none": True,
    "foreign-send": False,
    "foreign-receive": False,
    "foreign-do": False,
    "repeated-time": False,
    "time-zero": False,
    "after-crash": False,
    "second-init": False,
    "receive-before-send": False,
    "same-tick-receive": True,
    "unknown-sender": False,
}


def _valid_base() -> Run:
    run = dict(matrix_runs())["reliable-udc/reliable/simultaneous/0"]
    return Run(run.processes, {p: run.timeline(p)[:6] for p in run.processes}, run.duration)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_each_mutation(kind, reverse):
    base = _valid_base()
    timelines = {p: list(base.timeline(p)) for p in base.processes}
    mutate(kind, base.processes, timelines, random.Random(3), 5)
    for threshold in thresholds(base, X02_BUDGET):
        verdict = check_passes(base.processes, timelines, threshold, reverse=reverse)
        assert verdict == reference_passes(base.processes, timelines, base.duration, threshold)
        assert verdict is EXPECTED[kind]


@pytest.mark.parametrize("crashed", [False, True], ids=["live", "crashed"])
@pytest.mark.parametrize("below", [1, 0], ids=["threshold-1", "threshold"])
def test_r5_sends_at_the_threshold(below, crashed):
    base = _valid_base()
    threshold = 5
    timelines = {p: list(base.timeline(p)) for p in base.processes}
    sender, receiver = "p1", "p4"
    if crashed:
        timelines[receiver].append((_free(timelines[receiver]), CrashEvent(receiver)))
    start = _free(timelines[sender])
    timelines[sender] += [
        (start + k, SendEvent(sender, receiver, Message("r5"))) for k in range(threshold - below)
    ]
    verdict = check_passes(base.processes, timelines, threshold)
    assert verdict == reference_passes(base.processes, timelines, base.duration, threshold)
    assert verdict is (crashed or below == 1)


# -- protocols that break the model -----------------------------------------------


class RogueProcess(ProtocolProcess):
    """p1 broadcasts a ping on init.  A process that receives the ping at
    or after tick ``late`` then queues an event ``validate_run`` refuses:
    a do event of another process (``"foreign"``) or an init of the
    pinged action (``"init"``, p1's init being the first)."""

    def __init__(self, pid, env, rogue, late=0):
        super().__init__(pid, env)
        self.rogue, self.late, self.done = rogue, late, False

    def on_init(self, action):
        if not self.done:
            self.env.broadcast(Message("ping", action))
            self.env.perform(action)

    def on_receive(self, sender, message):
        if message.kind == "ping" and not self.done and self.env.now >= self.late:
            self.done = True
            action = message.payload
            if self.rogue == "foreign":
                other = next(q for q in self.env.processes if q != self.pid)
                self.env.outbox.append(DoEvent(other, action))
            else:
                self.env.outbox.append(InitEvent(self.pid, action))

    def snapshot(self):
        return self.done

    def restore(self, state):
        self.done = state


def _message(run, threshold) -> str:
    with pytest.raises(RunValidationError) as refused:
        validate_run(run, r5_send_threshold=threshold)
    return str(refused.value)


@pytest.mark.parametrize("rogue", ["foreign", "init"])
def test_executor_raises_validate_runs_message(rogue):
    def execute(validate):
        return Executor(
            make_process_ids(3),
            uniform_protocol(RogueProcess, rogue=rogue),
            workload=single_action("p1", tick=1),
            config=ExecutionConfig(validate=validate),
            seed=4,
        ).run()

    expected = _message(execute(False), ExecutionConfig().channel.max_consecutive_drops + 2)
    with pytest.raises(RunValidationError) as refused:
        execute(True)
    assert str(refused.value) == expected


@pytest.mark.parametrize("rogue", ["foreign", "init"])
def test_explorer_raises_validate_runs_message(rogue, monkeypatch):
    """The cooperative run delivers p1's pings at ticks 3 and 4; only
    branches that defer one to tick 5 go rogue, and the depth-first drain
    resumes those from snapshots.  With ``validate_run`` recording
    instead of raising, the flagged runs are exactly the rogue ones; then
    the drain and ``replay`` raise its message."""
    spec = ExploreSpec(
        processes=make_process_ids(3),
        protocol=uniform_protocol(RogueProcess, rogue=rogue, late=5),
        horizon=6,
        max_failures=0,
        workload=single_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )
    flagged = []
    monkeypatch.setattr(scheduler, "validate_run", lambda run, **kw: flagged.append(run))
    leaves = list(scheduler.drain_frontier(spec, ExploreStats()))
    monkeypatch.undo()

    def rogue_run(run):
        return any(
            event.process != p or (isinstance(event, InitEvent) and p != "p1")
            for p in run.processes
            for _, event in run.timeline(p)
        )

    assert not rogue_run(leaves[0][2]) and flagged
    assert flagged == [run for _, _, run in leaves if rogue_run(run)]
    first = flagged[0]
    expected = _message(first, spec.horizon + 2)
    with pytest.raises(RunValidationError) as refused:
        list(scheduler.drain_frontier(spec, ExploreStats()))
    assert str(refused.value) == expected
    with pytest.raises(RunValidationError) as refused:
        scheduler.replay(spec, first.meta["crash_plan"], first.meta["trace"])
    assert str(refused.value) == expected


# -- well-behaved workloads never reach validate_run --------------------------------


@pytest.fixture
def validate_spy(monkeypatch):
    """Count calls of ``validate_run`` through the executor's and the
    explorer's names for it, and of ``Executor.run``."""
    calls = {"validate_run": 0, "Executor.run": 0}

    def spy(run, **kwargs):
        calls["validate_run"] += 1
        return validate_run(run, **kwargs)

    real_run = Executor.run

    def counted_run(self):
        calls["Executor.run"] += 1
        return real_run(self)

    monkeypatch.setattr(executor_module, "validate_run", spy)
    monkeypatch.setattr(scheduler, "validate_run", spy)
    monkeypatch.setattr(Executor, "run", counted_run)
    return calls


def test_x02_explore_validates_no_run(validate_spy):
    spec = ExploreSpec(
        processes=make_process_ids(6),
        protocol=uniform_protocol(NUDCProcess),
        horizon=8,
        max_failures=1,
        crash_ticks=(1, 3, 5),
        workload=single_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )
    report = explore(spec, cache=None)
    assert report.stats.executions == len(report.runs) == 8606
    assert validate_spy["validate_run"] == 0


def test_serial_harness_validates_no_run(validate_spy, capsys):
    from repro.harness.__main__ import main
    from repro.runtime import set_default_backend

    previous = default_run_cache()
    set_default_run_cache(RunCache())
    try:
        assert main(["--backend", "serial"]) == 0
    finally:
        set_default_backend(None)
        set_default_run_cache(previous)
    assert "18/18 experiments passed" in capsys.readouterr().out
    assert validate_spy["Executor.run"] > 700
    assert validate_spy["validate_run"] == 0
