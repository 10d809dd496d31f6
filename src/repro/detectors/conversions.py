"""Detector conversions (Propositions 2.1, 2.2; Section 4's n-useful <-> perfect).

A conversion maps a system R to a system R' via a function f on runs:
every non-failure-detector event of r appears in f(r) in the same order;
f(r) may carry additional communication and new failure-detector events
(marked ``derived=True``), which are the ones the property checkers of
R' look at.

* :func:`convert_impermanent_to_permanent` (Prop 2.2) is purely local:
  the new report at each detector event is the union of everything
  reported so far.  No new events are added; original suspect events get
  a derived twin one tick later.
* :func:`convert_weak_to_strong` (Prop 2.1) needs communication ("all
  processes just communicate and tell each other about the suspicions"):
  it is implemented in two parts.  The :class:`SuspicionGossip` protocol
  wrapper runs alongside the application protocol and broadcasts every
  report its process receives; this puts the gossip *into the run* as
  ordinary messages.  The run transformation then derives each process's
  converted reports as the union of its own reports and the gossiped
  ones it has received so far.
* :func:`convert_generalized_to_perfect` / :func:`convert_perfect_to_n_useful`
  realise the Section 4 equivalences for (n-1)- and n-useful detectors.

All transformations double the timeline exactly like the P1-P3
construction (original event at r-time m lands at 2m; the derived report
reflecting r_p(m) lands at 2m+1), so derived events never collide with
originals and R2 is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.model.events import (
    GeneralizedSuspicion,
    Message,
    ProcessId,
    ReceiveEvent,
    StandardSuspicion,
    SuspectEvent,
    Suspicion,
)
from repro.model.run import Run
from repro.model.system import System
from repro.sim.process import ProcessEnv, ProtocolProcess, Resends

GOSSIP = "susp-gossip"


def _transform_with_state(
    run: Run,
    initial_state,
    update: Callable,
    report_of: Callable,
) -> Run:
    """Double the timeline; maintain per-process state over the original
    events and append a derived report at 2m+1 whenever it changes."""
    timelines: dict[ProcessId, list] = {}
    for p in run.processes:
        state = initial_state()
        merged: list = []
        last_report = None
        event_iter = list(run.timeline(p))
        idx = 0
        crash_tick = run.crash_time(p)
        for m in range(run.duration + 1):
            # Feed original events at time m into the state.
            while idx < len(event_iter) and event_iter[idx][0] <= m:
                state = update(state, event_iter[idx][1])
                idx += 1
            if crash_tick is not None and m >= crash_tick:
                break
            report = report_of(state)
            if report is not None and report != last_report:
                merged.append((2 * m + 1, SuspectEvent(p, report, derived=True)))
                last_report = report
        for t, event in run.timeline(p):
            merged.append((2 * t, event))
        merged.sort(key=lambda te: te[0])
        timelines[p] = merged
    return Run(
        run.processes,
        timelines,
        duration=2 * run.duration + 1,
        meta=dict(run.meta),
    )


# ---------------------------------------------------------------------------
# Proposition 2.2: impermanent -> permanent completeness
# ---------------------------------------------------------------------------


def convert_impermanent_to_permanent(run: Run) -> Run:
    """Report, at every step, the union of all previously suspected processes."""

    def update(state: frozenset, event) -> frozenset:
        if isinstance(event, SuspectEvent) and not event.derived:
            if isinstance(event.report, StandardSuspicion):
                return state | event.report.suspects
        return state

    return _transform_with_state(
        run,
        initial_state=frozenset,
        update=update,
        report_of=lambda state: StandardSuspicion(state),
    )


def convert_system_impermanent_to_permanent(system: System) -> System:
    """Apply Prop 2.2's conversion to every run of a system."""
    return System(
        [convert_impermanent_to_permanent(r) for r in system],
        context=system.context,
    )


# ---------------------------------------------------------------------------
# Proposition 2.1: weak -> strong completeness, via gossip
# ---------------------------------------------------------------------------


class SuspicionGossip(ProtocolProcess):
    """Protocol wrapper: re-broadcasts every suspicion report it observes.

    Compose with any application protocol via :func:`with_gossip`; the
    gossip messages become part of the run, and
    :func:`convert_weak_to_strong` then reads them back out.
    """

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        inner: ProtocolProcess,
        *,
        resend_rounds: int = 6,
        resend_interval: int = 4,
    ) -> None:
        super().__init__(pid, env)
        self.inner = inner
        self.resend_rounds = resend_rounds
        self._known: set[frozenset[ProcessId]] = set()
        self.resends = Resends(resend_interval)

    def _learn(self, suspects: frozenset[ProcessId]) -> None:
        if suspects in self._known or not suspects:
            return
        self._known.add(suspects)
        message = Message(GOSSIP, suspects)
        for q in self.env.others:
            self.resends.add((q, suspects), q, message, self.resend_rounds)

    # -- delegated hooks ------------------------------------------------------

    def on_start(self) -> None:
        self.inner.on_start()

    def on_init(self, action) -> None:
        self.inner.on_init(action)

    def on_receive(self, sender, message) -> None:
        if message.kind == GOSSIP:
            self._learn(message.payload)
            # Feed the heard suspicion to the inner protocol as if its
            # own (converted) detector had reported it -- this is the
            # operational content of Prop 2.1: the converted detector's
            # reports are the union of everything gossiped.  The inner
            # protocol's state remains a function of its local history,
            # since the gossip message itself is in the history.
            self.inner.on_suspect(StandardSuspicion(message.payload))
            return
        self.inner.on_receive(sender, message)

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self._learn(report.suspects)
        self.inner.on_suspect(report)

    def on_tick(self) -> None:
        if self.resends.due(self.env.now):
            self.resends.flush(self.env)
        self.inner.on_tick()

    def wants_to_act(self) -> bool:
        return bool(self.resends.left) or self.inner.wants_to_act()


@dataclass(frozen=True)
class GossipProtocol:
    """Picklable factory form of :func:`with_gossip` (see
    :class:`repro.sim.process.UniformProtocol` for why factories are
    dataclasses rather than closures)."""

    inner_factory: object
    gossip_kwargs: tuple[tuple[str, object], ...] = ()

    def __call__(self, pid: ProcessId, env: ProcessEnv) -> SuspicionGossip:
        return SuspicionGossip(
            pid, env, self.inner_factory(pid, env), **dict(self.gossip_kwargs)
        )


def with_gossip(inner_factory, **gossip_kwargs):
    """Wrap a protocol factory so every process also gossips suspicions."""
    return GossipProtocol(inner_factory, tuple(sorted(gossip_kwargs.items())))


def convert_weak_to_strong(run: Run) -> Run:
    """Derive, per process, reports = union of own reports and gossip heard.

    The run must have been produced with :func:`with_gossip` (otherwise
    there is no gossip to read and the conversion degrades to
    Prop 2.2's local union).
    """

    def update(state: frozenset, event) -> frozenset:
        if isinstance(event, SuspectEvent) and not event.derived:
            if isinstance(event.report, StandardSuspicion):
                return state | event.report.suspects
        if isinstance(event, ReceiveEvent) and event.message.kind == GOSSIP:
            return state | event.message.payload
        return state

    return _transform_with_state(
        run,
        initial_state=frozenset,
        update=update,
        report_of=lambda state: StandardSuspicion(state),
    )


# ---------------------------------------------------------------------------
# Section 4: n-useful <-> perfect
# ---------------------------------------------------------------------------


def convert_generalized_to_perfect(run: Run) -> Run:
    """(n-1)-/n-useful -> perfect: a (S, k) report with |S| = k pins every
    member of S as crashed; report the union of such sets."""

    def update(state: frozenset, event) -> frozenset:
        if isinstance(event, SuspectEvent) and not event.derived:
            report = event.report
            if (
                isinstance(report, GeneralizedSuspicion)
                and report.count == len(report.suspects)
            ):
                return state | report.suspects
        return state

    return _transform_with_state(
        run,
        initial_state=frozenset,
        update=update,
        report_of=lambda state: StandardSuspicion(state),
    )


def convert_perfect_to_n_useful(run: Run) -> Run:
    """Perfect -> n-useful: report (S', |S'|) where S' accumulates every
    standard suspicion seen so far."""

    def update(state: frozenset, event) -> frozenset:
        if isinstance(event, SuspectEvent) and not event.derived:
            if isinstance(event.report, StandardSuspicion):
                return state | event.report.suspects
        return state

    return _transform_with_state(
        run,
        initial_state=frozenset,
        update=update,
        report_of=lambda state: GeneralizedSuspicion(state, len(state)),
    )
