"""Executable versions of every protocol in the paper.

===============================  =============  =========================
class                            paper result   context
===============================  =============  =========================
:class:`NUDCProcess`             Prop 2.3       fair channels, no FD,
                                                unbounded failures (nUDC)
:class:`ReliableUDCProcess`      Prop 2.4       reliable channels, no FD,
                                                unbounded failures
:class:`StrongFDUDCProcess`      Prop 3.1       fair channels, strong FD,
                                                unbounded failures
:class:`GeneralizedFDUDCProcess` Prop 4.1       fair channels, t-useful
                                                generalized FD, <= t
                                                failures (Cor 4.2 with the
                                                trivial subset oracle)
:class:`AtdUDCProcess`           Section 5      fair channels, the ATD99
                                                weakest detector for UDC
===============================  =============  =========================

Message vocabulary: an *alpha-message* ``Message("alpha", action)`` tells
the receiver to perform ``action``; an acknowledgment is
``Message("ack", action)``.

Bounded retransmission
----------------------
The paper's protocols retransmit forever (footnote 10 notes they have no
termination mechanism).  On a finite simulation we cap retransmission at
``resend_rounds`` copies per (action, target).  The fair-lossy channel's
budget guarantees delivery of a message retransmitted
``max_consecutive_drops + 1`` times, and an acknowledgment flows back
within another budget's worth of receipts, so any
``resend_rounds >= (budget + 1) * (budget + 2)`` preserves every liveness
property the unbounded protocol has; the default of 25 covers the
default budget of 3 with slack.  DESIGN.md substitution 2 records this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.model.events import (
    ActionId,
    GeneralizedSuspicion,
    Message,
    ProcessId,
    StandardSuspicion,
    Suspicion,
)
from repro.sim.process import ProcessEnv, ProtocolProcess

ALPHA = "alpha"
ACK = "ack"


@lru_cache(maxsize=None)  # repro: lint-ok[POOL002] value-interning cache
def alpha_message(action: ActionId) -> Message:
    """The "perform this action" message (interned per action)."""
    return Message(ALPHA, action)


@lru_cache(maxsize=None)  # repro: lint-ok[POOL002] value-interning cache
def ack_message(action: ActionId) -> Message:
    """The acknowledgment of an alpha-message (interned per action)."""
    return Message(ACK, action)


@dataclass
class _ActionState:
    """Per-action bookkeeping shared by the acknowledging protocols."""

    joined: bool = False
    acked_by: set[ProcessId] = field(default_factory=set)
    #: processes known to be in the UDC(action) state: they acked our
    #: alpha-message or sent us one themselves
    holders: set[ProcessId] = field(default_factory=set)
    sends_left: dict[ProcessId, int] = field(default_factory=dict)
    last_resend: int = -(10**9)


class _CoordinationBase(ProtocolProcess):
    """Shared machinery: join/ack bookkeeping and paced retransmission."""

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        *,
        resend_rounds: int = 25,
        resend_interval: int = 3,
    ) -> None:
        super().__init__(pid, env)
        self.resend_rounds = resend_rounds
        self.resend_interval = resend_interval
        self.states: dict[ActionId, _ActionState] = {}

    # -- bookkeeping --------------------------------------------------------

    def state(self, action: ActionId) -> _ActionState:
        st = self.states.get(action)
        if st is None:
            st = _ActionState(
                sends_left={q: self.resend_rounds for q in self.env.others}
            )
            self.states[action] = st
        return st

    def join(self, action: ActionId) -> None:
        """Enter the UDC(action) state; subclasses extend."""
        st = self.state(action)
        if st.joined:
            return
        st.joined = True
        self._resend(action, st)
        self.check_perform(action)

    def _resend(self, action: ActionId, st: _ActionState) -> None:
        """Send the alpha-message once more to every process that has not
        acked it and has sends left."""
        env = self.env
        acked, sends_left = st.acked_by, st.sends_left
        message = alpha_message(action)
        sent_any = False
        for q in env.others:
            if q in acked:
                continue
            left = sends_left.get(q, 0)
            if left <= 0:
                continue
            sends_left[q] = left - 1
            env.send(q, message)
            sent_any = True
        if sent_any:
            st.last_resend = env.now

    # -- hooks ---------------------------------------------------------------

    def on_init(self, action: ActionId) -> None:
        self.join(action)

    def on_receive(self, sender: ProcessId, message: Message) -> None:
        if message.kind == ALPHA:
            action = message.payload
            self.env.send(sender, ack_message(action))
            self.state(action).holders.add(sender)
            self.join(action)
            self.check_perform(action)
        elif message.kind == ACK:
            action = message.payload
            st = self.state(action)
            st.acked_by.add(sender)
            st.holders.add(sender)
            self.check_perform(action)

    def on_tick(self) -> None:
        """Paced retransmission: resend every joined action whose last
        resend is ``resend_interval`` ticks old.  The perform condition
        changes only in :meth:`join`, :meth:`on_receive` and
        ``on_suspect``, and each of them checks it."""
        now = self.env.now
        interval = self.resend_interval
        for action, st in self.states.items():
            if st.joined and now - st.last_resend >= interval:
                self._resend(action, st)

    def wants_to_act(self) -> bool:
        return any(
            st.joined
            and any(
                q not in st.acked_by and st.sends_left.get(q, 0) > 0
                for q in self.env.others
            )
            for st in self.states.values()
        )

    # -- state capture -------------------------------------------------------

    def snapshot(self) -> object | None:
        """Every action's ``_ActionState``, as tuples and frozensets."""
        return tuple(
            (action, st.joined, frozenset(st.acked_by), frozenset(st.holders),
             tuple(st.sends_left.items()), st.last_resend)
            for action, st in self.states.items()
        )

    def restore(self, state: object) -> None:
        self.states = {
            action: _ActionState(joined, set(acked), set(holders), dict(sends), last)
            for action, joined, acked, holders, sends, last in state
        }

    # -- the protocol-specific perform rule -------------------------------------

    def check_perform(self, action: ActionId) -> None:
        """Perform the action when the protocol's condition is met
        (returning at once if it is already performed)."""
        raise NotImplementedError


class NUDCProcess(_CoordinationBase):
    """Proposition 2.3: non-uniform distributed coordination, no detector.

    On entering the nUDC(action) state a process performs the action
    immediately and (repeatedly) tells everyone else to do the same.  No
    acknowledgments are required before performing -- that is what makes
    it non-uniform: a process may perform and crash before any copy of
    its alpha-message survives.

    Acks are still sent and used solely to stop retransmitting to
    processes that already have the action (a quiescence optimisation
    that does not affect the coordination property: the paper's variant
    simply never stops sending).
    """

    def join(self, action: ActionId) -> None:
        st = self.state(action)
        if st.joined:
            return
        st.joined = True
        # The paper's order: "it performs alpha and sends an alpha-message
        # repeatedly".  Performing before any send is exactly what makes
        # the protocol non-uniform -- a crash straight after the do event
        # can leave no trace of alpha anywhere else.
        self.env.perform(action)
        self._resend(action, st)

    def check_perform(self, action: ActionId) -> None:
        if self.env.has_performed(action):
            return
        if self.state(action).joined:
            self.env.perform(action)


class ReliableUDCProcess(_CoordinationBase):
    """Proposition 2.4: UDC over reliable channels, no detector.

    On entering the UDC(action) state a process first sends an
    alpha-message to all other processes and *then* performs the action.
    Because the sends precede the do in the history (and the channel is
    reliable), a crash after performing cannot erase the obligation:
    the messages are already in the channel.
    """

    def __init__(self, pid, env, **kwargs):
        kwargs.setdefault("resend_rounds", 1)  # reliable channels: one copy is enough
        super().__init__(pid, env, **kwargs)

    def join(self, action: ActionId) -> None:
        st = self.state(action)
        if st.joined:
            return
        st.joined = True
        # Send to all BEFORE performing; the outbox preserves order, so
        # the do event lands after every send event.
        for q in self.env.others:
            st.sends_left[q] -= 1
            self.env.send(q, alpha_message(action))
        self.env.perform(action)

    def check_perform(self, action: ActionId) -> None:
        pass  # the perform is issued inside join(), after the sends


class StrongFDUDCProcess(_CoordinationBase):
    """Proposition 3.1: UDC with a strong failure detector, fair channels.

    A process in the UDC(action) state repeatedly sends alpha-messages.
    It performs the action once, for every other process q, it has
    received an ack from q *or its detector says or has said that q is
    faulty* (suspicions are remembered: the condition is "says or has
    said").  It keeps retransmitting to non-acked processes even after
    performing.
    """

    def __init__(self, pid, env, **kwargs):
        super().__init__(pid, env, **kwargs)
        self.ever_suspected: set[ProcessId] = set()

    def snapshot(self) -> object | None:
        return super().snapshot(), frozenset(self.ever_suspected)

    def restore(self, state: object) -> None:
        base, suspected = state
        super().restore(base)
        self.ever_suspected = set(suspected)

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self.ever_suspected |= report.suspects
            for action, st in self.states.items():
                if st.joined:
                    self.check_perform(action)

    def check_perform(self, action: ActionId) -> None:
        if self.env.has_performed(action):
            return
        st = self.state(action)
        if not st.joined:
            return
        if all(
            q in st.acked_by or q in self.ever_suspected
            for q in self.env.others
        ):
            self.env.perform(action)


class GeneralizedFDUDCProcess(_CoordinationBase):
    """Proposition 4.1: UDC with a t-useful generalized detector.

    A process performs the action when there is a remembered report
    (S, k) such that (a) it is in the UDC(action) state, (b) the report
    was emitted by its detector, (c) it has acks from every process in
    Proc - S (its own ack being trivial), and (d)
    n - |S| > min(t, n-1) - k.

    It keeps sending alpha-messages to each q in S until an ack arrives
    or the retransmission budget runs out.

    With the :class:`~repro.detectors.generalized.TrivialSubsetOracle`
    and t < n/2 this is exactly the Gopal-Toueg no-detector protocol of
    Corollary 4.2.
    """

    def __init__(self, pid, env, *, t: int, **kwargs):
        super().__init__(pid, env, **kwargs)
        if t < 0:
            raise ValueError("t must be non-negative")
        self.t = t
        self.reports: list[GeneralizedSuspicion] = []

    def snapshot(self) -> object | None:
        return super().snapshot(), tuple(self.reports)

    def restore(self, state: object) -> None:
        base, reports = state
        super().restore(base)
        self.reports = list(reports)

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, GeneralizedSuspicion):
            self.reports.append(report)
            for action, st in self.states.items():
                if st.joined:
                    self.check_perform(action)

    def _useful_here(self, report: GeneralizedSuspicion) -> bool:
        n = len(self.env.processes)
        return n - len(report.suspects) > min(self.t, n - 1) - report.count

    def check_perform(self, action: ActionId) -> None:
        if self.env.has_performed(action):
            return
        st = self.state(action)
        if not st.joined:
            return
        acked = st.acked_by | {self.pid}
        for report in self.reports:
            if not self._useful_here(report):
                continue
            needed = set(self.env.processes) - set(report.suspects)
            if needed <= acked:
                self.env.perform(action)
                return


class AtdUDCProcess(_CoordinationBase):
    """Section 5: UDC with the Aguilera-Toueg-Deianov weakest detector.

    The detector satisfies strong completeness plus ATD accuracy: at all
    times, *some* correct process is currently unsuspected (possibly a
    different one at different times).  The perform rule uses *current*
    suspicions (most recent report), not remembered ones: perform once
    every process not known to hold the action is currently suspected.
    ATD accuracy then guarantees that some correct process is in the
    known-holders set, and strong completeness provides liveness.
    """

    def __init__(self, pid, env, **kwargs):
        super().__init__(pid, env, **kwargs)
        self.current_suspects: frozenset[ProcessId] = frozenset()

    def snapshot(self) -> object | None:
        return super().snapshot(), self.current_suspects

    def restore(self, state: object) -> None:
        base, self.current_suspects = state
        super().restore(base)

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self.current_suspects = report.suspects
            for action, st in self.states.items():
                if st.joined:
                    self.check_perform(action)

    def _holders(self, action: ActionId) -> set[ProcessId]:
        """Processes known to be in the UDC(action) state."""
        st = self.state(action)
        return st.holders | {self.pid}

    def check_perform(self, action: ActionId) -> None:
        if self.env.has_performed(action):
            return
        st = self.state(action)
        if not st.joined:
            return
        unknown = set(self.env.processes) - self._holders(action)
        if unknown <= self.current_suspects:
            self.env.perform(action)
