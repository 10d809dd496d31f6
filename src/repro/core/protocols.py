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

The copies live in each action's :class:`~repro.sim.process.Resends`
table, keyed by target, the table every retransmitting protocol here
uses.  Joining owes every other process ``resend_rounds`` copies and
sends the first at once; an ack removes its sender's key; ``on_tick``
sends one copy under every owed key once ``resend_interval`` ticks have
passed since copies last went out.  ``ReliableUDCProcess`` sends its
first copies without restarting that clock, so its second go out at
the first ``on_tick``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.model.events import (
    ActionId,
    GeneralizedSuspicion,
    Message,
    ProcessId,
    StandardSuspicion,
    Suspicion,
)
from repro.sim.process import NEVER, ProcessEnv, ProtocolProcess, Resends

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


class _ActionState(Resends):
    """One action's bookkeeping: the alpha-message copies still owed
    (a :class:`Resends` table keyed by target), whether this process
    joined, and who acked or holds the action."""

    __slots__ = ("joined", "acked_by", "holders")

    def __init__(
        self, interval: int, left: dict, sends: dict, last: int, joined: bool,
        acked_by: set[ProcessId], holders: set[ProcessId],
    ) -> None:
        # Every field is passed, with no defaults to resolve: an explorer
        # restore builds one of these per action.
        self.interval, self.left, self.sends, self.last = interval, left, sends, last
        self.joined = joined
        self.acked_by = acked_by
        #: processes known to be in the UDC(action) state: they acked our
        #: alpha-message or sent us one themselves
        self.holders = holders

    def join(self, others: tuple[ProcessId, ...], message: Message, copies: int) -> None:
        """Enter the UDC state owing each of ``others`` ``copies`` copies
        of ``message``, keyed by target; none is sent yet."""
        self.joined = True
        self.sends = {q: (q, message) for q in others}
        self.left = dict.fromkeys(others, copies) if copies > 0 else {}


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
            st = self.states[action] = _ActionState(
                self.resend_interval, {}, {}, NEVER, False, set(), set()
            )
        return st

    def join(self, action: ActionId) -> None:
        """Enter the UDC(action) state; subclasses extend."""
        st = self.state(action)
        if st.joined:
            return
        st.join(self.env.others, alpha_message(action), self.resend_rounds)
        st.flush(self.env)
        self.check_perform(action)

    def _recheck(self) -> None:
        """Check the perform rule of every joined action again (the
        detector has spoken)."""
        for action, st in self.states.items():
            if st.joined:
                self.check_perform(action)

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
            st.discard(sender)
            self.check_perform(action)

    def on_tick(self) -> None:
        """Paced retransmission: resend every action whose last copies
        went out ``resend_interval`` ticks ago.  The perform condition
        changes only in :meth:`join`, :meth:`on_receive` and
        ``on_suspect``, and each of them checks it."""
        now, env = self.env.now, self.env
        for st in self.states.values():
            if st.due(now):
                st.flush(env)

    def wants_to_act(self) -> bool:
        return any(st.left for st in self.states.values())

    # -- state capture -------------------------------------------------------

    def snapshot(self) -> object | None:
        """Every action's ``_ActionState``, as tuples and frozensets.  The
        ``sends`` dict is shared: joining replaces it, and nothing changes
        it after."""
        return tuple(
            (action, st.joined, frozenset(st.acked_by), frozenset(st.holders),
             tuple(st.left.items()), st.sends, st.last)
            for action, st in self.states.items()
        )

    def restore(self, state: object) -> None:
        interval = self.resend_interval
        self.states = {
            action: _ActionState(
                interval, dict(left), sends, last, joined, set(acked), set(holders)
            )
            for action, joined, acked, holders, left, sends, last in state
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
        st.join(self.env.others, alpha_message(action), self.resend_rounds)
        # The paper's order: "it performs alpha and sends an alpha-message
        # repeatedly".  Performing before any send is exactly what makes
        # the protocol non-uniform -- a crash straight after the do event
        # can leave no trace of alpha anywhere else.
        self.env.perform(action)
        st.flush(self.env)

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
        message = alpha_message(action)
        st.join(self.env.others, message, self.resend_rounds - 1)
        # Send to all BEFORE performing; the outbox preserves order, so
        # the do event lands after every send event.  The clock is left
        # alone: the second copies go at the first ``on_tick``.
        for q in self.env.others:
            self.env.send(q, message)
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
            self._recheck()

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
            self._recheck()

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
            self._recheck()

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
