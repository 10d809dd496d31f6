"""Atomic broadcast via repeated consensus (extension; CT96 reduction).

The paper stresses what UDC does *not* give: "we are not concerned here
with other requirements such as executing actions in a particular order
(e.g., total-order multicast)".  UDC delivers the same *set* everywhere;
ordering that set is exactly as hard as consensus (Chandra-Toueg's
atomic-broadcast/consensus equivalence).  This module implements the
classical reduction so the repository can *show* the gap:

* messages are disseminated nUDC-style (gossip with acks);
* a sequence of rotating-coordinator consensus instances agrees, batch
  by batch, on the delivery order: instance k's proposal is the
  proposer's current undelivered set, the decision is delivered in a
  deterministic order, then instance k+1 starts.

Requirements are therefore consensus's: a majority of correct processes
and a <>S detector -- strictly more than the same dissemination needs
for plain UDC, which is the point.

Deliveries are recorded as ``do_p(("adeliver", payload))`` events;
:func:`check_atomic_broadcast` verifies validity, uniform agreement,
integrity, and total order.
"""

from __future__ import annotations

from repro.core.consensus import RotatingRounds
from repro.detectors.properties import PropertyVerdict
from repro.model.events import DoEvent, Message, ProcessId, StandardSuspicion, Suspicion
from repro.model.run import Run
from repro.sim.process import ProcessEnv, ProtocolProcess, Resends

GOSSIP = "ab-msg"
P1 = "ab-p1"
P2 = "ab-p2"
ACK = "ab-ack"
NACK = "ab-nack"
DECIDE = "ab-dec"
ROUND_KINDS = (P1, P2, ACK, NACK)


def deliver_action(payload) -> tuple:
    """The do-event action recording an a-delivery."""
    return ("adeliver", payload)


class AtomicBroadcastProcess(ProtocolProcess):
    """Total-order (atomic) broadcast for t < n/2 with a <>S detector.

    Instance k is a :class:`~repro.core.consensus.RotatingRounds` whose
    payloads carry k first; its proposal is this process's undelivered
    set when it first drives the instance.
    """

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        *,
        max_instances: int = 12,
        max_rounds: int = 60,
        resend_interval: int = 3,
        resend_rounds: int = 10,
    ) -> None:
        super().__init__(pid, env)
        self.max_instances = max_instances
        self.max_rounds = max_rounds
        self.resend_rounds = resend_rounds
        self.known: set = set()       # payloads gossiped to us
        self.delivered: list = []     # in delivery order
        self.delivered_set: set = set()
        self.instances: dict[int, RotatingRounds] = {}
        self.proposed: set[int] = set()
        self.decided: dict[int, tuple] = {}  # instance -> batch
        self.current = 1
        self.current_suspects: frozenset[ProcessId] = frozenset()
        self.resends = Resends(resend_interval)

    # -- plumbing ---------------------------------------------------------------

    def _emit(self, target: ProcessId, message: Message) -> None:
        self.resends.emit(self.env, target, message, self.resend_rounds)

    def _instance(self, k: int) -> RotatingRounds:
        rounds = self.instances.get(k)
        if rounds is None:
            rounds = self.instances[k] = RotatingRounds(
                self.env, ROUND_KINDS, lambda fields: (k, *fields), self._emit, ()
            )
        return rounds

    # -- hooks --------------------------------------------------------------------

    def on_init(self, action) -> None:
        """A-broadcast: the action's payload enters dissemination."""
        self._learn(action)
        self._drive()

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self.current_suspects = report.suspects
            self._drive()

    def on_receive(self, sender: ProcessId, message: Message) -> None:
        kind = message.kind
        if kind == GOSSIP:
            self._learn(message.payload)
        elif kind == DECIDE:
            k, batch = message.payload
            self._record_decision(k, batch)
        elif kind in ROUND_KINDS:
            k, *fields = message.payload
            self._instance(k).receive(sender, kind, fields)
        self._drive()

    def on_tick(self) -> None:
        self._drive()
        if self.resends.due(self.env.now):
            self.resends.flush(self.env)

    def wants_to_act(self) -> bool:
        return bool(self.resends.left)

    # -- dissemination ----------------------------------------------------------------

    def _learn(self, payload) -> None:
        if payload in self.known:
            return
        self.known.add(payload)
        message = Message(GOSSIP, payload)
        for q in self.env.others:
            self._emit(q, message)

    # -- ordering ----------------------------------------------------------------------

    def _undelivered(self) -> tuple:
        return tuple(sorted(p for p in self.known if p not in self.delivered_set))

    def _record_decision(self, k: int, batch: tuple) -> None:
        if k not in self.decided:
            self.decided[k] = batch
            message = Message(DECIDE, (k, batch))
            for q in self.env.others:
                self._emit(q, message)
        self._try_deliver()

    def _try_deliver(self) -> None:
        """Deliver decided batches in instance order, once payloads are known."""
        while True:
            batch = self.decided.get(self.current)
            if batch is None:
                return
            if not set(batch) <= self.known:
                return  # gossip still in flight; R5 will bring it
            for payload in batch:
                if payload not in self.delivered_set:
                    self.delivered_set.add(payload)
                    self.delivered.append(payload)
                    self.env.perform(deliver_action(payload))
            self.current += 1

    def _drive(self) -> None:
        self._try_deliver()
        k = self.current
        if k > self.max_instances or k in self.decided:
            return
        rounds = self._instance(k)
        if k not in self.proposed:
            proposal = self._undelivered()
            if not proposal:
                return  # nothing to order yet
            self.proposed.add(k)
            rounds.estimate = proposal
        if rounds.drive(self.current_suspects, self.max_rounds):
            self._record_decision(k, rounds.estimate)


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------


def deliveries(run: Run, process: ProcessId) -> list:
    """The payloads a process a-delivered, in its local order."""
    return [
        e.action[1]
        for e in run.final_history(process).events_of_type(DoEvent)
        if e.action[0] == "adeliver"
    ]


def check_atomic_broadcast(run: Run, broadcasts: set) -> PropertyVerdict:
    """Validity, uniform agreement, integrity, and total order."""
    sequences = {p: deliveries(run, p) for p in run.processes}

    # Integrity: unique, and only broadcast payloads.
    for p, seq in sequences.items():
        if len(seq) != len(set(seq)):
            return PropertyVerdict.fail(f"{p} delivered a payload twice")
        if not set(seq) <= broadcasts:
            return PropertyVerdict.fail(f"{p} delivered a never-broadcast payload")

    # Uniform agreement: anything delivered anywhere is delivered by all
    # correct processes.
    delivered_anywhere = set().union(*(set(s) for s in sequences.values()))
    for p in sorted(run.correct()):
        missing = delivered_anywhere - set(sequences[p])
        if missing:
            return PropertyVerdict.fail(
                f"correct {p} missed deliveries {sorted(missing)}"
            )

    # Total order: every pair of sequences agrees on the order of their
    # common prefix -- one is a prefix of the other for correct pairs,
    # and crashed processes' sequences are prefixes of the common order.
    correct = sorted(run.correct())
    if correct:
        reference = sequences[correct[0]]
        for p, seq in sequences.items():
            n = len(seq)
            if seq != reference[:n]:
                return PropertyVerdict.fail(
                    f"{p}'s delivery order {seq} diverges from {reference}"
                )

    # Validity: a correct broadcaster's payloads are delivered.
    # (Broadcast = the initiator's init event; payload = the action.)
    from repro.model.events import InitEvent

    for p in sorted(run.correct()):
        for e in run.final_history(p).events_of_type(InitEvent):
            if e.action in broadcasts and e.action not in set(sequences[p]):
                return PropertyVerdict.fail(
                    f"correct broadcaster {p}'s payload {e.action!r} undelivered"
                )
    return PropertyVerdict.ok()
