"""Consensus baselines (Chandra-Toueg) for the consensus rows of Table 1.

The paper contrasts UDC with consensus: Table 1 reports that consensus
needs <>W for t < n/2, a Strong detector for n/2 <= t < n-1, and a
Perfect detector (= Strong, by Prop 3.4 + footnote 3) for t >= n-1 --
in both channel regimes.  Two algorithms cover the table:

* :class:`StrongConsensusProcess` -- CT's algorithm for Strong detectors
  (weak accuracy + strong completeness), t <= n-1.  Phase 1 runs n-1
  asynchronous rounds of vector exchange where a process waits, per
  round, for a message from every process it has never suspected; phase
  2 exchanges final vectors, intersects them, and decides the value of
  the smallest process id in the intersection.  Weak accuracy gives one
  correct process whose vector everyone always waits for, which forces
  the intersections to agree.
* :class:`RotatingCoordinatorConsensus` -- CT's <>S rotating-coordinator
  algorithm for t < n/2 (<>W is equivalent to <>S by the gossip
  conversion).  Majority quorums lock estimates; an estimate carries the
  round that locked it (-1 for a proposal never locked), and a
  coordinator proposes the latest-locked estimate of a majority, so a
  decided value is the only one a later round can propose.  Once the
  detector stabilises, a never-suspected correct coordinator drives a
  decision.

Both are adapted to fair-lossy channels by bounded retransmission of the
sender's cumulative message state, exactly as the paper observes CT's
algorithms can be ("their algorithm can be modified easily to deal with
unreliable, but fair, communication").

Decisions are recorded as ``do_p(("decide", v))`` events;
:func:`consensus_outcome` and :func:`check_consensus` read them back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detectors.properties import PropertyVerdict
from repro.model.events import DoEvent, Message, ProcessId, StandardSuspicion, Suspicion
from repro.model.run import Run
from repro.sim.process import ProcessEnv, ProtocolProcess, Resends

VECTOR = "cons-vec"  # cumulative phase-1/phase-2 state of the sender
DECIDE = "cons-dec"
P1 = "rc-p1"
P2 = "rc-p2"
ACK = "rc-ack"
NACK = "rc-nack"


def decide_action(value) -> tuple:
    """The do-event action recording a consensus decision."""
    return ("decide", value)


def decision_sends(env: ProcessEnv, value) -> Resends:
    """Six copies of the decision owed to every other process, one per
    ``on_tick`` (interval 0: unpaced)."""
    table = Resends(0)
    message = Message(DECIDE, value)
    for q in env.others:
        table.add(q, q, message, 6)
    return table


# ---------------------------------------------------------------------------
# CT consensus with a Strong detector (t <= n - 1)
# ---------------------------------------------------------------------------


class StrongConsensusProcess(ProtocolProcess):
    """Vector-exchange consensus; requires weak accuracy + strong completeness."""

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        *,
        value,
        resend_interval: int = 3,
        resend_rounds: int = 30,
    ) -> None:
        super().__init__(pid, env)
        self.value = value
        self.vector: dict[ProcessId, object] = {pid: value}
        self.round = 1
        self.total_rounds = len(env.processes) - 1
        self.in_final_phase = self.total_rounds < 1
        self.decided = None
        self.ever_suspected: set[ProcessId] = set()
        # round -> sender -> vector items (phase 1); "final" likewise.
        self.received: dict[object, dict[ProcessId, tuple]] = {}
        self.resend_interval = resend_interval
        self.sends_left = {q: resend_rounds for q in env.others}
        self._last_send = -(10**9)
        self.decisions = Resends(0)

    # -- messaging -----------------------------------------------------------

    def _payload(self) -> tuple:
        """Cumulative state: every round's vector this process has completed.

        Retransmitting the cumulative state (rather than per-round
        deltas) keeps slow processes able to catch up even after this
        process has moved on -- the fair-lossy adaptation.
        """
        entries = []
        for r in range(1, self.round + 1):
            entries.append((r, tuple(sorted(self.vector.items()))))
        if self.in_final_phase or self.decided is not None:
            entries.append(("final", tuple(sorted(self.vector.items()))))
        return tuple(entries)

    def _broadcast_state(self, *, force: bool = False) -> None:
        if not force and self.env.now - self._last_send < self.resend_interval:
            return
        sent = False
        for q in self.env.others:
            if self.sends_left[q] <= 0:
                continue
            self.sends_left[q] -= 1
            self.env.send(q, Message(VECTOR, self._payload()))
            sent = True
        if sent:
            self._last_send = self.env.now

    # -- hooks ----------------------------------------------------------------

    def on_start(self) -> None:
        self._broadcast_state(force=True)

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self.ever_suspected |= report.suspects
            self._advance()

    def on_receive(self, sender: ProcessId, message: Message) -> None:
        if message.kind == DECIDE:
            self._decide(message.payload)
            return
        if message.kind != VECTOR:
            return
        for tag, items in message.payload:
            self.received.setdefault(tag, {})[sender] = items
        self._advance()

    def on_tick(self) -> None:
        self._broadcast_state()
        self._advance()
        if self.decisions.due(self.env.now):
            self.decisions.flush(self.env)

    def wants_to_act(self) -> bool:
        if self.decided is not None:
            return bool(self.decisions.left)
        return any(left > 0 for left in self.sends_left.values())

    # -- the algorithm -----------------------------------------------------------

    def _round_complete(self, tag) -> bool:
        got = self.received.get(tag, {})
        return all(
            q in got or q in self.ever_suspected for q in self.env.others
        )

    def _advance(self) -> None:
        if self.decided is not None:
            return
        progressed = True
        while progressed:
            progressed = False
            if not self.in_final_phase and self.round <= self.total_rounds:
                if self._round_complete(self.round):
                    for items in self.received.get(self.round, {}).values():
                        self.vector.update(dict(items))
                    self.round += 1
                    if self.round > self.total_rounds:
                        self.in_final_phase = True
                    self._broadcast_state(force=True)
                    progressed = True
            elif self.in_final_phase:
                if self._round_complete("final"):
                    finals = [dict(self.vector)]
                    for q, items in self.received.get("final", {}).items():
                        if q not in self.ever_suspected:
                            finals.append(dict(items))
                    common = set(finals[0])
                    for f in finals[1:]:
                        common &= set(f)
                    if not common:
                        return  # cannot happen under weak accuracy
                    chosen = min(common)
                    self._decide(finals[0][chosen])
                    return

    def _decide(self, value) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.env.perform(decide_action(value))
        self.decisions = decision_sends(self.env, value)
        self.decisions.flush(self.env)


# ---------------------------------------------------------------------------
# CT rotating-coordinator consensus with <>S (t < n/2)
# ---------------------------------------------------------------------------


class RotatingCoordinatorConsensus(ProtocolProcess):
    """<>S rotating-coordinator consensus; requires a majority of correct
    processes.  With no (or a never-stabilising) detector the rounds
    starve and the run ends undecided -- the executable face of FLP.

    Round r's coordinator is ``processes[r % n]``.  Phase 1: everyone
    sends it their (estimate, ts).  Phase 2: with a majority of them it
    sends everyone the freshest estimate.  Phase 3: a process adopts that
    estimate and acks it, or nacks a coordinator it suspects, and moves
    on.  Phase 4: a majority of acks decides; a nack among a majority of
    replies moves the coordinator on too.

    Fair-lossy adaptation: every protocol message is entered into a
    resend table and retransmitted (paced, with a per-message budget that
    comfortably exceeds the channel's fairness budget) until the process
    decides.  That preserves the algorithm's waits: a coordinator stuck
    waiting for acks keeps receiving the retransmitted replies even from
    processes that have moved to later rounds.
    """

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        *,
        value,
        max_rounds: int = 150,
        resend_interval: int = 3,
        resend_rounds: int = 10,
    ) -> None:
        super().__init__(pid, env)
        self.max_rounds = max_rounds
        self.resend_rounds = resend_rounds
        self.estimate = value
        self.ts = -1  # below every round: never locked
        self.round = 0
        #: round -> sender -> (estimate, ts), at the round's coordinator
        self.estimates: dict[int, dict[ProcessId, tuple]] = {}
        self.acks: dict[int, set[ProcessId]] = {}
        self.nacks: dict[int, set[ProcessId]] = {}
        self.sent_p1: set[int] = set()
        self.sent_p2: set[int] = set()
        self.replied: set[int] = set()
        self.decided = None
        self.current_suspects: frozenset[ProcessId] = frozenset()
        self.resends = Resends(resend_interval)
        self.decisions = Resends(0)

    def _emit(self, target: ProcessId, message: Message) -> None:
        self.resends.emit(self.env, target, message, self.resend_rounds)

    def _coordinator(self, rnd: int) -> ProcessId:
        processes = self.env.processes
        return processes[rnd % len(processes)]

    # -- hooks --------------------------------------------------------------------

    def on_start(self) -> None:
        self._drive()

    def on_suspect(self, report: Suspicion) -> None:
        if isinstance(report, StandardSuspicion):
            self.current_suspects = report.suspects
            self._drive()

    def on_receive(self, sender: ProcessId, message: Message) -> None:
        kind, payload = message.kind, message.payload
        if kind == DECIDE:
            self._decide(payload)
            return
        if kind == P1:
            rnd, estimate, ts = payload
            self.estimates.setdefault(rnd, {})[sender] = (estimate, ts)
        elif kind == P2:
            rnd, estimate = payload
            if rnd >= self.round and rnd not in self.replied:
                self.estimate = estimate
                self.ts = rnd
                self.replied.add(rnd)
                self._emit(self._coordinator(rnd), Message(ACK, rnd))
                self.round = max(self.round, rnd + 1)
        elif kind == ACK:
            self.acks.setdefault(payload, set()).add(sender)
        elif kind == NACK:
            self.nacks.setdefault(payload, set()).add(sender)
        self._drive()

    def on_tick(self) -> None:
        self._drive()
        now = self.env.now
        for table in (self.resends, self.decisions):
            if table.due(now):
                table.flush(self.env)

    def wants_to_act(self) -> bool:
        if self.decided is not None:
            return bool(self.decisions.left)
        return bool(self.resends.left)

    def _drive(self) -> None:
        """Play rounds as far as the messages in hand allow, and decide
        once a majority acked this process's phase-2 estimate."""
        if self.decided is not None:
            return
        pid = self.pid
        majority = len(self.env.processes) // 2 + 1
        progressed = True
        while progressed and self.round < self.max_rounds:
            progressed = False
            rnd = self.round
            coord = self._coordinator(rnd)
            if coord != pid:
                if rnd not in self.sent_p1:
                    self.sent_p1.add(rnd)
                    self._emit(coord, Message(P1, (rnd, self.estimate, self.ts)))
                if rnd not in self.replied and coord in self.current_suspects:
                    self.replied.add(rnd)
                    self._emit(coord, Message(NACK, rnd))
                    self.round += 1
                    progressed = True
                continue
            estimates = self.estimates.setdefault(rnd, {})
            estimates[pid] = (self.estimate, self.ts)
            acks = self.acks.setdefault(rnd, set())
            if rnd not in self.sent_p2 and len(estimates) >= majority:
                best, _ = max(estimates.values(), key=lambda et: et[1])
                self.sent_p2.add(rnd)
                self.estimate = best
                self.ts = rnd
                acks.add(pid)  # own implicit ack
                self.replied.add(rnd)
                message = Message(P2, (rnd, best))
                for q in self.env.others:
                    self._emit(q, message)
            if rnd in self.sent_p2:
                if len(acks) >= majority:
                    self._decide(self.estimate)
                    return
                nacks = self.nacks.get(rnd)
                if nacks and len(acks) + len(nacks) >= majority:
                    self.round += 1
                    progressed = True

    def _decide(self, value) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.resends.left.clear()
        self.env.perform(decide_action(value))
        self.decisions = decision_sends(self.env, value)


# ---------------------------------------------------------------------------
# Outcome checkers
# ---------------------------------------------------------------------------


def consensus_outcome(run: Run) -> dict[ProcessId, object]:
    """process -> decided value, for the processes that decided."""
    outcome = {}
    for p in run.processes:
        for event in run.events(p):
            if isinstance(event, DoEvent) and event.action[0] == "decide":
                outcome[p] = event.action[1]
                break
    return outcome


def check_consensus(
    run: Run, proposals: dict[ProcessId, object]
) -> PropertyVerdict:
    """Termination (every correct process decides), uniform agreement
    (no two decided values differ), and validity (decisions were proposed)."""
    outcome = consensus_outcome(run)
    for p in sorted(run.correct()):
        if p not in outcome:
            return PropertyVerdict.fail(f"correct {p} never decided")
    values = set(outcome.values())
    if len(values) > 1:
        return PropertyVerdict.fail(f"conflicting decisions: {values}")
    if values and not values <= set(proposals.values()):
        return PropertyVerdict.fail(
            f"decided value {values} was never proposed"
        )
    return PropertyVerdict.ok()


@dataclass(frozen=True)
class ConsensusProtocol:
    """Picklable factory form of :func:`consensus_factory` (see
    :class:`repro.sim.process.UniformProtocol` for the rationale)."""

    cls: type
    values: tuple[tuple[ProcessId, object], ...]
    kwargs: tuple[tuple[str, object], ...] = ()

    def __call__(self, pid: ProcessId, env: ProcessEnv):
        return self.cls(
            pid, env, value=dict(self.values)[pid], **dict(self.kwargs)
        )


def consensus_factory(cls, values: dict[ProcessId, object], **kwargs):
    """A joint-protocol factory giving each process its proposal."""
    return ConsensusProtocol(
        cls, tuple(sorted(values.items())), tuple(sorted(kwargs.items()))
    )
