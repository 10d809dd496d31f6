"""``Resends`` against the loops it replaced.

Before the table, each protocol kept its own retransmission loop.  The
reference below is those loops written out once more: ``_emit``'s
once-per-key rule (rotating-coordinator consensus), the per-target
budgets filled when an action was joined or a suspicion learned (UDC,
suspicion gossip), acks that exempt a key from every later resend, and
the ``_pace``/``_resend`` pass that sends one copy under every key with
copies left and restarts the clock only if something went out.

The property drives both through the same random calls at rising ticks
and, after each call, compares the sends (target and message, in order),
the clock, and whether anything is still owed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.events import Message
from repro.sim.process import ProcessEnv, Resends

PROCESSES = ("p0", "p1", "p2", "p3")
NEVER = -(10**9)


class ReferenceLoops:
    """The pre-table retransmission code, one entry per key."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        #: key -> [target, message, copies_remaining] (``_outgoing``)
        self.outgoing: dict[object, list] = {}
        self.acked: set[object] = set()
        self.last = NEVER

    def add(self, key, target, message, copies: int) -> None:
        # ``sends_left[q] = resend_rounds`` when a state is made
        self.outgoing[key] = [target, message, copies]

    def emit(self, env: ProcessEnv, target, message, copies: int) -> None:
        key = (target, message)  # ``_emit``'s keys name one send each
        if key in self.outgoing:
            return
        self.outgoing[key] = [target, message, copies - 1]
        env.send(target, message)

    def discard(self, key) -> None:
        self.acked.add(key)  # ``_resend`` skips ``q in st.acked_by``

    def owed(self) -> bool:
        return any(
            entry[2] > 0 and key not in self.acked
            for key, entry in self.outgoing.items()
        )

    def due(self, now: int) -> bool:
        return self.owed() and now - self.last >= self.interval

    def flush(self, env: ProcessEnv) -> None:
        sent = False
        for key, entry in self.outgoing.items():
            if key in self.acked or entry[2] <= 0:
                continue
            entry[2] -= 1
            env.send(entry[0], entry[1])
            sent = True
        if sent:
            self.last = env.now


KEYS = st.integers(0, 7)
TARGETS = st.sampled_from(PROCESSES[1:])
COPIES = st.integers(0, 4)
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), KEYS, TARGETS, COPIES),
        st.tuples(st.just("emit"), KEYS, TARGETS, COPIES),
        st.tuples(st.just("discard"), KEYS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("tick"), st.integers(0, 5)),
    ),
    max_size=60,
)


def sends(env: ProcessEnv) -> list:
    return [(event.receiver, event.message) for event in env.outbox]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4), CALLS)
def test_table_sends_what_the_loops_sent(interval, calls):
    table, reference = Resends(interval), ReferenceLoops(interval)
    env, ref_env = ProcessEnv("p0", PROCESSES), ProcessEnv("p0", PROCESSES)
    now = 0
    for call in calls:
        op, args = call[0], call[1:]
        if op == "tick":
            now += args[0]
            env.now = ref_env.now = now
            # ``on_tick``: resend only when due
            assert table.due(now) == reference.due(now)
            if table.due(now):
                table.flush(env)
                reference.flush(ref_env)
        elif op == "flush":  # a join sends at once, whatever the clock
            table.flush(env)
            reference.flush(ref_env)
        elif op == "discard":  # an ack answers a copy already queued
            if args[0] not in reference.outgoing:
                continue
            table.discard(args[0])
            reference.discard(args[0])
        else:
            key, target, copies = args
            message = Message("m", key)
            if op == "add":
                if key in reference.outgoing:
                    continue  # callers fill a key's budget once
                table.add(key, target, message, copies)
                reference.add(key, target, message, copies)
            else:
                table.emit(env, target, message, copies)
                reference.emit(ref_env, target, message, copies)
        assert sends(env) == sends(ref_env)
        assert table.last == reference.last
        assert bool(table.left) == reference.owed()


def test_interval_zero_resends_on_every_call():
    """The decision sends: one copy per ``on_tick``, even in the tick of
    the decision's first copy."""
    env = ProcessEnv("p0", PROCESSES)
    table = Resends(0)
    for q in env.others:
        table.add(q, q, Message("dec", "v"), 2)
    table.flush(env)
    assert table.due(env.now)
    table.flush(env)
    assert not table.due(env.now) and not table.left
    assert len(env.outbox) == 2 * len(env.others)
