"""Unit tests for channels: loss, delay, and the R5 fairness budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.context import ChannelSemantics
from repro.model.events import Message
from repro.sim.network import (
    ChannelConfig,
    Envelope,
    FairLossyChannel,
    ReliableChannel,
    UnfairChannel,
    make_channel,
)


def rng():
    return random.Random(0)


class TestReliableChannel:
    def test_never_drops(self):
        ch = ReliableChannel(rng())
        for i in range(50):
            ch.submit("p1", "p2", Message("m", i), tick=0)
        assert ch.dropped_count == 0
        assert ch.in_flight_to(["p2"]) == 50

    def test_delay_bounds(self):
        ch = ReliableChannel(rng(), min_delay=2, max_delay=5)
        ch.submit("p1", "p2", Message("m"), tick=10)
        env = ch.deliverable("p2", 100)[0]
        assert 12 <= env.deliver_at <= 15

    def test_not_deliverable_before_delay(self):
        ch = ReliableChannel(rng(), min_delay=3, max_delay=3)
        ch.submit("p1", "p2", Message("m"), tick=0)
        assert ch.deliverable("p2", 2) == []
        assert len(ch.deliverable("p2", 3)) == 1

    def test_consume_removes(self):
        ch = ReliableChannel(rng(), min_delay=1, max_delay=1)
        ch.submit("p1", "p2", Message("m"), tick=0)
        env = ch.deliverable("p2", 5)[0]
        ch.consume(env)
        assert ch.deliverable("p2", 5) == []
        assert ch.delivered_count == 1

    def test_discard_for_crashed(self):
        ch = ReliableChannel(rng())
        ch.submit("p1", "p2", Message("m"), tick=0)
        ch.discard_for("p2")
        assert ch.in_flight_to(["p2"]) == 0

    def test_bad_delays_rejected(self):
        with pytest.raises(ValueError):
            ReliableChannel(rng(), min_delay=0, max_delay=3)
        with pytest.raises(ValueError):
            ReliableChannel(rng(), min_delay=5, max_delay=3)


class TestFairLossyChannel:
    def test_fairness_budget_forces_acceptance(self):
        # With drop probability 1 the budget is the only reason anything
        # gets through: exactly every (budget+1)-th copy is accepted.
        ch = FairLossyChannel(rng(), drop_prob=0.999999, max_consecutive_drops=3)
        msg = Message("m")
        for i in range(12):
            ch.submit("p1", "p2", msg, tick=i)
        assert ch.in_flight_to(["p2"]) == 3  # copies 4, 8, 12
        assert ch.dropped_count == 9

    def test_budget_per_message_key(self):
        ch = FairLossyChannel(rng(), drop_prob=0.999999, max_consecutive_drops=2)
        for i in range(3):
            ch.submit("p1", "p2", Message("a"), tick=i)
            ch.submit("p1", "p2", Message("b"), tick=i)
        # Each key independently forced on its 3rd copy.
        assert ch.in_flight_to(["p2"]) == 2

    def test_acceptance_resets_streak(self):
        ch = FairLossyChannel(rng(), drop_prob=0.0, max_consecutive_drops=1)
        for i in range(5):
            ch.submit("p1", "p2", Message("m"), tick=i)
        assert ch.in_flight_to(["p2"]) == 5

    def test_zero_budget_accepts_everything(self):
        ch = FairLossyChannel(rng(), drop_prob=0.9, max_consecutive_drops=0)
        for i in range(20):
            ch.submit("p1", "p2", Message("m"), tick=i)
        assert ch.in_flight_to(["p2"]) == 20

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FairLossyChannel(rng(), drop_prob=1.0)
        with pytest.raises(ValueError):
            FairLossyChannel(rng(), drop_prob=-0.1)
        with pytest.raises(ValueError):
            FairLossyChannel(rng(), max_consecutive_drops=-1)

    def test_deliverable_sorted_oldest_first(self):
        ch = FairLossyChannel(rng(), drop_prob=0.0, min_delay=1, max_delay=1)
        for i in range(5):
            ch.submit("p1", "p2", Message("m", i), tick=i)
        ready = ch.deliverable("p2", 100)
        assert [e.message.payload for e in ready] == [0, 1, 2, 3, 4]


class TestUnfairChannel:
    def test_blackhole_swallows_matching(self):
        ch = UnfairChannel(rng(), blackhole=lambda s, r, m: r == "p2")
        ch.submit("p1", "p2", Message("m"), tick=0)
        ch.submit("p1", "p3", Message("m"), tick=0)
        assert ch.in_flight_to(["p2"]) == 0
        assert ch.in_flight_to(["p3"]) == 1
        assert ch.dropped_count == 1

    def test_blackhole_never_relents(self):
        ch = UnfairChannel(rng(), blackhole=lambda s, r, m: True)
        for i in range(100):
            ch.submit("p1", "p2", Message("m"), tick=i)
        assert ch.in_flight_to(["p2"]) == 0


class TestMakeChannel:
    def test_dispatch(self):
        assert isinstance(
            make_channel(ChannelConfig(semantics=ChannelSemantics.RELIABLE), rng()),
            ReliableChannel,
        )
        assert isinstance(
            make_channel(ChannelConfig(semantics=ChannelSemantics.FAIR_LOSSY), rng()),
            FairLossyChannel,
        )
        assert isinstance(
            make_channel(ChannelConfig(semantics=ChannelSemantics.UNFAIR), rng()),
            UnfairChannel,
        )

    def test_unfair_default_blackhole_drops_all(self):
        ch = make_channel(ChannelConfig(semantics=ChannelSemantics.UNFAIR), rng())
        ch.submit("p1", "p2", Message("m"), tick=0)
        assert ch.in_flight_to(["p2"]) == 0

    def test_config_parameters_forwarded(self):
        cfg = ChannelConfig(drop_prob=0.999999, max_consecutive_drops=7)
        ch = make_channel(cfg, rng())
        assert ch.max_consecutive_drops == 7


class _FilterAndSort:
    """The channel API as it was before receiver queues were kept
    sorted: every accepted copy is stored, a crashed receiver's too, and
    ``deliverable`` filters and sorts the whole queue."""

    def submit(self, sender, receiver, message, tick):
        if self._should_drop(sender, receiver, message, tick):
            self.dropped_count += 1
            return
        delay = self._rng.randint(self._min_delay, self._max_delay)
        self._in_flight.setdefault(receiver, []).append(
            Envelope(sender, receiver, message, tick, tick + delay, next(self._uid))
        )

    def deliverable(self, receiver, tick):
        pending = self._in_flight.get(receiver)
        if not pending:
            return []
        ready = [e for e in pending if e.deliver_at <= tick]
        ready.sort(key=lambda e: (e.deliver_at, e.uid))
        return ready

    def consume(self, envelope):
        self._in_flight[envelope.receiver].remove(envelope)
        self.delivered_count += 1

    def discard_for(self, receiver):
        self._in_flight.pop(receiver, None)


class _ReferenceFairLossy(_FilterAndSort, FairLossyChannel):
    pass


class _ReferenceReliable(_FilterAndSort, ReliableChannel):
    pass


CHANNEL_PROCS = ("p1", "p2", "p3", "p4")

#: One channel call: (op, advance the tick by, sender, receiver, message
#: or pick).  Messages come from a small pool so that fairness streaks
#: build up on repeated keys; crashes are rare, so that queues of live
#: receivers grow.
channel_ops = st.lists(
    st.tuples(
        st.sampled_from(("submit",) * 6 + ("consume",) * 3 + ("discard",)),
        st.integers(0, 2),
        st.sampled_from(CHANNEL_PROCS),
        st.sampled_from(CHANNEL_PROCS),
        st.integers(0, 3),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=channel_ops,
    seed=st.integers(0, 2**16),
    lossy=st.booleans(),
    drop_prob=st.sampled_from((0.0, 0.4, 0.9)),
    budget=st.integers(0, 3),
    delays=st.sampled_from(((1, 1), (1, 4), (2, 6))),
)
def test_channel_matches_the_filter_and_sort_channel(
    ops, seed, lossy, drop_prob, budget, delays
):
    """Interleaved submits, deliveries and crashes: after each call,
    every live receiver's ``deliverable`` list equals the reference's
    (uids aside: a copy to a crashed receiver takes none), and the
    channel draws exactly what the reference draws.  As in the
    executor, a crashed receiver is never asked for deliveries."""
    if lossy:
        classes = (FairLossyChannel, _ReferenceFairLossy)
        loss = {"drop_prob": drop_prob, "max_consecutive_drops": budget}
    else:
        classes, loss = (ReliableChannel, _ReferenceReliable), {}
    min_delay, max_delay = delays
    channel, reference = (
        cls(random.Random(seed), min_delay=min_delay, max_delay=max_delay, **loss)
        for cls in classes
    )
    live = list(CHANNEL_PROCS)
    tick = 0
    for op, advance, sender, receiver, value in ops:
        tick += advance
        if op == "submit":
            if sender != receiver:
                message = Message("m", value)
                channel.submit(sender, receiver, message, tick)
                reference.submit(sender, receiver, message, tick)
        elif receiver not in live:
            continue
        elif op == "discard":
            live.remove(receiver)
            channel.discard_for(receiver)
            reference.discard_for(receiver)
        else:
            ready = channel.deliverable(receiver, tick)
            if ready:
                pick = value % len(ready)
                channel.consume(ready[pick])
                reference.consume(reference.deliverable(receiver, tick)[pick])
        for p in live:
            ready = channel.deliverable(p, tick)
            assert [e[:5] for e in ready] == [
                e[:5] for e in reference.deliverable(p, tick)
            ]
    assert channel.in_flight_to(live) == reference.in_flight_to(live)
    assert channel.in_flight_to(CHANNEL_PROCS) == channel.in_flight_to(live)
    assert channel._rng.getstate() == reference._rng.getstate()
    assert channel.dropped_count == reference.dropped_count
    assert channel.delivered_count == reference.delivered_count
