"""Network channels: message loss, delay, and the R5 fairness budget.

The paper assumes a completely connected network of channels that do not
corrupt messages but may lose them, subject to fairness R5: a message
sent infinitely often to a correct process is received infinitely often.

On a finite simulation we realise R5 as a *fairness budget*: the
adversary may drop at most ``max_consecutive_drops`` consecutive copies
of the same (sender, receiver, message) triple; the next copy must be
accepted for delivery.  In the limit this implies R5, and on finite runs
it yields the consequence every proof in the paper actually uses --
persistent retransmission to a live process succeeds (see DESIGN.md,
substitution 2).

Three channel classes:

* :class:`ReliableChannel`   -- never drops (Proposition 2.4 contexts).
* :class:`FairLossyChannel`  -- drops with probability ``drop_prob``,
  clamped by the fairness budget (the paper's default context).
* :class:`UnfairChannel`     -- may drop everything matching a predicate;
  violates R5 and exists only for the fairness ablation A14.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from repro.model.context import ChannelSemantics
from repro.model.events import Message, ProcessId

#: A channel key identifies "the same message" for fairness accounting.
ChannelKey = tuple[ProcessId, ProcessId, Message]


class Envelope(NamedTuple):
    """A message copy in flight."""

    sender: ProcessId
    receiver: ProcessId
    message: Message
    sent_at: int
    deliver_at: int
    uid: int


#: An envelope's ``deliver_at``, the key its receiver's queue is sorted by.
_DELIVER_AT = itemgetter(4)


class NetworkChannel(ABC):
    """Common behaviour: delay assignment, in-flight tracking, delivery.

    Subclasses decide, per submitted copy, whether it is dropped.  All
    channels assign each accepted copy a delivery delay drawn uniformly
    from [min_delay, max_delay]; asynchrony beyond that bound is modelled
    by the adversary's freedom in *when* a deliverable envelope is
    actually consumed (the executor delivers at most one message per
    process per tick and may prefer others).
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        min_delay: int = 1,
        max_delay: int = 4,
    ) -> None:
        if not 1 <= min_delay <= max_delay:
            raise ValueError("delays must satisfy 1 <= min_delay <= max_delay")
        self._rng = rng
        self._min_delay = min_delay
        self._max_delay = max_delay
        self._uid = itertools.count()
        # Per receiver, the copies in flight in (deliver_at, uid) order.
        self._in_flight: dict[ProcessId, list[Envelope]] = {}
        # Receivers :meth:`discard_for` has emptied: crashed, so nothing
        # addressed to them is kept.
        self._discarded: set[ProcessId] = set()
        self.dropped_count = 0
        self.delivered_count = 0

    # -- subclass hook ------------------------------------------------------

    @abstractmethod
    def _should_drop(
        self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int
    ) -> bool:
        """Decide the fate of one copy submitted at ``tick``."""

    # -- API used by the executor ---------------------------------------------

    def submit(self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int) -> None:
        """A send event occurred; the copy enters the channel or is lost.

        A copy to a crashed receiver draws its fate and its delay like any
        other (the draws are part of the run), but is not kept: it could
        never be delivered.
        """
        if self._should_drop(sender, receiver, message, tick):
            self.dropped_count += 1
            return
        deliver_at = tick + self._rng.randint(self._min_delay, self._max_delay)
        if receiver in self._discarded:
            return
        envelope = Envelope(sender, receiver, message, tick, deliver_at, next(self._uid))
        queue = self._in_flight.get(receiver)
        if queue is None:
            self._in_flight[receiver] = [envelope]
            return
        # The new uid is the largest, so the copy goes after every copy
        # due no later than it: scan back from the tail, where it
        # usually belongs.
        index = len(queue)
        while index and queue[index - 1].deliver_at > deliver_at:
            index -= 1
        queue.insert(index, envelope)

    def deliverable(self, receiver: ProcessId, tick: int) -> list[Envelope]:
        """Envelopes for ``receiver`` whose delay has elapsed, oldest first
        (by ``deliver_at``, then submission): a prefix of its queue."""
        pending = self._in_flight.get(receiver)
        if not pending:
            return []
        return pending[: bisect_right(pending, tick, key=_DELIVER_AT)]

    def consume(self, envelope: Envelope) -> None:
        """Remove a delivered envelope from flight."""
        self._in_flight[envelope.receiver].remove(envelope)
        self.delivered_count += 1

    def discard_for(self, receiver: ProcessId) -> None:
        """Drop everything addressed to a crashed process, now and later."""
        self._in_flight.pop(receiver, None)
        self._discarded.add(receiver)

    def in_flight_to(self, receivers: Iterable[ProcessId]) -> int:
        """Number of undelivered envelopes addressed to these receivers."""
        return sum(len(self._in_flight.get(r, ())) for r in receivers)


class ReliableChannel(NetworkChannel):
    """Never loses a message (the context of Proposition 2.4)."""

    def _should_drop(
        self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int
    ) -> bool:
        return False


@dataclass(frozen=True)
class Partition:
    """A transient network partition: during [start, end) every message
    crossing the boundary between ``group`` and its complement is lost.

    Partitions are *finite*, so R5 survives: a persistently
    retransmitted message is delivered once the partition heals (the
    fairness budget resumes counting then).
    """

    start: int
    end: int
    group: frozenset[ProcessId]

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("a partition needs 0 <= start < end")
        if not isinstance(self.group, frozenset):
            object.__setattr__(self, "group", frozenset(self.group))

    def severs(self, sender: ProcessId, receiver: ProcessId, tick: int) -> bool:
        """Does this partition cut the (sender, receiver) link now?"""
        return (
            self.start <= tick < self.end
            and (sender in self.group) != (receiver in self.group)
        )


class FairLossyChannel(NetworkChannel):
    """Lossy channel with the R5 fairness budget.

    Each copy of (sender, receiver, message) is dropped with probability
    ``drop_prob``, except that after ``max_consecutive_drops`` back-to-
    back drops of the same key the next copy is always accepted.  A
    successful acceptance resets the key's budget.

    Optional ``partitions``: while a partition is active, cross-boundary
    copies are always dropped and do not count against the budget (the
    budget's forced acceptance resumes after healing, which preserves
    R5 because partitions are finite).
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        drop_prob: float = 0.4,
        max_consecutive_drops: int = 3,
        min_delay: int = 1,
        max_delay: int = 4,
        partitions: tuple["Partition", ...] = (),
    ) -> None:
        super().__init__(rng, min_delay=min_delay, max_delay=max_delay)
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if max_consecutive_drops < 0:
            raise ValueError("max_consecutive_drops must be non-negative")
        self._drop_prob = drop_prob
        self._budget = max_consecutive_drops
        self._consecutive: dict[ChannelKey, int] = {}
        self._partitions = tuple(partitions)

    @property
    def max_consecutive_drops(self) -> int:
        return self._budget

    def _should_drop(
        self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int
    ) -> bool:
        if self._partitions and any(
            p.severs(sender, receiver, tick) for p in self._partitions
        ):
            return True  # outside the fairness budget; partitions are finite
        key = (sender, receiver, message)
        streak = self._consecutive.get(key, 0)
        if streak >= self._budget:
            self._consecutive[key] = 0
            return False
        if self._rng.random() < self._drop_prob:
            self._consecutive[key] = streak + 1
            return True
        self._consecutive[key] = 0
        return False


class UnfairChannel(NetworkChannel):
    """A channel that violates R5: drops every copy matching ``blackhole``.

    Used only by the fairness ablation (A14); runs generated under it are
    not systems in the paper's sense and the R5 validator will reject
    them when the blackhole swallowed a persistently retransmitted
    message.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        blackhole: Callable[[ProcessId, ProcessId, Message], bool],
        min_delay: int = 1,
        max_delay: int = 4,
    ) -> None:
        super().__init__(rng, min_delay=min_delay, max_delay=max_delay)
        self._blackhole = blackhole

    def _should_drop(
        self, sender: ProcessId, receiver: ProcessId, message: Message, tick: int
    ) -> bool:
        return self._blackhole(sender, receiver, message)


@dataclass(frozen=True)
class ChannelConfig:
    """Serializable channel parameters, resolved by :func:`make_channel`."""

    semantics: ChannelSemantics = ChannelSemantics.FAIR_LOSSY
    drop_prob: float = 0.4
    max_consecutive_drops: int = 3
    min_delay: int = 1
    max_delay: int = 4
    partitions: tuple = ()
    blackhole: Callable[[ProcessId, ProcessId, Message], bool] | None = field(
        default=None, compare=False
    )


def make_channel(config: ChannelConfig, rng: random.Random) -> NetworkChannel:
    """Instantiate the channel a :class:`ChannelConfig` describes."""
    if config.semantics is ChannelSemantics.RELIABLE:
        return ReliableChannel(
            rng, min_delay=config.min_delay, max_delay=config.max_delay
        )
    if config.semantics is ChannelSemantics.FAIR_LOSSY:
        return FairLossyChannel(
            rng,
            drop_prob=config.drop_prob,
            max_consecutive_drops=config.max_consecutive_drops,
            min_delay=config.min_delay,
            max_delay=config.max_delay,
            partitions=config.partitions,
        )
    if config.semantics is ChannelSemantics.UNFAIR:
        blackhole = config.blackhole or (lambda s, r, m: True)
        return UnfairChannel(
            rng,
            blackhole=blackhole,
            min_delay=config.min_delay,
            max_delay=config.max_delay,
        )
    raise ValueError(f"unknown channel semantics {config.semantics!r}")
