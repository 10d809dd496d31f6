"""Process histories and cuts (Section 2.1).

A *history* for process p is a finite sequence of events performed by p.
A *cut* is a tuple of histories, one per process.  Histories are immutable
and hashable: the indistinguishability relation ``(r,m) ~_p (r',m')`` of
the knowledge semantics is literally equality of p's histories, so we use
histories as dictionary keys.

Representation: a persistent singly-linked list (each history node holds
its last event and its predecessor), so that :meth:`History.append` is
O(1) and the per-time prefix histories of a run share structure instead
of copying.  The hash is maintained incrementally; equality first
compares hash and length, then walks the chains with an identity
shortcut (prefixes of the same run share nodes, so comparisons between
related histories terminate at the shared spine).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Type, TypeVar, overload

from repro.model.events import (
    ActionId,
    CrashEvent,
    DoEvent,
    Event,
    InitEvent,
    Message,
    ProcessId,
    ReceiveEvent,
    SendEvent,
    SuspectEvent,
)

E = TypeVar("E", bound=Event)

_EMPTY_HASH = hash(("history", 0))


class History:
    """An immutable sequence of events at a single process."""

    __slots__ = ("_parent", "_event", "_len", "_hash")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        tip: History | None = None
        for event in events:
            if tip is not None and tip.crashed:
                raise ValueError("cannot append events after a crash event (R4)")
            node = History.__new__(History)
            node._parent = tip
            node._event = event
            node._len = (tip._len if tip is not None else 0) + 1
            node._hash = hash(((tip._hash if tip is not None else _EMPTY_HASH), event))
            tip = node
        if tip is None:
            self._parent = None
            self._event = None
            self._len = 0
            self._hash = _EMPTY_HASH
        else:
            self._parent = tip._parent
            self._event = tip._event
            self._len = tip._len
            self._hash = tip._hash

    # -- construction -------------------------------------------------------

    def append(self, event: Event) -> "History":
        """Return a new history with ``event`` appended (R2 step); O(1)."""
        if self.crashed:
            raise ValueError("cannot append events after a crash event (R4)")
        new = History.__new__(History)
        new._parent = self if self._len else None
        new._event = event
        new._len = self._len + 1
        new._hash = hash((self._hash, event))
        return new

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def _walk_back(self) -> Iterator[Event]:
        """Events in reverse order."""
        node: History | None = self
        while node is not None and node._len:
            event = node._event
            assert event is not None  # _len > 0 implies a stored event
            yield event
            node = node._parent

    @property
    def events(self) -> tuple[Event, ...]:
        """The events in history order (materialized on demand)."""
        return tuple(reversed(list(self._walk_back())))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @overload
    def __getitem__(self, index: int) -> Event: ...

    @overload
    def __getitem__(self, index: slice) -> "History": ...

    def __getitem__(self, index: int | slice) -> "Event | History":
        if isinstance(index, slice):
            return History(self.events[index])
        return self.events[index]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, History):
            return NotImplemented
        if self._hash != other._hash or self._len != other._len:
            return False
        a: History | None = self
        b: History | None = other
        while a is not None and b is not None and a._len:
            if a is b:
                return True  # shared spine: the rest is identical
            if a._event != b._event:
                return False
            a, b = a._parent, b._parent
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"History({list(self.events)!r})"

    # -- queries -----------------------------------------------------------

    @property
    def last(self) -> Event | None:
        return self._event if self._len else None

    @property
    def crashed(self) -> bool:
        """True iff the history ends in a crash event (R4 makes it last)."""
        return self._len > 0 and isinstance(self._event, CrashEvent)

    def is_prefix_of(self, other: "History") -> bool:
        """True iff ``self`` is a (not necessarily strict) prefix of ``other``."""
        if self._len > other._len:
            return False
        node: History | None = other
        while node is not None and node._len > self._len:
            node = node._parent
        if node is None:
            return self._len == 0
        return self == node

    def prefix(self, length: int) -> "History":
        """The prefix with the given number of events (shares structure)."""
        if not 0 <= length <= self._len:
            raise ValueError(f"prefix length {length} out of range")
        if length == 0:
            return EMPTY_HISTORY
        node: History = self
        while node._len > length:
            parent = node._parent
            assert parent is not None  # _len > length >= 1 implies a parent
            node = parent
        return node

    def events_of_type(self, event_type: Type[E]) -> Iterator[E]:
        """Iterate over the events of the given type, in history order."""
        for event in self.events:
            if isinstance(event, event_type):
                yield event

    def count(self, event: Event) -> int:
        """Number of occurrences of ``event`` (used by the R5 checker)."""
        total = 0
        for e in self._walk_back():
            if e == event:
                total += 1
        return total

    def contains(self, event: Event) -> bool:
        """True iff ``event`` occurs anywhere in the history."""
        return any(e == event for e in self._walk_back())

    def index_of(self, event: Event) -> int | None:
        """Index of the first occurrence of ``event``, or None."""
        found: int | None = None
        index = self._len - 1
        for e in self._walk_back():
            if e == event:
                found = index
            index -= 1
        return found

    def find(self, predicate: Callable[[Event], bool]) -> Event | None:
        """First event satisfying ``predicate``, or None."""
        for event in self.events:
            if predicate(event):
                return event
        return None

    # -- paper-specific helpers ---------------------------------------------

    def did(self, action: ActionId) -> bool:
        """True iff ``do(action)`` appears in this history."""
        return any(
            isinstance(e, DoEvent) and e.action == action for e in self._walk_back()
        )

    def inited(self, action: ActionId) -> bool:
        """True iff ``init(action)`` appears in this history."""
        return any(
            isinstance(e, InitEvent) and e.action == action for e in self._walk_back()
        )

    def sent(self, receiver: ProcessId, message: Message | None = None) -> bool:
        """True iff this process sent (any message, or ``message``) to ``receiver``."""
        return any(
            isinstance(e, SendEvent)
            and e.receiver == receiver
            and (message is None or e.message == message)
            for e in self._walk_back()
        )

    def received(self, sender: ProcessId, message: Message | None = None) -> bool:
        """True iff this process received (any message, or ``message``) from ``sender``."""
        return any(
            isinstance(e, ReceiveEvent)
            and e.sender == sender
            and (message is None or e.message == message)
            for e in self._walk_back()
        )

    def latest_suspicion(self, derived: bool = False) -> SuspectEvent | None:
        """Most recent suspect event, restricted to derived / original ones.

        This realises the paper's ``Suspects_p(r, m)`` convention: the
        *most recent* failure-detector event determines the current
        suspicions.
        """
        for event in self._walk_back():
            if isinstance(event, SuspectEvent) and event.derived == derived:
                return event
        return None


EMPTY_HISTORY = History()


class Cut:
    """A tuple of finite process histories, one per process (Section 2.1).

    ``processes`` fixes the ordering; cuts over the same process set are
    comparable and hashable.
    """

    __slots__ = ("_processes", "_histories", "_hash")

    def __init__(
        self,
        processes: tuple[ProcessId, ...],
        histories: Mapping[ProcessId, History],
    ) -> None:
        self._processes = tuple(processes)
        missing = [p for p in self._processes if p not in histories]
        if missing:
            raise ValueError(f"cut is missing histories for {missing}")
        self._histories = tuple(histories[p] for p in self._processes)
        self._hash = hash((self._processes, self._histories))

    @classmethod
    def initial(cls, processes: Iterable[ProcessId]) -> "Cut":
        """The empty cut of R1: every history is empty."""
        procs = tuple(processes)
        return cls(procs, {p: EMPTY_HISTORY for p in procs})

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        return self._processes

    def history(self, process: ProcessId) -> History:
        """This cut's history component for ``process``."""
        try:
            return self._histories[self._processes.index(process)]
        except ValueError:
            raise KeyError(f"unknown process {process!r}") from None

    def __getitem__(self, process: ProcessId) -> History:
        return self.history(process)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._processes == other._processes
            and self._histories == other._histories
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{p}: {len(h)} events" for p, h in zip(self._processes, self._histories)
        )
        return f"Cut({parts})"

    def with_history(self, process: ProcessId, history: History) -> "Cut":
        """Return a new cut with ``process``'s history replaced."""
        mapping = dict(zip(self._processes, self._histories))
        mapping[process] = history
        return Cut(self._processes, mapping)
