"""The protocol interface (Section 2.1: protocols as functions of history).

The paper defines a protocol for p as a function from finite histories to
actions.  The executable form here is event-driven: the executor calls
the ``on_*`` hooks as events are appended to the process's history, and
the hooks react by enqueuing new protocol events (sends, do's) through
the :class:`ProcessEnv`.  The enqueued events are appended to the history
one per tick (condition R2), so the realized run still appends at most
one event per process per time step.

A protocol instance may keep internal state, but that state must be a
function of the local history -- the hooks receive exactly the
information that is in the history, in history order, so this holds by
construction as long as implementations do not consult out-of-band
sources (they are given none).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.model.events import (
    ActionId,
    DoEvent,
    Event,
    Message,
    ProcessId,
    SendEvent,
    Suspicion,
)

#: The clock of a table that has sent nothing yet: long enough ago that
#: its first paced resend is due at once.
NEVER = -(10**9)


class ProcessEnv:
    """What a protocol may do and observe: its local interface.

    Instances are created by the executor, one per process.  ``send`` and
    ``perform`` enqueue events on the process's outbox; the scheduler
    appends them to the history on subsequent ticks.
    """

    def __init__(self, pid: ProcessId, processes: tuple[ProcessId, ...]) -> None:
        self.pid = pid
        self.processes = processes
        self.outbox: deque[Event] = deque()
        self.now: int = 0
        self._performed: set[ActionId] = set()
        self._others = tuple(p for p in processes if p != pid)
        # One SendEvent per (receiver, message): retransmissions append
        # the same (immutable) event instead of building a new one.
        self._sends: dict[tuple[ProcessId, Message], SendEvent] = {}

    @property
    def others(self) -> tuple[ProcessId, ...]:
        return self._others

    def send(self, receiver: ProcessId, message: Message) -> None:
        """Enqueue ``send_p(receiver, message)``."""
        key = (receiver, message)
        event = self._sends.get(key)
        if event is None:
            if receiver == self.pid:
                raise ValueError("processes do not send messages to themselves")
            if receiver not in self.processes:
                raise ValueError(f"unknown receiver {receiver!r}")
            event = self._sends[key] = SendEvent(self.pid, receiver, message)
        self.outbox.append(event)

    def broadcast(self, message: Message) -> None:
        """Enqueue a send to every other process."""
        for q in self.others:
            self.send(q, message)

    def perform(self, action: ActionId) -> None:
        """Enqueue ``do_p(action)``.  Idempotent: a second perform of the
        same action is ignored, matching the protocols in the paper which
        enter a UDC(alpha) state once."""
        if action in self._performed:
            return
        self._performed.add(action)
        self.outbox.append(DoEvent(self.pid, action))

    def has_performed(self, action: ActionId) -> bool:
        """Has ``perform(action)`` already been issued?"""
        return action in self._performed

    @property
    def outbox_size(self) -> int:
        return len(self.outbox)


@dataclass(slots=True)
class Resends:
    """Bounded, paced retransmission: the copies a process still owes.

    Every protocol here meets fair-lossy channels the same way: resend
    until acknowledged, a bounded number of copies ``interval`` ticks
    apart.  ``left`` maps each owed key to its copies still owed, in
    the order the keys were queued, which is the order :meth:`flush`
    sends them; a key leaves it when acknowledged or spent.  ``sends``
    maps every key ever queued to its ``(target, message)``; callers
    queue a key once, so its message never changes and snapshots may
    share the dict.  ``last`` is when copies last went out.
    """

    interval: int
    left: dict[object, int] = field(default_factory=dict)
    sends: dict[object, tuple[ProcessId, Message]] = field(default_factory=dict)
    last: int = NEVER

    def add(self, key: object, target: ProcessId, message: Message, copies: int) -> None:
        """Owe ``copies`` copies of ``message`` to ``target``, none sent yet."""
        self.sends[key] = (target, message)
        if copies > 0:
            self.left[key] = copies

    def emit(self, env: ProcessEnv, target: ProcessId, message: Message, copies: int) -> None:
        """Send ``message`` to ``target`` now and owe ``copies - 1`` more,
        keyed by the pair, unless the pair was ever queued (spent or
        not).  The clock is left alone."""
        key = (target, message)
        if key not in self.sends:
            self.add(key, target, message, copies - 1)
            env.send(target, message)

    def discard(self, key: object) -> None:
        """Owe nothing more under ``key``: it was acknowledged."""
        self.left.pop(key, None)

    def due(self, now: int) -> bool:
        """Are copies owed, the last sent ``interval`` ticks ago?"""
        return bool(self.left) and now - self.last >= self.interval

    def flush(self, env: ProcessEnv) -> None:
        """Send one copy under every owed key, in queue order; restart
        the clock if any went out."""
        left, sends = self.left, self.sends
        if not left:
            return
        spent = []
        for key, copies in left.items():
            env.send(*sends[key])
            if copies > 1:
                left[key] = copies - 1
            else:
                spent.append(key)
        for key in spent:
            del left[key]
        self.last = env.now


class ProtocolProcess:
    """Base class for per-process protocol logic.

    Subclasses override the ``on_*`` hooks.  The executor guarantees:

    * ``on_start`` is called once before the first tick;
    * ``on_init(action)`` when an ``init`` event is appended;
    * ``on_receive(sender, message)`` when a ``recv`` event is appended;
    * ``on_suspect(report)`` when a failure-detector event is appended;
    * ``on_tick()`` on ticks where the process appends no event and has
      an empty outbox (the hook may enqueue retransmissions);
    * ``wants_to_act()`` is consulted by the quiescence detector: return
      True while the protocol still intends to enqueue events in future
      ``on_tick`` calls.  A protocol that never returns False can make a
      run non-terminating; bounded-retransmission variants (see
      :mod:`repro.core.protocols`) always eventually return False.
    """

    def __init__(self, pid: ProcessId, env: ProcessEnv) -> None:
        self.pid = pid
        self.env = env

    # -- lifecycle hooks ---------------------------------------------------

    def on_start(self) -> None:  # pragma: no cover - default no-op
        pass

    def on_init(self, action: ActionId) -> None:  # pragma: no cover
        pass

    def on_receive(self, sender: ProcessId, message: Message) -> None:  # pragma: no cover
        pass

    def on_suspect(self, report: Suspicion) -> None:  # pragma: no cover
        pass

    def on_tick(self) -> None:  # pragma: no cover - default no-op
        pass

    def wants_to_act(self) -> bool:
        return False

    def snapshot(self) -> object | None:
        """This process's mutable state as an immutable value, or None if
        the protocol cannot capture it (the explorer then replays)."""
        return None

    def restore(self, state: object) -> None:
        """Replace this process's state with fresh containers built from
        a value :meth:`snapshot` returned."""
        raise NotImplementedError(f"{type(self).__name__} cannot restore state")


JointProtocolFactory = "Callable[[ProcessId, ProcessEnv], ProtocolProcess]"


@dataclass(frozen=True)
class UniformProtocol:
    """A picklable joint-protocol factory: every process runs the same class.

    Being a frozen dataclass (rather than a closure) makes factories
    picklable -- which :class:`repro.runtime.ProcessPoolBackend` needs to
    ship specs to worker processes -- and gives two factories built from
    the same arguments equal pickles, which keys the run cache.
    """

    cls: type
    kwargs: tuple[tuple[str, object], ...] = ()

    def __call__(self, pid: ProcessId, env: ProcessEnv) -> ProtocolProcess:
        return self.cls(pid, env, **dict(self.kwargs))


def uniform_protocol(cls: type, /, **kwargs: object) -> UniformProtocol:
    """A joint-protocol factory where every process runs ``cls(pid, env, **kwargs)``."""
    return UniformProtocol(cls, tuple(sorted(kwargs.items())))
