"""Runs, points, and the R1--R5 well-formedness conditions (Section 2.1).

A run is a function from time (natural numbers) to cuts.  We represent a
run compactly by each process's *timeline* -- the sequence of
``(time, event)`` pairs at which its history grows -- together with a
finite ``duration`` (the horizon up to which the run was observed).  By
condition R2 a process appends at most one event per tick, so timelines
have strictly increasing times.

Finite-horizon convention
-------------------------
The paper's runs are infinite.  Our simulated runs are finite prefixes
driven to *quiescence* (see :mod:`repro.sim.executor`); all temporal
operators are evaluated with the convention that the final cut repeats
forever.  This is exact for the stable formulas the paper's properties
are built from (``send``, ``recv``, ``crash``, ``do``, ``init`` are all
stable), and DESIGN.md Section 3 records the substitution.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.model.events import (
    ActionId,
    CrashEvent,
    Event,
    InitEvent,
    Message,
    ProcessId,
    ReceiveEvent,
    SendEvent,
)
from repro.model.history import Cut, EMPTY_HISTORY, History

Timeline = tuple[tuple[int, Event], ...]


class RunValidationError(ValueError):
    """Raised when a run violates one of R1--R5."""


class Run:
    """A finite-horizon run: per-process timelines plus a duration.

    ``meta`` carries executor ground truth (random seed, planned failure
    set, detector class, ...) and is deliberately excluded from equality
    and hashing: two runs are the same run iff they assign the same cut to
    every time.
    """

    __slots__ = (
        "_processes",
        "_timelines",
        "_duration",
        "meta",
        "_hash",
        "_prefixes",
        "_crash_masks",
        "_timeline_columns",
    )

    def __init__(
        self,
        processes: Iterable[ProcessId],
        timelines: Mapping[ProcessId, Iterable[tuple[int, Event]]],
        duration: int,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self._processes: tuple[ProcessId, ...] = tuple(processes)
        self._timelines: dict[ProcessId, Timeline] = {
            p: tuple(timelines.get(p, ())) for p in self._processes
        }
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._duration = duration
        self.meta: dict[str, Any] = dict(meta or {})
        self._hash = hash(
            (
                self._processes,
                tuple(self._timelines[p] for p in self._processes),
                self._duration,
            )
        )
        # R4 at construction time (History.append would also raise, but
        # the prefix index is built lazily now): crash ends the timeline.
        for p, timeline in self._timelines.items():
            for _, event in timeline[:-1]:
                if isinstance(event, CrashEvent):
                    raise ValueError(f"{p} has events after its crash (R4)")
        # Per-process incremental prefix histories: _prefixes[p] is a list
        # where entry i is the history after the first i timeline events.
        # Built lazily per process: the explorer constructs (and dedups)
        # far more runs than the knowledge kernel ever queries.
        self._prefixes: dict[ProcessId, list[History]] = {}
        self._crash_masks: tuple[int, ...] | None = None
        self._timeline_columns: (
            tuple[tuple[Event, ...], list[int], list[int], list[int]] | None
        ) = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._processes == other._processes
            and self._duration == other._duration
            and self._timelines == other._timelines
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(
        self,
    ) -> tuple[type["Run"], tuple[object, ...]]:
        # Runs cross process boundaries (repro.runtime's pool backend
        # returns them from workers); rebuild from the constructor args
        # rather than shipping the derived prefix-history index.
        return (Run, (self._processes, self._timelines, self._duration, self.meta))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(t) for t in self._timelines.values())
        return f"Run(n={len(self._processes)}, events={total}, duration={self._duration})"

    # -- basic accessors -----------------------------------------------------

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        return self._processes

    @property
    def duration(self) -> int:
        return self._duration

    def timeline(self, process: ProcessId) -> Timeline:
        """The (time, event) pairs of one process, in time order."""
        return self._timelines[process]

    def events(self, process: ProcessId) -> Iterator[Event]:
        """The events of one process, in history order."""
        for _, event in self._timelines[process]:
            yield event

    def all_events(self) -> Iterator[tuple[int, Event]]:
        """All (time, event) pairs across processes, sorted by time."""
        merged = [
            (t, p, e) for p in self._processes for (t, e) in self._timelines[p]
        ]
        merged.sort(key=lambda item: item[0])
        for t, _, e in merged:
            yield t, e

    # -- the run-as-function view --------------------------------------------

    def _event_count_at(self, process: ProcessId, time: int) -> int:
        """Number of events in ``process``'s history at ``time``."""
        if process not in self._timelines:
            raise KeyError(process)
        # One bisect in the process's slice of the cached time column
        # (times strictly increase: count the entries with t <= time).
        _, times, _, lengths = self.timeline_columns()
        j = self._processes.index(process)
        lo = sum(lengths[:j])
        return bisect_right(times, time, lo, lo + lengths[j]) - lo

    def history(self, process: ProcessId, time: int | None = None) -> History:
        """p's history in the cut r(time); the final history if time is None.

        Times beyond the duration return the final history (the
        final-cut-repeats-forever convention).
        """
        if time is None:
            time = self._duration
        if time < 0:
            raise ValueError("time must be non-negative")
        count = self._event_count_at(process, min(time, self._duration))
        return self._prefix_list(process)[count]

    def final_history(self, process: ProcessId) -> History:
        """The process's complete history at the run's duration."""
        return self._prefix_list(process)[-1]

    def _prefix_list(self, process: ProcessId) -> list[History]:
        prefixes = self._prefixes.get(process)
        if prefixes is None:
            prefixes = [EMPTY_HISTORY]
            for _, event in self._timelines[process]:
                prefixes.append(prefixes[-1].append(event))
            self._prefixes[process] = prefixes
        return prefixes

    def cut(self, time: int) -> Cut:
        """The cut r(time)."""
        return Cut(
            self._processes,
            {p: self.history(p, time) for p in self._processes},
        )

    def points(self) -> Iterator["Point"]:
        """All points (r, m) for 0 <= m <= duration."""
        for m in range(self._duration + 1):
            yield Point(self, m)

    # -- failure queries -------------------------------------------------------

    def faulty(self) -> frozenset[ProcessId]:
        """F(r): the processes whose history contains a crash event."""
        return frozenset(
            p for p in self._processes if self.crash_time(p) is not None
        )

    def correct(self) -> frozenset[ProcessId]:
        """Proc - F(r): the processes that never crash."""
        return frozenset(self._processes) - self.faulty()

    def crash_time(self, process: ProcessId) -> int | None:
        """The time of ``process``'s crash event, or None if correct."""
        timeline = self._timelines[process]
        if timeline and isinstance(timeline[-1][1], CrashEvent):
            return timeline[-1][0]
        return None

    def crashed_by(self, process: ProcessId, time: int) -> bool:
        """True iff crash_process is in r_process(time)."""
        ct = self.crash_time(process)
        return ct is not None and ct <= min(time, self._duration)

    def crash_masks(self) -> tuple[int, ...]:
        """Per-time crash bitmasks: ``masks[m]`` has bit ``i`` set iff
        ``processes[i]`` has crashed by time m.

        Bit positions follow the run's process order; :class:`System`
        requires one process tuple per system, so the masks of all its
        runs share a bit layout.  Computed once per run and cached (the
        masks are monotone, so the sweep is O(duration + crashes)).
        """
        masks = self._crash_masks
        if masks is None:
            crash_bits = sorted(
                (ct, 1 << i)
                for i, p in enumerate(self._processes)
                if (ct := self.crash_time(p)) is not None
            )
            out = []
            acc = 0
            j = 0
            for m in range(self._duration + 1):
                while j < len(crash_bits) and crash_bits[j][0] <= m:
                    acc |= crash_bits[j][1]
                    j += 1
                out.append(acc)
            masks = self._crash_masks = tuple(out)
        return masks

    def timeline_columns(
        self,
    ) -> tuple[tuple[Event, ...], list[int], list[int], list[int]]:
        """Flattened timeline columns, cached per run.

        Returns ``(alphabet, times, event_ids, lengths)``: the run's
        distinct events in first-occurrence order, the flat ``(time,
        event_id)`` entries in process order, and each process's entry
        count.  :mod:`repro.columnar` batches runs into arenas by
        remapping these *local* ids into a shared alphabet -- only the
        (small) alphabet is re-hashed per batch, never each occurrence.
        Callers must not mutate the returned lists.
        """
        cols = self._timeline_columns
        if cols is None:
            ids: dict[Event, int] = {}
            intern = ids.setdefault
            times: list[int] = []
            eids: list[int] = []
            lengths: list[int] = []
            for p in self._processes:
                tl = self._timelines[p]
                if tl:
                    times.extend([t for t, _ in tl])
                    eids.extend([intern(e, len(ids)) for _, e in tl])
                lengths.append(len(tl))
            cols = self._timeline_columns = (tuple(ids), times, eids, lengths)
        return cols

    # -- prefix relations -------------------------------------------------------

    def extends(self, other: "Run", time: int) -> bool:
        """True iff this run agrees with ``other`` on all cuts up to ``time``.

        This is the paper's "r' extends (r, m)" relation restricted to
        observed horizons.
        """
        if self._processes != other._processes:
            return False
        horizon = min(time, other._duration)
        if horizon > self._duration:
            return False
        for p in self._processes:
            for m in range(horizon + 1):
                if self.history(p, m) != other.history(p, m):
                    return False
        return True


@dataclass(frozen=True)
class Point:
    """A point (r, m): a run together with a time."""

    run: Run
    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")

    def history(self, process: ProcessId) -> History:
        """The process's local history at this point."""
        return self.run.history(process, self.time)

    def cut(self) -> Cut:
        """The cut r(m) at this point."""
        return self.run.cut(self.time)

    def indistinguishable_to(self, process: ProcessId, other: "Point") -> bool:
        """The relation (r, m) ~_p (r', m'): equality of p's local histories."""
        return self.history(process) == other.history(process)


# ---------------------------------------------------------------------------
# R1--R5 validation
# ---------------------------------------------------------------------------


def validate_run(
    run: Run,
    *,
    r5_send_threshold: int = 5,
    check_r5: bool = True,
) -> None:
    """Check the well-formedness conditions R1--R5 of Section 2.1.

    The :class:`Run` representation enforces only R4 (its constructor
    raises ``ValueError`` on an event after a crash); it takes timelines
    as given.  This function is the reference for every condition:

    * R1: every event lies at time 1 or later, so r(0) is the empty cut.
    * R2: times strictly rise within each timeline (one event per tick),
      and every event in p's timeline belongs to p (ownership).
    * R3: every receive has a corresponding earlier-or-simultaneous send.
    * R4: a crash event is the last event in its history.
    * R5 (finite variant, see :func:`r5_violations`): if p sent the same
      message to a never-crashed q at least ``r5_send_threshold`` times,
      q received it at least once.  No recency is required: a sender
      that stopped early after that many unreceived copies is flagged
      too.  On infinite runs R5 says "sent infinitely often implies
      received infinitely often"; the finite variant checks the
      consequence the paper's proofs actually use -- persistent
      retransmission to a correct process succeeds.

    Additionally checks the init uniqueness requirement of Section 2.4:
    ``init_p(alpha)`` appears at most once per run and only at p.

    Raises :class:`RunValidationError` on the first violation, in the
    order: R1/ownership/R2/R4 (process by process), R3, init
    uniqueness, R5.

    The executor and the explorer check their runs as they are built,
    with :class:`RunCheck`, and call this function only on a run the
    check flags, so the message is always this function's.  The arena
    decoder (:func:`repro.columnar.jsonio.arena_from_jsonable`) checks
    R1, R2 and ownership of the timelines it decodes.
    """
    procs = set(run.processes)
    # One walk per timeline checks R1, ownership, R2 and R4 on the spot
    # and collects what the cross-process checks need: the sorted send
    # times per channel key, the receives, and the first repeated init.
    send_times: dict[tuple[ProcessId, ProcessId, Message], list[int]] = {}
    receives: list[tuple[ProcessId, int, ReceiveEvent]] = []
    seen_inits: set[ActionId] = set()
    twice: InitEvent | None = None
    for p in run.processes:
        last_time = 0
        timeline = run.timeline(p)
        last = len(timeline) - 1
        for i, (t, event) in enumerate(timeline):
            if t < 1:
                raise RunValidationError(
                    f"{p} has an event at time {t}; r(0) must be the empty cut (R1)"
                )
            if event.process != p:
                raise RunValidationError(
                    f"event {event!r} at time {t} recorded in {p}'s history"
                )
            if t <= last_time:
                raise RunValidationError(
                    f"{p} has two events at/after time {t} in one tick (R2)"
                )
            last_time = t
            if isinstance(event, SendEvent):
                send_times.setdefault((p, event.receiver, event.message), []).append(t)
            elif isinstance(event, ReceiveEvent):
                receives.append((p, t, event))
            elif isinstance(event, InitEvent):
                if event.action in seen_inits and twice is None:
                    twice = event
                seen_inits.add(event.action)
            elif isinstance(event, CrashEvent) and i != last:
                raise RunValidationError(f"{p} has events after its crash (R4)")

    # R3: receives matched by sends.  A receive of msg from p at time t
    # requires that the number of sends of msg by p to q at times <= t is
    # at least the number of receives so far (counting multiplicity);
    # each receive costs one bisect in its key's (time-ordered) sends.
    recv_counts: dict[tuple[ProcessId, ProcessId, Message], int] = {}
    for q, t, received in receives:
        if received.sender not in procs:
            raise RunValidationError(
                f"receive from unknown process {received.sender!r}"
            )
        key = (received.sender, q, received.message)
        count = recv_counts.get(key, 0) + 1
        recv_counts[key] = count
        if bisect_right(send_times.get(key, ()), t) < count:
            raise RunValidationError(
                f"{q} received {received.message!r} from {received.sender} at "
                f"time {t} without a matching send (R3)"
            )

    # Init uniqueness (Section 2.4); an init in a foreign history has
    # already failed the ownership check above.
    if twice is not None:
        raise RunValidationError(f"action {twice.action!r} initiated twice")

    if check_r5:
        violations = r5_violations(run, send_threshold=r5_send_threshold)
        if violations:
            sender, receiver, message, count = violations[0]
            raise RunValidationError(
                f"{sender} sent {message!r} to live process {receiver} "
                f"{count} times with no receipt (R5 finite variant)"
            )


def r5_violations(
    run: Run, *, send_threshold: int = 5
) -> list[tuple[ProcessId, ProcessId, object, int]]:
    """Return the finite-R5 violations in ``run``.

    A violation is a (sender, receiver, message, send_count) tuple where
    the sender sent the same message to the receiver at least
    ``send_threshold`` times, the receiver never crashed, and the
    receiver never received the message from the sender.  When the
    sends happened does not matter: a sender that stopped early, long
    before the end of the run, is flagged all the same.  Violations are
    listed by sender (in process order), then by first send.
    """
    processes = run.processes
    violations: list[tuple[ProcessId, ProcessId, object, int]] = []
    # (sender, message) pairs each live receiver got, one pass per
    # receiver, built only for receivers some sender is checked against
    receipts: dict[ProcessId, set[tuple[ProcessId, Message]]] = {}
    for p in processes:
        send_counts: dict[tuple[ProcessId, Message], int] = {}
        for _, event in run.timeline(p):
            if isinstance(event, SendEvent):
                key = (event.receiver, event.message)
                send_counts[key] = send_counts.get(key, 0) + 1
        for (q, message), count in send_counts.items():
            if count < send_threshold or q not in processes:
                continue
            if run.crash_time(q) is not None:
                continue
            got = receipts.get(q)
            if got is None:
                got = receipts[q] = {
                    (e.sender, e.message)
                    for _, e in run.timeline(q)
                    if isinstance(e, ReceiveEvent)
                }
            if (p, message) not in got:
                violations.append((p, q, message, count))
    return violations


# ---------------------------------------------------------------------------
# The incremental check
# ---------------------------------------------------------------------------

#: A crashed process's last time: above every time, so any later event
#: of the process fails the R1/R2 comparison and so breaks R4.
_CRASHED = float("inf")

#: Channel key of a send or receive: (sender, receiver, message).
_Key = tuple[ProcessId, ProcessId, Message]

#: :meth:`RunCheck.state`: last times in process order, seen inits,
#: send counts, receive counts, flagged.
RunCheckState = tuple[
    tuple[float, ...],
    frozenset[ActionId],
    tuple[tuple[_Key, int], ...],
    tuple[tuple[_Key, int], ...],
    bool,
]


class RunCheck:
    """:func:`validate_run`'s conditions, checked as a run is built.

    Fed in tick order: :meth:`append` for each event as it joins its
    process's timeline, in any order within a tick, then
    :meth:`end_tick` once the tick's events are all in.  Per event it
    checks the time against the process's last one (R1, R2; the last
    time starts at 0), that the process has not crashed (R4), that the
    event is the process's own, and that an init's action is new; it
    counts sends per (sender, receiver, message).  Receives wait for the
    end of their tick and are then judged against every send at or
    before it (R3): :func:`validate_run` accepts a send in the same tick
    as its receive, whatever the processes' step order.  :meth:`passes`
    decides R5 at the final cut from the same counts.

    The check only flags: ``passes(threshold)`` is False exactly when
    ``validate_run(run, r5_send_threshold=threshold)`` raises, and the
    caller runs :func:`validate_run` to say why.  :meth:`state` is an
    immutable copy taken between ticks; ``RunCheck(processes, state)``
    resumes from it in fresh containers.
    """

    __slots__ = ("_last", "_inits", "_sent", "_received", "_queued", "flagged")

    def __init__(
        self, processes: Iterable[ProcessId], state: RunCheckState | None = None
    ) -> None:
        self._queued: list[_Key] = []
        if state is None:
            self._last: dict[ProcessId, float] = dict.fromkeys(processes, 0)
            self._inits: set[ActionId] = set()
            self._sent: dict[_Key, int] = {}
            self._received: dict[_Key, int] = {}
            self.flagged = False
        else:
            last, inits, sent, received, self.flagged = state
            self._last = dict(zip(processes, last))
            self._inits = set(inits)
            self._sent = dict(sent)
            self._received = dict(received)

    def state(self) -> RunCheckState:
        """The check between two ticks, as immutable values."""
        return (
            tuple(self._last.values()),
            frozenset(self._inits),
            tuple(self._sent.items()),
            tuple(self._received.items()),
            self.flagged,
        )

    def append(self, process: ProcessId, time: int, event: Event) -> None:
        """Check ``event`` as it joins ``process``'s timeline at ``time``."""
        last = self._last
        if time <= last[process]:
            self.flagged = True
        last[process] = time
        # Ownership reads the sender or receiver field directly where
        # ``event.process`` would go through a property.  The event
        # classes have no subclasses, so the exact type decides.
        if type(event) is SendEvent:
            if event.sender != process:
                self.flagged = True
            key = (process, event.receiver, event.message)
            sent = self._sent
            sent[key] = sent.get(key, 0) + 1
        elif type(event) is ReceiveEvent:
            if event.receiver != process:
                self.flagged = True
            self._queued.append((event.sender, process, event.message))
        else:
            if event.process != process:
                self.flagged = True
            if type(event) is InitEvent:
                if event.action in self._inits:
                    self.flagged = True
                self._inits.add(event.action)
            elif type(event) is CrashEvent:
                last[process] = _CRASHED

    def end_tick(self) -> None:
        """Judge the tick's receives against every send so far (R3).  A
        receive from an unknown process has no sends and fails too."""
        queued = self._queued
        if queued:
            sent, received = self._sent, self._received
            for key in queued:
                count = received.get(key, 0) + 1
                received[key] = count
                if count > sent.get(key, 0):
                    self.flagged = True
            queued.clear()

    def passes(self, r5_send_threshold: int) -> bool:
        """True iff no check has flagged and, at this final cut, no live
        receiver missed a message sent to it ``r5_send_threshold`` or
        more times (R5's finite variant, as :func:`r5_violations`; a
        receiver outside the run is skipped there too)."""
        if self.flagged:
            return False
        last, received = self._last, self._received
        for key, count in self._sent.items():
            if (
                count >= r5_send_threshold
                and key not in received
                and last.get(key[1], _CRASHED) != _CRASHED
            ):
                return False
        return True
