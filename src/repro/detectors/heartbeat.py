"""A message-implemented heartbeat detector (extension; footnote 10, ACT97).

The paper's protocols never terminate because, with unreliable
communication, quiescence requires something like Aguilera-Chen-Toueg's
heartbeat failure detector.  This module provides the simplest
message-based detector in the repository: unlike the oracles in
:mod:`repro.detectors.standard`, it consults **no ground truth** -- its
suspicions are derived purely from the message pattern of the run.

* :class:`HeartbeatProcess` is a protocol wrapper: each process
  broadcasts ``hb`` beacons every ``beat_interval`` ticks for
  ``beat_count`` rounds (bounded, so runs quiesce).
* :func:`derive_heartbeat_suspicions` is a run transformation in the
  Section 2.2 sense: it appends derived suspect events reporting, at
  each step, the processes whose most recent beacon is older than
  ``timeout``.

Because the channels are asynchronous, the derived detector is only
*eventually* accurate: a slow beacon can cause a false suspicion that is
later retracted when the beacon lands.  Completeness holds within the
beacon phase: a crashed process stops beating and stays suspected.  The
tests demonstrate both halves, which is exactly the gap between
implementable (eventual) and oracle-given (perpetual) accuracy that
motivates failure detectors as oracles in the first place.
"""

from __future__ import annotations

from repro.model.events import (
    Message,
    ProcessId,
    ReceiveEvent,
    StandardSuspicion,
    SuspectEvent,
)
from repro.model.run import Run
from repro.sim.process import ProcessEnv, ProtocolProcess

HEARTBEAT = "hb"


class HeartbeatProcess(ProtocolProcess):
    """Broadcasts ``beat_count`` heartbeat beacons, one every ``beat_interval``.

    Composes with an application protocol the same way
    :class:`~repro.detectors.conversions.SuspicionGossip` does.
    """

    def __init__(
        self,
        pid: ProcessId,
        env: ProcessEnv,
        inner: ProtocolProcess | None = None,
        *,
        beat_interval: int = 4,
        beat_count: int = 20,
    ) -> None:
        super().__init__(pid, env)
        self.inner = inner
        self.beat_interval = beat_interval
        self.beats_left = beat_count
        self._last_beat = -(10**9)
        self._seq = 0

    def on_start(self) -> None:
        if self.inner:
            self.inner.on_start()

    def on_init(self, action) -> None:
        if self.inner:
            self.inner.on_init(action)

    def on_receive(self, sender, message) -> None:
        if message.kind == HEARTBEAT:
            return
        if self.inner:
            self.inner.on_receive(sender, message)

    def on_suspect(self, report) -> None:
        if self.inner:
            self.inner.on_suspect(report)

    def on_tick(self) -> None:
        if (
            self.beats_left > 0
            and self.env.now - self._last_beat >= self.beat_interval
        ):
            self.beats_left -= 1
            self._last_beat = self.env.now
            self._seq += 1
            for q in self.env.others:
                self.env.send(q, Message(HEARTBEAT, (self.pid, self._seq)))
        if self.inner:
            self.inner.on_tick()

    def wants_to_act(self) -> bool:
        inner_wants = self.inner.wants_to_act() if self.inner else False
        return self.beats_left > 0 or inner_wants


def with_heartbeats(inner_factory=None, **hb_kwargs):
    """Protocol factory combinator adding a heartbeat layer."""

    def factory(pid: ProcessId, env: ProcessEnv) -> HeartbeatProcess:
        inner = inner_factory(pid, env) if inner_factory else None
        return HeartbeatProcess(pid, env, inner, **hb_kwargs)

    return factory


def derive_heartbeat_suspicions(run: Run, *, timeout: int = 14) -> Run:
    """Append derived suspect events computed from beacon staleness.

    At each odd step of the doubled timeline, process p suspects every
    q whose last heartbeat receipt is more than ``timeout`` ticks old
    (and suspects everyone it has never heard from once the initial
    grace period of ``timeout`` ticks has passed).
    """
    timelines: dict[ProcessId, list] = {}
    for p in run.processes:
        last_beat: dict[ProcessId, int] = {}
        merged: list = []
        crash_tick = run.crash_time(p)
        events = list(run.timeline(p))
        idx = 0
        last_emitted: frozenset | None = None
        for m in range(run.duration + 1):
            while idx < len(events) and events[idx][0] <= m:
                _, event = events[idx]
                if (
                    isinstance(event, ReceiveEvent)
                    and event.message.kind == HEARTBEAT
                ):
                    last_beat[event.sender] = events[idx][0]
                idx += 1
            if crash_tick is not None and m >= crash_tick:
                break
            if m <= timeout:
                continue  # grace period: no evidence yet
            suspects = frozenset(
                q
                for q in run.processes
                if q != p and m - last_beat.get(q, 0) > timeout
            )
            if suspects != last_emitted:
                merged.append(
                    (2 * m + 1, SuspectEvent(p, StandardSuspicion(suspects), derived=True))
                )
                last_emitted = suspects
        for t, event in run.timeline(p):
            merged.append((2 * t, event))
        merged.sort(key=lambda te: te[0])
        timelines[p] = merged
    return Run(
        run.processes,
        timelines,
        duration=2 * run.duration + 1,
        meta={**run.meta, "transformed": "heartbeat"},
    )
