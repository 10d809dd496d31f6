"""Failure-detector oracle interface and ``Suspects_p(r, m)`` (Section 2.2).

Following Chandra and Toueg, a failure detector is a per-process oracle
with access to the ground truth of failures (their history function H).
The paper models the act of p getting a report as the event
``suspect_p(x)`` in p's history, which is exactly what the executor
records when an oracle emits a report.

The oracle sees a :class:`GroundTruthView`: which processes have
*actually* crashed so far (crash event appended), and which are
*planned* to crash in this run (needed by weak-accuracy detectors, which
must pick a correct process to never suspect).  Protocols never see this
view -- only the reports.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterator

from repro.model.events import (
    ProcessId,
    StandardSuspicion,
    SuspectEvent,
    Suspicion,
)
from repro.model.history import History
from repro.model.run import Run


class GroundTruthView:
    """What an oracle may consult: the failure pattern of the current run."""

    def __init__(
        self,
        processes: tuple[ProcessId, ...],
        planned_faulty: frozenset[ProcessId],
        crash_ticks: dict[ProcessId, int],
    ) -> None:
        self.processes = processes
        self.planned_faulty = planned_faulty
        self._crash_ticks = crash_ticks  # updated by the executor as crashes land
        # Every crash recorded so far and the latest crash tick.  Crashes
        # are only ever added, so a size change means a new one landed.
        self._crashed: frozenset[ProcessId] = frozenset()
        self._latest = 0

    def crashed_by(self, tick: int) -> frozenset[ProcessId]:
        """Processes whose crash event has been appended at or before ``tick``."""
        if len(self._crash_ticks) != len(self._crashed):
            self._crashed = frozenset(self._crash_ticks)
            self._latest = max(self._crash_ticks.values())
        if tick >= self._latest:
            return self._crashed
        return frozenset(
            p for p, t in self._crash_ticks.items() if t <= tick
        )

    def live_by(self, tick: int) -> frozenset[ProcessId]:
        """Processes with no crash event at or before ``tick``."""
        return frozenset(self.processes) - self.crashed_by(tick)

    def planned_correct(self) -> frozenset[ProcessId]:
        """Proc - planned_faulty: the processes correct in this run."""
        return frozenset(self.processes) - self.planned_faulty


class DetectorOracle(ABC):
    """A per-run failure-detector oracle.

    ``poll(pid, tick, truth, rng)`` is called by the executor on ticks
    where process ``pid`` is free to record a failure-detector event; it
    returns a report to emit as ``suspect_pid(report)``, or ``None``.

    ``fresh()`` returns an oracle instance for a new run (oracles may be
    stateful per run, e.g. to implement "permanently suspected").
    """

    #: descriptive name used in Context.detector and in reports
    name: str = "detector"

    @abstractmethod
    def poll(
        self,
        pid: ProcessId,
        tick: int,
        truth: GroundTruthView,
        rng: random.Random,
    ) -> Suspicion | None:
        """Return the report to emit now, or None."""

    def fresh(self) -> "DetectorOracle":
        """Per-run copy; default assumes the oracle is stateless."""
        return self


class NoDetector(DetectorOracle):
    """The absent failure detector (Propositions 2.3, 2.4, Cor 4.2 contexts)."""

    name = "none"

    def poll(
        self,
        pid: ProcessId,
        tick: int,
        truth: GroundTruthView,
        rng: random.Random,
    ) -> Suspicion | None:
        return None


class IntervalOracle(DetectorOracle):
    """Base for oracles that report every ``interval`` ticks per process."""

    def __init__(self, *, interval: int = 3, start_tick: int = 1) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.start_tick = start_tick
        self._last_report: dict[ProcessId, int] = {}

    def due(self, pid: ProcessId, tick: int) -> bool:
        """Has the per-process reporting interval elapsed?"""
        if tick < self.start_tick:
            return False
        last = self._last_report.get(pid)
        return last is None or tick - last >= self.interval

    def mark(self, pid: ProcessId, tick: int) -> None:
        """Record that a report was emitted now (restarts the interval)."""
        self._last_report[pid] = tick

    def fresh(self) -> "IntervalOracle":
        import copy

        clone = copy.copy(self)
        clone._last_report = {}
        return clone


# ---------------------------------------------------------------------------
# Suspects_p(r, m): reading suspicions back out of histories
# ---------------------------------------------------------------------------


def suspects_at(
    history: History, *, derived: bool = False
) -> frozenset[ProcessId]:
    """``Suspects_p(r, m)`` for standard reports: the suspicion set of the
    most recent failure-detector event, or the empty set if none.

    ``derived`` selects the simulated (``suspect'``) events of the P3/P3'
    constructions instead of the original oracle's events.
    """
    event = history.latest_suspicion(derived=derived)
    if event is None:
        return frozenset()
    report = event.report
    if isinstance(report, StandardSuspicion):
        return report.suspects
    raise TypeError(
        f"history's latest report is not standard: {report!r}; use the "
        "generalized accessors for (S, k) reports"
    )


def suspicion_history(
    run: Run, pid: ProcessId, *, derived: bool = False
) -> Iterator[tuple[int, Suspicion]]:
    """All (tick, report) failure-detector events of ``pid`` in ``run``."""
    for tick, event in run.timeline(pid):
        if isinstance(event, SuspectEvent) and event.derived == derived:
            yield tick, event.report


def ever_suspected(
    run: Run, observer: ProcessId, target: ProcessId, *, derived: bool = False
) -> bool:
    """True iff ``target`` is in some standard report of ``observer``."""
    for _, report in suspicion_history(run, observer, derived=derived):
        if isinstance(report, StandardSuspicion) and target in report.suspects:
            return True
    return False


def permanently_suspected_from(
    run: Run, observer: ProcessId, target: ProcessId, *, derived: bool = False
) -> int | None:
    """The earliest time m such that target is in Suspects_observer(r, m')
    for all m' in [m, duration], or None.

    With the final-cut-repeats-forever convention this decides the
    paper's "eventually permanently suspected".
    """
    last_ok: int | None = None
    current: frozenset[ProcessId] = frozenset()
    # Walk the timeline of suspicion changes; between reports the set is
    # constant, so we track intervals where target is suspected.
    changes: list[tuple[int, frozenset[ProcessId]]] = [(0, frozenset())]
    for tick, report in suspicion_history(run, observer, derived=derived):
        if isinstance(report, StandardSuspicion):
            changes.append((tick, report.suspects))
    changes.append((run.duration + 1, None))  # sentinel

    for (tick, suspects), (next_tick, _) in zip(changes, changes[1:]):
        if suspects is None:
            break
        if target in suspects:
            if last_ok is None:
                last_ok = tick
        else:
            last_ok = None
        current = suspects
    if last_ok is not None and target in current:
        return last_ok
    return None
