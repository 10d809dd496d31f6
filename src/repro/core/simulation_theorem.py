"""The knowledge-based run transformations of Theorems 3.6 and 4.3.

Theorem 3.6: if a system R attains UDC (under A1-A4, A5_{n-1}, and
infinitely many initiations), then R can *simulate perfect failure
detectors*: the transformed system R^f = {f(r) : r in R} has perfect
detectors, where f interleaves, at every odd step, a derived report

    suspect'_p(S)   with   S = {q : (R, r, m) |= K_p crash(q)}   (P3)

Theorem 4.3 generalises to a bound t on failures via f' which emits
generalized reports

    suspect'_p(S_l, k),  l = |r_p(m+1)| mod 2^n,
    k = max{k' : (R, r, m) |= K_p("at least k' processes in S_l crashed")}
                                                                    (P3')

Time mapping.  P1-P2 double the timeline: r(0) maps to f(r)(0) (both
empty, R1), an original event that lands at time m >= 1 of r lands at
time 2m of f(r), and the derived report carrying knowledge at (r, m)
lands at time 2m + 1.  Original failure-detector events are *deleted*
(P2) -- the derived reports replace them -- and derived reports carry
``derived=True`` so the property checkers can tell the two apart.
Knowledge is veridical, so a derived suspicion of q at time 2m + 1
implies q's crash landed at some 2m_c <= 2m < 2m + 1: the transformed
detector satisfies strong accuracy *by construction*, for any system
(this is a theorem of the semantics; the property tests exercise it on
arbitrary ensembles).  Completeness is where the theorem's hypotheses
bite.

R4 footnote: the paper appends derived reports at every odd step; we
stop appending to a history once its crash event has landed, since R4
makes the crash terminal.  Reports by crashed processes are irrelevant
to every detector property.

Knowledge here is evaluated over the finite ensemble R that the caller
provides (DESIGN.md substitution 3): exact with respect to R, an upper
bound on knowledge with respect to the infinite system it samples.

Every report depends only on the point's ~_p class (and, for f', on the
subset index), so the transforms read each (run, process) row of class
ids from the system's columnar kernel once and work out one report per
class (f) or per (class, subset index) (f').  Equal reports share one
event, and one timeline entry per time.  ``simulate_*`` shares these
memos across all runs of the system.  The point-at-a-time construction
survives as the test reference in :mod:`repro.knowledge.reference`.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Sequence

from repro.model.events import (
    Event,
    GeneralizedSuspicion,
    ProcessId,
    StandardSuspicion,
    SuspectEvent,
)
from repro.model.run import Point, Run
from repro.model.system import System

Entry = tuple[int, Event]


class _Entries(dict):
    """Report key -> the timeline entry ``(time, event)``, built on first
    use; ``events`` keeps one event per key for all times."""

    def __init__(
        self, time: int, events: dict[int, SuspectEvent], make: Callable[[int], SuspectEvent]
    ) -> None:
        super().__init__()
        self._time = time
        self._events = events
        self._make = make

    def __missing__(self, key: int) -> Entry:
        event = self._events.get(key)
        if event is None:
            event = self._events[key] = self._make(key)
        entry = self[key] = (self._time, event)
        return entry


class _Reports:
    """The derived reports over one system, shared by the runs it transforms.

    A report is named by an int *key* worked out from the point's ~_p
    class id; the id is None where the local history occurs nowhere in
    the system, and knowledge there is vacuous.  Each process keeps one
    event per key and, per time m, one timeline entry ``(2m + 1, event)``
    per key.
    """

    name = ""

    def __init__(self, system: System) -> None:
        self.system = system
        self.kernel = system.columnar_kernel()
        self._events: dict[ProcessId, dict[int, SuspectEvent]] = {}
        self._entries: dict[ProcessId, list[_Entries]] = {}

    def keys(self, run: Run, p: ProcessId, row: list[int | None]) -> list[int]:
        """The report key at each time of ``row``, p's class ids in ``run``."""
        raise NotImplementedError

    def event(self, p: ProcessId, key: int) -> SuspectEvent:
        raise NotImplementedError

    def _entries_at(self, p: ProcessId, stop: int) -> list[_Entries]:
        """p's entry memos for the times 0 .. stop - 1."""
        at = self._entries.setdefault(p, [])
        if len(at) < stop:
            events = self._events.setdefault(p, {})
            make = partial(self.event, p)
            at.extend(_Entries(2 * m + 1, events, make) for m in range(len(at), stop))
        return at

    def transform(self, run: Run) -> Run:
        """Copy the non-FD events to even times and splice the derived
        reports in at odd times."""
        system = self.system
        system.note_knowledge_query()
        base = system.point_id(Point(run, 0))
        timelines: dict[ProcessId, list[Entry]] = {}
        for p in run.processes:
            j = system.process_bit(p)
            crash_tick = run.crash_time(p)
            stop = run.duration + 1
            if crash_tick is not None and crash_tick < stop:
                stop = crash_tick  # R4: nothing follows the crash event
            row: list[int | None]
            if base is not None:
                row = self.kernel.class_row(j, base, base + stop)
            else:
                row = [
                    self.kernel.class_of_history(j, run.history(p, m))
                    for m in range(stop)
                ]
            at = self._entries_at(p, stop)
            merged = [at[m][key] for m, key in enumerate(self.keys(run, p, row))]
            # P2 deletes the original failure-detector events.
            merged += [
                (2 * t, event)
                for t, event in run.timeline(p)
                if not isinstance(event, SuspectEvent)
            ]
            merged.sort(key=itemgetter(0))
            timelines[p] = merged
        return Run(
            run.processes,
            timelines,
            duration=2 * run.duration + 1,
            meta={**run.meta, "transformed": self.name},
        )


class _PerfectReports(_Reports):
    """P3: the report at a point is its class's known-crashed set, keyed
    by its bitmask."""

    name = "f"

    def __init__(self, system: System) -> None:
        super().__init__(system)
        self.masks = self.kernel.known_masks
        # A foreign history knows vacuously that everyone crashed.
        self.everyone = (1 << len(system.processes)) - 1

    def keys(self, run: Run, p: ProcessId, row: list[int | None]) -> list[int]:
        masks, everyone = self.masks, self.everyone
        return [everyone if cid is None else masks[cid] for cid in row]

    def event(self, p: ProcessId, key: int) -> SuspectEvent:
        procs = self.system.processes
        suspects = frozenset(q for b, q in enumerate(procs) if (key >> b) & 1)
        return SuspectEvent(p, StandardSuspicion(suspects), derived=True)


class _GeneralizedReports(_Reports):
    """P3': the report at a point under subset S_l is (S_l, k), k the
    fewest crashed members of S_l over the point's class; keyed
    ``k * 2^n + l``."""

    name = "f'"

    def __init__(self, system: System, processes: Sequence[ProcessId]) -> None:
        super().__init__(system)
        self.subsets = subset_order(processes)
        bit = system.process_bit
        self.counts = [
            self.kernel.count_min_table(sum(1 << bit(q) for q in subset))
            for subset in self.subsets
        ]

    def keys(self, run: Run, p: ProcessId, row: list[int | None]) -> list[int]:
        modulus = len(self.subsets)
        counts = self.counts
        # P3': the subset index at m is the length of r_p(m+1) mod 2^n:
        # the original timeline's events up to time min(m + 1, duration),
        # detector events included.
        times = [t for t, _ in run.timeline(p)]
        duration = run.duration
        out: list[int] = []
        count = 0
        for m, cid in enumerate(row):
            bound = min(m + 1, duration)
            while count < len(times) and times[count] <= bound:
                count += 1
            index = count % modulus
            # A foreign history knows vacuously that at least 0 crashed.
            k = 0 if cid is None else counts[index][cid]
            out.append(k * modulus + index)
        return out

    def event(self, p: ProcessId, key: int) -> SuspectEvent:
        k, index = divmod(key, len(self.subsets))
        return SuspectEvent(p, GeneralizedSuspicion(self.subsets[index], k), derived=True)


def transform_run_f(run: Run, system: System) -> Run:
    """The transformation f of Theorem 3.6 (P1-P3)."""
    return _PerfectReports(system).transform(run)


def subset_order(processes: Sequence[ProcessId]) -> tuple[frozenset[ProcessId], ...]:
    """The fixed order S_0, ..., S_{2^n - 1} used by P3': binary counting
    over the sorted process list (S_0 is empty, S_{2^n-1} is Proc)."""
    procs = sorted(processes)
    n = len(procs)
    return tuple(
        frozenset(procs[i] for i in range(n) if mask & (1 << i))
        for mask in range(1 << n)
    )


def transform_run_f_prime(run: Run, system: System) -> Run:
    """The transformation f' of Theorem 4.3 (P1, P2, P3')."""
    return _GeneralizedReports(system, run.processes).transform(run)


def simulate_perfect_detectors(system: System) -> System:
    """R^f = {f(r) : r in R}: Theorem 3.6's simulated-detector system."""
    reports = _PerfectReports(system)
    return System([reports.transform(run) for run in system], context=system.context)


def simulate_generalized_detectors(system: System) -> System:
    """R^{f'} = {f'(r) : r in R}: Theorem 4.3's simulated-detector system."""
    reports = _GeneralizedReports(system, system.processes)
    return System([reports.transform(run) for run in system], context=system.context)
