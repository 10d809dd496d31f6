"""Generalized failure detectors (Section 4).

A generalized detector reports "at least k processes in S are faulty"
(without saying which).  Given a bound t on failures, a report
``suspect_p(S, k)`` is a *t-useful failure-detector event* for run r iff

    (a) F(r) is a subset of S,
    (b) n - |S| > min(t, n-1) - k, and
    (c) k <= |S|.

A generalized detector is *t-useful* when it satisfies generalized
strong accuracy (every reported count is backed by that many actual
crashes inside S at report time) and generalized impermanent strong
completeness (every correct process eventually gets a t-useful event).

Two oracles:

* :class:`GeneralizedOracle` -- component-style reports: S is the
  planned faulty set padded with correct processes (the paper's
  motivation: "some process in a component is faulty, without being able
  to say which one"); k counts the crashes that have actually happened.
* :class:`TrivialSubsetOracle` -- the paper's trivial t < n/2
  construction: emit (S, 0) for every subset S of size t.  Suspecting no
  one is vacuously accurate, and whenever F(r) is inside S the event
  (S, 0) is t-useful.
"""

from __future__ import annotations

import copy
from itertools import combinations

from repro.detectors.base import GroundTruthView, IntervalOracle
from repro.model.events import GeneralizedSuspicion, ProcessId, Suspicion


def is_t_useful_event(
    report: GeneralizedSuspicion,
    faulty: frozenset[ProcessId],
    n: int,
    t: int,
) -> bool:
    """Definition of a t-useful failure-detector event for a run with F(r)=faulty."""
    s, k = report.suspects, report.count
    return (
        faulty <= s
        and n - len(s) > min(t, n - 1) - k
        and k <= len(s)
    )


def max_padding(n: int, t: int) -> int:
    """Largest number of correct processes that can pad S while keeping
    the t-usefulness inequality (b) satisfiable with k = |F(r)|.

    With S = F(r) + pad extra processes and k = |F(r)|, condition (b)
    reads n - |F| - pad > min(t, n-1) - |F|, i.e. pad < n - min(t, n-1).
    """
    return max(0, n - min(t, n - 1) - 1)


class GeneralizedOracle(IntervalOracle):
    """A t-useful generalized detector with component-style padding.

    Each report is (S, k) with S = planned-faulty union a deterministic
    set of ``padding`` correct processes, and k = |actually crashed * S|
    at report time.  Accuracy holds by construction; completeness holds
    because once every planned crash has landed, k = |F(r)| and the
    padding bound keeps inequality (b) true.

    ``padding`` is clamped to :func:`max_padding`; requesting more would
    make the detector useless (exactly the boundary Section 4 draws).
    """

    name = "generalized"

    def __init__(
        self,
        t: int,
        *,
        interval: int = 3,
        start_tick: int = 1,
        padding: int = 0,
        clamp_padding: bool = True,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        if t < 0:
            raise ValueError("t must be non-negative")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.t = t
        self.padding = padding
        self.clamp_padding = clamp_padding
        self._last_emitted: dict[ProcessId, tuple] = {}

    #: (truth, S) of the run being polled, S computed once per run.  A
    #: class default, so that an unpolled oracle (a spec's template)
    #: pickles, and digests, as it always did.
    _subset: tuple[GroundTruthView, frozenset[ProcessId]] | None = None

    def fresh(self):
        clone = copy.copy(self)
        clone._last_report = {}
        clone._last_emitted = {}
        return clone

    def _suspects(self, truth: GroundTruthView) -> frozenset[ProcessId]:
        """S: the planned-faulty set plus ``padding`` planned-correct
        processes.  Empty in a failure-free run without padding: that
        (S, 0) report is t-useful whenever n > min(t, n-1), i.e. always."""
        if self._subset is None or self._subset[0] is not truth:
            pad = self.padding
            if self.clamp_padding:
                pad = min(pad, max_padding(len(truth.processes), self.t))
            padding = sorted(truth.planned_correct())[:pad]
            self._subset = (truth, frozenset(truth.planned_faulty) | frozenset(padding))
        return self._subset[1]

    def poll(self, pid, tick, truth, rng) -> Suspicion | None:
        if not self.due(pid, tick):
            return None
        subset = self._suspects(truth)
        count = len(truth.crashed_by(tick) & subset)
        key = (subset, count)
        if self._last_emitted.get(pid) == key:
            return None
        self._last_emitted[pid] = key
        self.mark(pid, tick)
        return GeneralizedSuspicion(subset, count)


class TrivialSubsetOracle(IntervalOracle):
    """The trivial t-useful detector for t < n/2 (Section 4).

    For each subset S of Proc with |S| = t, output (S, 0).  The paper
    notes this is accurate (suspecting nobody in particular) and that in
    every run at least one t-sized subset contains F(r), making that
    report t-useful.  Each process emits one full cycle of subsets; the
    reports are stable facts, so one cycle suffices on finite runs.

    This oracle is how Corollary 4.2 (Gopal-Toueg, no detector needed
    for t < n/2) falls out of Proposition 4.1: the "detector" consults
    no ground truth at all -- note ``poll`` ignores ``truth``.
    """

    name = "trivial-subsets"

    def __init__(self, t: int, *, interval: int = 2, start_tick: int = 1) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        if t < 0:
            raise ValueError("t must be non-negative")
        self.t = t
        self._cursor: dict[ProcessId, int] = {}
        self._subsets_cache: tuple[frozenset[ProcessId], ...] | None = None

    def fresh(self):
        clone = copy.copy(self)
        clone._last_report = {}
        clone._cursor = {}
        clone._subsets_cache = None
        return clone

    def _subsets(self, processes: tuple[ProcessId, ...]):
        if self._subsets_cache is None:
            self._subsets_cache = tuple(
                frozenset(c) for c in combinations(sorted(processes), self.t)
            )
        return self._subsets_cache

    def poll(self, pid, tick, truth, rng) -> Suspicion | None:
        if not self.due(pid, tick):
            return None
        subsets = self._subsets(truth.processes)
        cursor = self._cursor.get(pid, 0)
        if cursor >= len(subsets):
            return None  # full cycle emitted
        self._cursor[pid] = cursor + 1
        self.mark(pid, tick)
        return GeneralizedSuspicion(subsets[cursor], 0)
