"""The model checker: (R, r, m) |= phi over finite systems (Section 2.3).

Semantics (verbatim from the paper, finite-horizon convention applied):

* primitive propositions are decided by the cut;
* (R, r, m) |= Box phi   iff (R, r, m') |= phi for all m' >= m;
* (R, r, m) |= K_p phi   iff (R, r', m') |= phi for every point
  (r', m') of R with r'_p(m') = r_p(m).

Finite horizon: the final cut of each run repeats forever, so times
beyond the duration evaluate at the duration, and Box/Diamond sweep
m..duration with the value at the duration standing for the infinite
tail.  Runs produced by the executor are quiescent at their duration,
which makes this exact for the formulas the paper's properties use.

Evaluation is bottom-up over point sets: every subformula becomes the
set of the system's point ids where it holds (see
:mod:`repro.columnar.kernel`), memoized per formula object while it lives.
History atoms, Box/Diamond and K_p are whole-set kernel primitives and
the connectives are bit operations, so ``valid``, ``counterexample`` and
``satisfiable`` are one set test each and ``holds`` indexes the set at
the point's id.  An arbitrary-callable :class:`Atom` fills its set one
point at a time.  A point whose run is not in the system takes a
per-point path; its K_p reads the in-system child set through the
point's ~_p class, and an absent class is vacuously true.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Callable, Optional
from weakref import WeakKeyDictionary

from repro.knowledge.formulas import (
    And,
    Atom,
    Box,
    Crashed,
    Diamond,
    Did,
    Formula,
    Implies,
    Inited,
    Knows,
    Not,
    Or,
    Received,
    Sent,
    _Const,
)
from repro.model.events import ProcessId
from repro.model.history import History
from repro.model.run import Point, Run
from repro.model.system import System

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.kernel import PointSet


def _history_atom(
    f: Formula,
) -> Optional[tuple[ProcessId, Callable[[History], bool]]]:
    """``(process, test)`` of a history primitive: it holds at a point iff
    ``test`` accepts the process's history there.  None for other nodes."""
    if isinstance(f, Inited):
        return f.process, lambda h: h.inited(f.action)
    if isinstance(f, Did):
        return f.process, lambda h: h.did(f.action)
    if isinstance(f, Crashed):
        return f.process, lambda h: h.crashed
    if isinstance(f, Sent):
        return f.sender, lambda h: h.sent(f.receiver, f.message)
    if isinstance(f, Received):
        return f.receiver, lambda h: h.received(f.sender, f.message)
    return None


class ModelChecker:
    """Evaluates formulas over one finite :class:`~repro.model.system.System`."""

    def __init__(self, system: System) -> None:
        self.system = system
        #: formula object -> its point set.  Weak keys: a caller that
        #: builds a fresh formula per query leaves no set behind.
        self._sets: WeakKeyDictionary[Formula, PointSet] = WeakKeyDictionary()
        #: kernel counters, shared with (and surfaced on) the system
        self.stats = system.stats

    # -- public API ---------------------------------------------------------

    def holds(self, formula: Formula, point: Point) -> bool:
        """(R, r, m) |= phi."""
        pid = self.system.point_id(point)
        if pid is None:
            return self._holds_foreign(formula, point)
        return self.system.columnar_kernel().contains(self.point_set(formula), pid)

    def holds_at(self, formula: Formula, run: Run, time: int) -> bool:
        """(R, run, time) |= formula."""
        return self.holds(formula, Point(run, time))

    def valid(self, formula: Formula) -> bool:
        """R |= phi: true at every point of the system."""
        return self.counterexample(formula) is None

    def counterexample(self, formula: Formula) -> Optional[Point]:
        """The first point where ``formula`` fails, or None if valid."""
        kernel = self.system.columnar_kernel()
        return self._first_point(kernel.complement(self.point_set(formula)))

    def satisfiable(self, formula: Formula) -> Optional[Point]:
        """The first point where ``formula`` holds, or None."""
        return self._first_point(self.point_set(formula))

    def point_set(self, formula: Formula) -> PointSet:
        """The kernel point set of the system's points where ``formula``
        holds, computed once per formula object and dropped with it."""
        cached = self._sets.get(formula)
        if cached is None:
            self.stats.formula_set_misses += 1
            cached = self._sets[formula] = self._evaluate(formula)
        else:
            self.stats.formula_set_hits += 1
        return cached

    # -- evaluation --------------------------------------------------------------

    def _first_point(self, s: PointSet) -> Optional[Point]:
        pid = self.system.columnar_kernel().first_point(s)
        return None if pid is None else self.system.point_at(pid)

    def _evaluate(self, formula: Formula) -> PointSet:
        system = self.system
        kernel = system.columnar_kernel()
        sets = self.point_set
        atom = _history_atom(formula)
        if atom is not None:
            return kernel.history_atom_set(system.process_bit(atom[0]), atom[1])
        if isinstance(formula, _Const):
            return kernel.full_set() if formula.value else kernel.empty_set()
        if isinstance(formula, Atom):
            return kernel.set_from_values(bool(formula.fn(p)) for p in system.points())
        if isinstance(formula, Not):
            return kernel.complement(sets(formula.child))
        if isinstance(formula, And):
            return reduce(kernel.intersect, map(sets, formula.parts), kernel.full_set())
        if isinstance(formula, Or):
            return reduce(kernel.union, map(sets, formula.parts), kernel.empty_set())
        if isinstance(formula, Implies):
            return kernel.union(
                kernel.complement(sets(formula.antecedent)), sets(formula.consequent)
            )
        if isinstance(formula, Box):
            return kernel.always_set(sets(formula.child))
        if isinstance(formula, Diamond):
            return kernel.eventually_set(sets(formula.child))
        if isinstance(formula, Knows):
            system.note_knowledge_query()
            j = system.process_bit(formula.process)
            self.stats.knows_class_evals += len(kernel.class_ids(j))
            self.stats.knows_point_evals += kernel.point_total
            return kernel.knows_set(j, sets(formula.child))
        raise TypeError(f"unknown formula node {formula!r}")

    def _holds_foreign(self, formula: Formula, point: Point) -> bool:
        """(R, r, m) |= phi for a run outside the system, point by point."""
        run, time = point.run, min(point.time, point.run.duration)
        point = Point(run, time)

        def holds(child: Formula, at: Point = point) -> bool:
            return self._holds_foreign(child, at)

        atom = _history_atom(formula)
        if atom is not None:
            return atom[1](point.history(atom[0]))
        if isinstance(formula, _Const):
            return formula.value
        if isinstance(formula, Atom):
            return bool(formula.fn(point))
        if isinstance(formula, Not):
            return not holds(formula.child)
        if isinstance(formula, And):
            return all(map(holds, formula.parts))
        if isinstance(formula, Or):
            return any(map(holds, formula.parts))
        if isinstance(formula, Implies):
            return not holds(formula.antecedent) or holds(formula.consequent)
        if isinstance(formula, (Box, Diamond)):
            later = range(time, run.duration + 1)
            sweep = (holds(formula.child, Point(run, m)) for m in later)
            return all(sweep) if isinstance(formula, Box) else any(sweep)
        if isinstance(formula, Knows):
            # K_p reads the system's set through the point's ~_p class; a
            # history absent from the system has an empty class (vacuous).
            system = self.system
            system.note_knowledge_query()
            kernel = system.columnar_kernel()
            j = system.process_bit(formula.process)
            cid = kernel.class_of_history(j, point.history(formula.process))
            child = self.point_set(formula.child)
            return cid is None or kernel.class_in_set(cid, child)
        raise TypeError(f"unknown formula node {formula!r}")
