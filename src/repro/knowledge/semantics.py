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

Memoization: per formula node,
* local formulas cache on (formula, local history) -- knowledge and all
  history primitives hit this path;
* temporal formulas cache a whole per-run truth vector computed by one
  backward sweep;
* everything else caches on (formula, run, m).
"""

from __future__ import annotations

from typing import Optional

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


class ModelChecker:
    """Evaluates formulas over one finite :class:`~repro.model.system.System`."""

    def __init__(self, system: System) -> None:
        self.system = system
        self._local_cache: dict[tuple[Formula, ProcessId, History], bool] = {}
        self._point_cache: dict[tuple[Formula, int, int], bool] = {}
        self._temporal_cache: dict[tuple[Formula, int], list[bool]] = {}
        self._run_ids = {run: i for i, run in enumerate(system.runs)}
        # Foreign runs (not in the system) get identity-based negative
        # ids.  The dict is keyed by id(run) and the list pins a strong
        # reference to every such run, so a foreign run's id() can never
        # be recycled by a later allocation and alias a cache entry.
        self._foreign_ids: dict[int, int] = {}
        self._foreign_refs: list[Run] = []
        #: kernel counters, shared with (and surfaced on) the system
        self.stats = system.stats

    # -- public API ---------------------------------------------------------

    def holds(self, formula: Formula, point: Point) -> bool:
        """(R, r, m) |= phi.  ``point.run`` should belong to the system."""
        return self._eval(formula, point)

    def holds_at(self, formula: Formula, run: Run, time: int) -> bool:
        """(R, run, time) |= formula."""
        return self._eval(formula, Point(run, time))

    def valid(self, formula: Formula) -> bool:
        """R |= phi: true at every point of the system."""
        return self.counterexample(formula) is None

    def counterexample(self, formula: Formula) -> Optional[Point]:
        """The first point where ``formula`` fails, or None if valid."""
        for run in self.system:
            for m in range(run.duration + 1):
                point = Point(run, m)
                if not self._eval(formula, point):
                    return point
        return None

    def satisfiable(self, formula: Formula) -> Optional[Point]:
        """The first point where ``formula`` holds, or None."""
        for run in self.system:
            for m in range(run.duration + 1):
                point = Point(run, m)
                if self._eval(formula, point):
                    return point
        return None

    # -- evaluation --------------------------------------------------------------

    def _run_id(self, run: Run) -> int:
        rid = self._run_ids.get(run)
        if rid is None:  # a foreign run: identity-keyed, reference-pinned
            # audited: _foreign_refs pins each keyed run for the checker's
            # lifetime, so its id() can never be recycled to another object
            key = id(run)  # repro: lint-ok[DET005]
            rid = self._foreign_ids.get(key)
            if rid is None:
                rid = -1 - len(self._foreign_ids)
                self._foreign_ids[key] = rid
                self._foreign_refs.append(run)
        return rid

    def _eval(self, formula: Formula, point: Point) -> bool:
        run = point.run
        time = min(point.time, run.duration)
        if time != point.time:
            point = Point(run, time)

        if isinstance(formula, (Box, Diamond)):
            vector = self._temporal_vector(formula, run)
            return vector[time]

        if formula.locality is not None:
            key = (formula, formula.locality, point.history(formula.locality))
            cached = self._local_cache.get(key)
            if cached is None:
                self.stats.local_cache_misses += 1
                cached = self._eval_node(formula, point)
                self._local_cache[key] = cached
            else:
                self.stats.local_cache_hits += 1
            return cached

        key2 = (formula, self._run_id(run), time)
        cached = self._point_cache.get(key2)
        if cached is None:
            self.stats.point_cache_misses += 1
            cached = self._eval_node(formula, point)
            self._point_cache[key2] = cached
        else:
            self.stats.point_cache_hits += 1
        return cached

    def _temporal_vector(self, formula: Box | Diamond, run: Run) -> list[bool]:
        key = (formula, self._run_id(run))
        vector = self._temporal_cache.get(key)
        if vector is not None:
            self.stats.temporal_cache_hits += 1
            return vector
        self.stats.temporal_cache_misses += 1
        child = formula.child
        horizon = run.duration
        values = [self._eval(child, Point(run, m)) for m in range(horizon + 1)]
        vector = [False] * (horizon + 1)
        if isinstance(formula, Box):
            acc = values[horizon]  # final cut repeats forever
            vector[horizon] = acc
            for m in range(horizon - 1, -1, -1):
                acc = acc and values[m]
                vector[m] = acc
        else:  # Diamond
            acc = values[horizon]
            vector[horizon] = acc
            for m in range(horizon - 1, -1, -1):
                acc = acc or values[m]
                vector[m] = acc
        self._temporal_cache[key] = vector
        return vector

    def _eval_node(self, formula: Formula, point: Point) -> bool:
        if isinstance(formula, _Const):
            return formula.value
        if isinstance(formula, Atom):
            return formula.fn(point)
        if isinstance(formula, Inited):
            return point.history(formula.process).inited(formula.action)
        if isinstance(formula, Did):
            return point.history(formula.process).did(formula.action)
        if isinstance(formula, Crashed):
            return point.history(formula.process).crashed
        if isinstance(formula, Sent):
            return point.history(formula.sender).sent(
                formula.receiver, formula.message
            )
        if isinstance(formula, Received):
            return point.history(formula.receiver).received(
                formula.sender, formula.message
            )
        if isinstance(formula, Not):
            return not self._eval(formula.child, point)
        if isinstance(formula, And):
            return all(self._eval(part, point) for part in formula.parts)
        if isinstance(formula, Or):
            return any(self._eval(part, point) for part in formula.parts)
        if isinstance(formula, Implies):
            return not self._eval(formula.antecedent, point) or self._eval(
                formula.consequent, point
            )
        if isinstance(formula, Knows):
            # Class-based: the memo layer above already keys this node on
            # p's local history, so this body runs once per ~_p class.
            self.system.note_knowledge_query()
            stats = self.stats
            child = formula.child
            kernel = self.system.columnar_kernel()
            cid = kernel.class_id_at(formula.process, point)
            if cid is None:
                return True  # foreign history: vacuously true (empty class)
            stats.knows_class_evals += 1
            if isinstance(child, Crashed):
                # K_p(crash(q)) is one bit of the class's AND-mask.
                bit = self.system.process_bit(child.process)
                return bool((kernel.known_mask(cid) >> bit) & 1)
            evaluate = self._eval
            for candidate in kernel.points_of_class(cid):
                stats.knows_point_evals += 1
                if not evaluate(child, candidate):
                    return False
            return True
        raise TypeError(f"unknown formula node {formula!r}")
