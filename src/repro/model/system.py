"""Systems: sets of runs, with the columnar indistinguishability kernel.

A *system* is a set of runs, typically generated by executing a joint
protocol in a context under many adversary schedules.  The knowledge
operator K_p is evaluated over a system: p knows phi at (r, m) iff phi
holds at every point (r', m') of the system with the same local history
for p.

Following Halpern-Moses, the ~_p relation is an equivalence, so the
kernel's unit of work is the *equivalence class*, not the point.  The
classes live in one :class:`~repro.columnar.kernel.ColumnarKernel`,
built lazily on the first knowledge query: every point gets a global
integer id (point ``(runs[i], m)`` is ``base[i] + m``), every process's
points are grouped by hash-consed local history into CSR class rows, and
each class carries the AND of its members' crash bitmasks (= its
known-crashed set).  Knowledge queries then cost one row lookup plus
O(1) bit work per class instead of a fresh scan per point, and common
knowledge becomes an array fixpoint over the class rows (see
:mod:`repro.knowledge.group`).

Complexity model: with P points and n processes, the index build is
O(n x P) over the arena's int columns, ``known_crashed_set`` is O(1) per
class after the first query, and one E_G step is a constant number of
whole-array operations over P points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.model.context import Context
from repro.model.events import ProcessId
from repro.model.run import Point, Run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.columnar.kernel import ColumnarKernel


class IncompleteSystemWarning(UserWarning):
    """A knowledge query was evaluated over a *sampled* (incomplete) system.

    ``K_p phi`` is only sound when the system contains every run of the
    generating context: a missing run can make knowledge vacuously true
    simply because the distinguishing point was never sampled.  Systems
    built by the bounded explorer (:mod:`repro.explore`) carry
    ``complete=True`` and never warn; sampled ensembles warn once per
    system on the first knowledge query.
    """


@dataclass
class KernelStats:
    """Observability counters for the epistemic kernel.

    One instance lives on each :class:`System`; the model checker and
    group checker attached to the system increment the cache counters on
    the same object, so ``system.stats`` (or ``ModelChecker.stats``) is
    the single place to watch for kernel regressions.

    Fields:

    * ``knows_class_evals`` / ``knows_point_evals`` -- K_p evaluations
      at class granularity vs. candidate points visited inside them;
    * ``formula_set_hits`` / ``formula_set_misses`` -- lookups in the
      model checker's memo of subformula point sets;
    * ``ck_fixpoint_iterations`` -- rounds of the common-knowledge
      greatest-fixpoint computation;
    * ``arena_builds`` / ``arena_classes`` / ``arena_bytes`` -- columnar
      kernels built (:mod:`repro.columnar`), their total class count,
      and the byte size of their arena buffers;
    * ``arena_refinements`` -- columnar kernels derived by incremental
      class refinement (:meth:`System.extend`) instead of a from-scratch
      build over the union.
    """

    knows_class_evals: int = 0
    knows_point_evals: int = 0
    formula_set_hits: int = 0
    formula_set_misses: int = 0
    ck_fixpoint_iterations: int = 0
    arena_builds: int = 0
    arena_classes: int = 0
    arena_bytes: int = 0
    arena_refinements: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate ``other`` into self (every field is a sum)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


class System:
    """An immutable collection of runs plus its columnar ~_p kernel.

    The kernel is built lazily on the first knowledge query and covers
    every point (r, m) with 0 <= m <= r.duration.  Because the final cut
    of a finite run is taken to repeat forever, querying a time beyond a
    run's duration resolves to the final point of that run.
    """

    def __init__(
        self,
        runs: Iterable[Run],
        context: Context | None = None,
        *,
        complete: bool = False,
        missing_runs: int = 0,
    ) -> None:
        self._columnar: "ColumnarKernel | None" = None
        self._runs: tuple[Run, ...] = tuple(runs)
        self._complete = bool(complete)
        self._missing_runs = int(missing_runs)
        self._warned_incomplete = False
        if not self._runs:
            raise ValueError("a system must contain at least one run")
        procs = self._runs[0].processes
        for r in self._runs:
            if r.processes != procs:
                raise ValueError("all runs in a system must share a process set")
        self._processes = procs
        self.context = context
        self._stats = KernelStats()
        self._proc_bit = {p: i for i, p in enumerate(procs)}
        # Global point numbering: point (runs[i], m) has id base[i] + m.
        bases: list[int] = []
        total = 0
        for run in self._runs:
            bases.append(total)
            total += run.duration + 1
        self._point_bases = bases
        self._point_total = total
        # audited: every keyed run is strongly pinned by self._runs for the
        # System's lifetime, so no live object can recycle these id()s
        self._run_pos: dict[int, int] = {id(r): i for i, r in enumerate(self._runs)}  # repro: lint-ok[DET005]
        self._run_value_pos: dict[Run, int] = {}
        for i, r in enumerate(self._runs):
            self._run_value_pos.setdefault(r, i)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[Run]:
        return iter(self._runs)

    def __contains__(self, run: Run) -> bool:
        return run in self._runs

    @property
    def runs(self) -> tuple[Run, ...]:
        return self._runs

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        return self._processes

    @property
    def missing_runs(self) -> int:
        """How many planned runs of the generating ensemble are absent
        (failed or never executed); 0 when unknown or none."""
        return self._missing_runs

    @property
    def complete(self) -> bool:
        """True iff this system provably contains *every* run of its context.

        Set by explorer-built systems (:func:`repro.explore.explore`);
        sampled ensembles leave it False and knowledge queries over them
        emit a one-time :class:`IncompleteSystemWarning`.
        """
        return self._complete

    def note_knowledge_query(self) -> None:
        """Record that a knowledge operator was evaluated over this system.

        Sampled (incomplete) systems warn exactly once; complete systems
        are silent.  Called by the knowledge primitives below and by the
        :class:`~repro.knowledge.semantics.ModelChecker` wrappers.
        """
        if self._complete or self._warned_incomplete:
            return
        self._warned_incomplete = True
        detail = (
            f" ({self._missing_runs} planned runs missing or failed)"
            if self._missing_runs
            else ""
        )
        # warn_explicit with registry=None bypasses the per-location
        # __warningregistry__ dedup of plain warnings.warn, so *every*
        # incomplete System warns exactly once (guarded above) instead of
        # only the first one per process.
        warnings.warn_explicit(
            "knowledge query over a sampled (incomplete) system"
            + detail
            + ": K_p/C_G answers are relative to the sampled run set and "
            "may be vacuously true; build the system with repro.explore "
            "for sound-by-construction answers",
            IncompleteSystemWarning,
            filename=__file__,
            lineno=0,
        )

    @property
    def stats(self) -> KernelStats:
        """The kernel counters (a live object)."""
        return self._stats

    def columnar_kernel(self) -> "ColumnarKernel":
        """The ~_p kernel of this system, built on first use."""
        kernel = self._columnar
        if kernel is None:
            from repro.columnar.kernel import build_kernel

            kernel = build_kernel(self)
            self._columnar = kernel
        return kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"System({len(self._runs)} runs, n={len(self._processes)})"

    # -- the point numbering -------------------------------------------------

    @property
    def point_count(self) -> int:
        """Total number of points (the length of the kernel's point rows)."""
        return self._point_total

    def run_index(self, run: Run) -> int | None:
        """Position of ``run`` in ``self.runs`` (identity first, then value)."""
        # audited: a miss falls through to the value map, so an id() recycled
        # from a dead run can only be asked about via a live (pinned) run
        pos = self._run_pos.get(id(run))  # repro: lint-ok[DET005]
        if pos is None:
            pos = self._run_value_pos.get(run)
        return pos

    def point_id(self, point: Point) -> int | None:
        """The global integer id of ``point``, or None for foreign runs.

        Times beyond the run's duration map to the final point (the
        final-cut-repeats-forever convention).
        """
        pos = self.run_index(point.run)
        if pos is None:
            return None
        run = self._runs[pos]
        return self._point_bases[pos] + min(point.time, run.duration)

    def point_key(self, point_id: int) -> tuple[int, int]:
        """Decode a point id into (run_index, time)."""
        bases = self._point_bases
        lo, hi = 0, len(bases) - 1
        while lo < hi:  # rightmost base <= point_id
            mid = (lo + hi + 1) // 2
            if bases[mid] <= point_id:
                lo = mid
            else:
                hi = mid - 1
        return lo, point_id - bases[lo]

    def point_at(self, point_id: int) -> Point:
        """Decode a point id into the Point itself."""
        pos, m = self.point_key(point_id)
        return Point(self._runs[pos], m)

    def process_bit(self, process: ProcessId) -> int:
        """The bit position of ``process`` in crash bitmasks."""
        return self._proc_bit[process]

    # -- indistinguishability ------------------------------------------------

    def indistinguishable_points(self, process: ProcessId, point: Point) -> Sequence[Point]:
        """All points (r', m') in the system with (r', m') ~_p ``point``.

        If ``point``'s own run is not in the system, the returned list
        contains only points from the system (it may be empty).
        """
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        return kernel.points_of_class(cid) if cid is not None else []

    def points(self) -> Iterator[Point]:
        """Every point of every run."""
        for run in self._runs:
            yield from run.points()

    # -- knowledge primitives ------------------------------------------------

    def knows(
        self,
        process: ProcessId,
        point: Point,
        predicate: Callable[[Point], bool],
    ) -> bool:
        """K_p(predicate) at ``point``: predicate holds at every ~_p point.

        This is the raw semantic operator; :mod:`repro.knowledge` builds
        the formula language on top of it.

        Vacuity caveat: if ``point``'s local history occurs nowhere in
        the system (a foreign point), the candidate set is empty and the
        answer is vacuously True -- p "knows" everything, including
        falsehoods.  Callers should only query points of this system
        (or of systems it was restricted from).
        """
        self.note_knowledge_query()
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return True
        st = self._stats
        st.knows_class_evals += 1
        for candidate in kernel.points_of_class(cid):
            st.knows_point_evals += 1
            if not predicate(candidate):
                return False
        return True

    def knows_crashed(self, process: ProcessId, point: Point, target: ProcessId) -> bool:
        """K_p(crash(q)) at ``point`` -- the key formula of Theorem 3.6 (P3).

        O(1) after the first query: one bit of the class's AND-mask.
        """
        self.note_knowledge_query()
        bit = self._proc_bit[target]
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return True  # vacuous knowledge at a foreign point; see knows()
        return bool((kernel.known_mask(cid) >> bit) & 1)

    def known_crashed_set(self, process: ProcessId, point: Point) -> frozenset[ProcessId]:
        """{q : K_p(crash(q))} at ``point`` -- the suspicion set of P3.

        The whole set is one precomputed AND over the class's crash
        bitmasks; the frozenset view is materialized once per class.
        """
        self.note_knowledge_query()
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return frozenset(self._processes)  # vacuous; see knows()
        return kernel.known_set(cid)

    def known_crash_count(
        self, process: ProcessId, point: Point, subset: frozenset[ProcessId]
    ) -> int:
        """max{k : K_p("at least k processes in subset have crashed")}.

        Used by the P3' construction of Theorem 4.3.  Knowledge of a
        counting formula reduces to the minimum, over the class's point
        masks, of the popcount within ``subset``'s bitmask.
        """
        self.note_knowledge_query()
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return 0
        proc_bit = self._proc_bit
        smask = 0
        # bitwise OR is commutative: iteration order cannot leak
        for q in subset:  # repro: lint-ok[DET004]
            smask |= 1 << proc_bit[q]
        return kernel.count_min(cid, smask)

    # -- convenience ---------------------------------------------------------

    def restrict(self, keep: Callable[[Run], bool]) -> "System":
        """The subsystem of runs satisfying ``keep``.

        The child builds its own kernel lazily, on its first query.
        Completeness is inherited: restricting a complete system yields
        the complete set of context runs satisfying ``keep``.
        """
        kept = [r for r in self._runs if keep(r)]
        return System(
            kept, context=self.context,
            complete=self._complete, missing_runs=self._missing_runs,
        )

    def extend(
        self,
        added_runs: Iterable[Run],
        *,
        complete: bool | None = None,
        missing_runs: int | None = None,
    ) -> "System":
        """A system over ``self.runs`` plus ``added_runs``, in append order.

        The online-ingestion primitive behind :mod:`repro.serve`.  When
        this system has already built its columnar kernel, the child's
        kernel is derived by *incremental class refinement*
        (:meth:`repro.columnar.kernel.ColumnarKernel.refined`): the
        appended runs extend the history trie and per-process class
        tables without re-walking the shared prefix, and every answer
        is bit-identical to a from-scratch rebuild over the union.

        Unlike :meth:`union`, no deduplication is performed -- callers
        own duplicate policy.  ``complete``/``missing_runs`` default to
        inheriting this system's flags (appending runs cannot make a
        sampled system complete).  An empty batch returns this system
        itself.
        """
        added = tuple(added_runs)
        if not added:
            return self
        child = System(
            self._runs + added,
            context=self.context,
            complete=self._complete if complete is None else complete,
            missing_runs=(
                self._missing_runs if missing_runs is None else missing_runs
            ),
        )
        if self._columnar is not None:
            from repro.columnar.kernel import ColumnarKernel

            child.adopt_columnar_kernel(
                ColumnarKernel.refined(self._columnar, child)
            )
        return child

    def adopt_columnar_kernel(self, kernel: "ColumnarKernel") -> None:
        """Attach a pre-built columnar kernel (the refinement hand-off).

        Only a kernel built *for this system* (``kernel.system is
        self``) is accepted, and only before this system has built its
        own: the kernel is part of the system's immutable identity once
        queries start flowing.
        """
        if kernel.system is not self:
            raise ValueError("kernel was built for a different system")
        if self._columnar is not None:
            raise ValueError("system already has a columnar kernel")
        self._columnar = kernel

    def union(self, other: "System") -> "System":
        """The deduplicated union of two systems over one process set.

        Runs keep their order: this system's runs first, then the runs
        of ``other`` not already present.
        """
        if self._processes != other._processes:
            raise ValueError("cannot union systems over different process sets")
        seen: list[Run] = list(self._runs)
        existing = set(self._runs)
        for run in other._runs:
            if run not in existing:
                seen.append(run)
                existing.add(run)
        return System(
            seen, context=self.context,
            complete=self._complete and other._complete,
            missing_runs=self._missing_runs + other._missing_runs,
        )
