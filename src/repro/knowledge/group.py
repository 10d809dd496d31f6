"""Group knowledge: E_G, E_G^k, distributed and common knowledge (FHMV95).

The paper's toolbox (Fagin-Halpern-Moses-Vardi) includes group
operators the UDC analysis implicitly leans on:

* ``E_G phi``  -- everyone in G knows phi;
* ``E_G^k``    -- k-fold iteration ("everyone knows that everyone
  knows ... (k times)");
* ``D_G phi``  -- distributed knowledge: phi holds at every point that
  *no member* of G can distinguish (footnote 4 of the paper invokes
  exactly this notion when discussing A4);
* ``C_G phi``  -- common knowledge: the greatest fixpoint of
  ``X = E_G(phi and X)``; over a finite system it is computed by
  iterating E_G to a fixpoint.

The famous coordinated-attack connection: with unreliable
communication, common knowledge of a new fact is *unattainable* --
every E^k level can be climbed with k message exchanges, but C never
arrives.  That is the deep reason the paper's UDC (which needs only
"some correct process knows", Prop 3.5) is attainable where
simultaneous coordination is not; experiment E14 demonstrates both
halves on generated ensembles.
"""

from __future__ import annotations

from typing import Sequence

from repro.knowledge.formulas import And, Formula, Knows
from repro.knowledge.semantics import ModelChecker
from repro.model.events import ProcessId
from repro.model.run import Point


def everyone_knows(group: Sequence[ProcessId], formula: Formula) -> Formula:
    """E_G phi as a plain formula (so it composes with the AST)."""
    return And(*[Knows(p, formula) for p in group])


def e_iterated(group: Sequence[ProcessId], formula: Formula, depth: int) -> Formula:
    """E_G^depth phi; depth = 0 is phi itself."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    current = formula
    for _ in range(depth):
        current = everyone_knows(group, current)
    return current


class GroupChecker:
    """Semantic group-knowledge queries over one finite system.

    Distributed and common knowledge are *not* expressible as finite
    formulas in general, so they are computed semantically here rather
    than as AST nodes.

    Both C_G and the E^k ladder run over the system's columnar kernel:
    point sets are indexed by global point id, and one E_G step
    (:meth:`~repro.columnar.kernel.ColumnarKernel.e_step`) keeps exactly
    the points whose ~_p class is wholly inside the current set, for
    every p in G -- array work over the class rows instead of a formula
    re-walk per point.
    """

    def __init__(self, checker: ModelChecker) -> None:
        self.checker = checker
        self.system = checker.system

    # -- distributed knowledge -------------------------------------------------

    def distributed_knowledge(
        self, group: Sequence[ProcessId], formula: Formula, point: Point
    ) -> bool:
        """D_G phi at (r, m): phi holds at every point indistinguishable
        from (r, m) by ALL members of G simultaneously (the intersection
        of the ~_p relations)."""
        group = list(group)
        if not group:
            raise ValueError("group must be non-empty")
        self.system.note_knowledge_query()
        candidates = self.system.indistinguishable_points(group[0], point)
        for candidate in candidates:
            if all(
                candidate.history(p) == point.history(p) for p in group[1:]
            ):
                if not self.checker.holds(formula, candidate):
                    return False
        return True

    # -- common knowledge --------------------------------------------------------

    def common_knowledge_points(
        self, group: Sequence[ProcessId], formula: Formula
    ) -> set[tuple[int, int]]:
        """The set of points (run_index, time) where C_G phi holds.

        Computed as the greatest fixpoint of X = E_G(phi and X): start
        from the set of points satisfying phi and apply the E_G step
        until stable.
        """
        system = self.system
        system.note_knowledge_query()
        members = [p for p in system.processes if p in group]
        kernel = system.columnar_kernel()
        base = self.checker.point_set(formula)
        fixed = kernel.ck_fixpoint([system.process_bit(p) for p in members], base)
        return {system.point_key(pid) for pid in kernel.iter_point_ids(fixed)}

    def common_knowledge(
        self, group: Sequence[ProcessId], formula: Formula, point: Point
    ) -> bool:
        """C_G phi at a point (fixpoint semantics)."""
        points = self.common_knowledge_points(group, formula)
        i = self.system.run_index(point.run)
        if i is None:
            raise ValueError("point's run is not in the system")
        return (i, min(point.time, point.run.duration)) in points

    # -- E^k climbing ----------------------------------------------------------------

    def max_e_depth(
        self,
        group: Sequence[ProcessId],
        formula: Formula,
        point: Point,
        *,
        cap: int = 10,
    ) -> int:
        """The largest k <= cap with E_G^k phi true at the point.

        Semantically: level sets S_0 = [[phi]], S_{k+1} = E_G(S_k) are
        computed once as point sets; E^k holds at the point iff each group
        member's class of the point is contained in S_{k-1}.  Knowledge
        is veridical, so the level sets only shrink and the first failed
        level is final -- no nested formula is ever materialized.
        """
        system = self.system
        members = [p for p in system.processes if p in group]
        kernel = system.columnar_kernel()
        # The point's class per group member (by point id when in-system,
        # by local history otherwise; an absent class is empty = vacuous
        # truth).
        point_cids = [kernel.class_id_at(p, point) for p in group]
        members_j = [system.process_bit(p) for p in members]
        level = self.checker.point_set(formula)
        depth = 0
        while depth < cap:
            if not all(kernel.class_in_set(cid, level) for cid in point_cids):
                break
            depth += 1
            if depth < cap:
                level = kernel.e_step(members_j, level)
        return depth
