"""Semantic analyses: locality, stability, failure-insensitivity.

* A formula phi is *local to p* in R iff ``K_p phi or K_p ~phi`` is
  valid (p always knows whether phi holds).
* phi is *stable* in R iff ``phi => Box phi`` is valid.
* phi (local to q) is *insensitive to failure by q* (Definition 3.3)
  iff appending ``crash_q`` to q's history never changes phi's truth:
  whenever two points of R carry q-histories h and h + crash_q, phi
  agrees on them.

These are decision procedures over the given finite system, matching the
paper's system-relative definitions.
"""

from __future__ import annotations

from repro.knowledge.formulas import Formula, Implies, Knows, Not, Or, Box
from repro.knowledge.semantics import ModelChecker
from repro.model.events import ProcessId
from repro.model.run import Point


def is_local(checker: ModelChecker, formula: Formula, process: ProcessId) -> bool:
    """phi is local to p iff K_p(phi) or K_p(~phi) is valid in R."""
    return checker.valid(Or(Knows(process, formula), Knows(process, Not(formula))))


def is_stable(checker: ModelChecker, formula: Formula) -> bool:
    """phi is stable iff phi => Box phi is valid in R."""
    return checker.valid(Implies(formula, Box(formula)))


def insensitive_to_failure(
    checker: ModelChecker, formula: Formula, process: ProcessId
) -> bool:
    """Definition 3.3: appending crash_q to q's history never flips phi.

    Scans the system's indistinguishability index for q: for every
    history of the form h + crash_q occurring at some point, compare
    phi's truth there with its truth at points carrying history h.
    """
    system = checker.system
    kernel = system.columnar_kernel()
    j = system.process_bit(process)

    def representative(cid: int) -> Point:  # a class's first member
        return system.point_at(kernel.member_point_ids(cid)[0])

    for cid in kernel.class_ids(j):
        point = representative(cid)
        history = point.history(process)
        if not history.crashed:
            continue
        parent = kernel.class_of_history(j, history.prefix(len(history) - 1))
        if parent is not None and checker.holds(formula, point) != checker.holds(
            formula, representative(parent)
        ):
            return False
    return True


def a4_instance_holds(
    checker: ModelChecker,
    formula: Formula,
    point: Point,
    group: frozenset[ProcessId],
) -> bool:
    """One instance of condition A4 (Section 3).

    Given phi (stable, local to some process, insensitive to failure by
    it) and a point (r, m) where every process in ``group`` fails to
    know phi, A4 demands a point (r', m) of the system such that

    (a) r'_q(m) = r_q(m) for q in group,
    (b) for q outside the group, r'_q(m) is a prefix h of r_q(m), or
        h + crash_q where q crashes by m in r, and
    (c) (R, r', m) |= ~phi.

    This searches the system for such a point; A4 holds of the system
    for this instance iff one exists.  The paper's non-FIP example is a
    system where no such point exists (tested in the E12 experiment).
    """
    system = checker.system
    run, m = point.run, point.time
    # Precondition: nobody in the group knows phi here.  Sorted so the
    # process named in the error does not depend on set-iteration order.
    for q in sorted(group):
        if checker.holds(Knows(q, formula), point):
            raise ValueError(f"{q} knows the formula at the given point")
    for candidate_run in system:
        candidate = Point(candidate_run, m)
        if checker.holds(formula, candidate):
            continue  # (c) fails
        ok = True
        for q in run.processes:
            hq = run.history(q, m)
            hq_prime = candidate_run.history(q, m)
            if q in group:
                if hq_prime != hq:  # (a)
                    ok = False
                    break
            else:
                if hq_prime.is_prefix_of(hq):
                    continue  # (b), first disjunct: a plain prefix
                crash_variant = (
                    hq_prime.crashed
                    and len(hq_prime) > 0
                    and hq_prime.prefix(len(hq_prime) - 1).is_prefix_of(hq)
                    and run.crashed_by(q, m)
                )
                if not crash_variant:  # (b), second disjunct fails too
                    ok = False
                    break
        if ok:
            return True
    return False


def knowledge_is_veridical(
    checker: ModelChecker, formula: Formula, process: ProcessId
) -> bool:
    """The knowledge axiom T: K_p phi => phi, valid in every system by
    construction of the semantics; exposed for the property tests."""
    return checker.valid(Implies(Knows(process, formula), formula))


def positive_introspection(
    checker: ModelChecker, formula: Formula, process: ProcessId
) -> bool:
    """Axiom 4: K_p phi => K_p K_p phi."""
    kp = Knows(process, formula)
    return checker.valid(Implies(kp, Knows(process, kp)))


def negative_introspection(
    checker: ModelChecker, formula: Formula, process: ProcessId
) -> bool:
    """Axiom 5: ~K_p phi => K_p ~K_p phi."""
    kp = Knows(process, formula)
    return checker.valid(Implies(Not(kp), Knows(process, Not(kp))))
