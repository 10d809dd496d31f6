"""Three-way differential tests: naive reference vs the columnar kernel
built from scratch vs the columnar kernel built by incremental refinement.

Acceptance pins *bit-identical* answers from the retained
point-scanning reference (:mod:`repro.knowledge.reference`) and from
both ways the one epistemic kernel is constructed -- a from-scratch
``build_kernel`` and ``System.extend``'s class refinement of a
half-system's kernel -- over the primitives (Knows,
indistinguishability), the E^k ladder, and the C_G fixpoint.  Every
case runs on both kernel paths (numpy and the stdlib fallback), and
once more on runs that made a pickle round trip, the form in which pool
workers return them.
"""

from __future__ import annotations

import pickle

import pytest

from repro.knowledge import Crashed, GroupChecker, ModelChecker, Not
from repro.knowledge.group import e_iterated
from repro.knowledge.reference import (
    naive_common_knowledge_points,
    naive_indistinguishable_points,
    naive_known_crashed_set,
    naive_knows_crashed,
)
from repro.model.run import Point
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from tests.conftest import BACKENDS, kernel_path

CASES = [
    # (n processes, runs, seed, duration)
    (2, 4, 0, 5),
    (3, 6, 1, 6),
    (4, 6, 3, 6),
]


class Kernels:
    """One run set, indexed from scratch and by incremental refinement."""

    def __init__(self, case):
        n, runs, seed, duration = case
        base = synthetic_system(n, runs, seed=seed, duration=duration)
        self.runs = base.runs
        self.system = System(self.runs)
        self.system.columnar_kernel()
        half = len(self.runs) // 2
        prefix = System(self.runs[:half])
        prefix.columnar_kernel()
        self.refined_system = prefix.extend(self.runs[half:])

    @property
    def systems(self):
        return (self.system, self.refined_system)


@pytest.fixture(
    params=[(c, b) for c in CASES for b in BACKENDS],
    ids=lambda p: f"n{p[0][0]}r{p[0][1]}s{p[0][2]}-{p[1]}",
)
def kernels(request):
    """The case's kernels; every kernel the test builds takes the case's path."""
    case, backend = request.param
    with kernel_path(backend):
        yield Kernels(case)


def test_indistinguishable_points_three_way(kernels):
    for system in kernels.systems:
        for p in system.processes:
            for pt in system.points():
                naive = naive_indistinguishable_points(system, p, pt)
                assert list(system.indistinguishable_points(p, pt)) == naive


def test_knows_crashed_three_way(kernels):
    fresh, refined = kernels.systems
    for p in fresh.processes:
        for pt in fresh.points():
            for q in fresh.processes:
                expected = naive_knows_crashed(fresh, p, pt, q)
                assert fresh.knows_crashed(p, pt, q) == expected
                assert refined.knows_crashed(p, pt, q) == expected


def test_known_crashed_set_three_way(kernels):
    fresh, refined = kernels.systems
    for p in fresh.processes:
        for pt in fresh.points():
            expected = naive_known_crashed_set(fresh, p, pt)
            assert fresh.known_crashed_set(p, pt) == expected
            assert refined.known_crashed_set(p, pt) == expected


def _naive_e_level_sets(system, group, victim, depth):
    """E^k level sets by pure point scanning (no kernel, no bitsets).

    S_0 is the truth set of Crashed(victim); S_{k+1} keeps the points
    whose every ~_p candidate (for every p in the group) lies in S_k.
    """
    points = list(system.points())
    levels = [
        {pt for pt in points if pt.run.crashed_by(victim, pt.time)}
    ]
    for _ in range(depth):
        prev = levels[-1]
        levels.append(
            {
                pt
                for pt in points
                if all(
                    all(
                        cand in prev
                        for cand in naive_indistinguishable_points(system, p, pt)
                    )
                    for p in group
                )
            }
        )
    return levels


def test_e_level_sets_three_way(kernels):
    fresh, refined = kernels.systems
    group = tuple(fresh.processes)
    victim = fresh.processes[-1]
    depth = 3
    levels = _naive_e_level_sets(fresh, group, victim, depth)
    mc_fresh, mc_refined = ModelChecker(fresh), ModelChecker(refined)
    for k in range(depth + 1):
        phi_k = e_iterated(group, Crashed(victim), k)
        for pt in fresh.points():
            expected = pt in levels[k]
            assert mc_fresh.holds(phi_k, pt) == expected, (k, pt.time)
            assert mc_refined.holds(phi_k, pt) == expected, (k, pt.time)


def test_common_knowledge_points_three_way(kernels):
    fresh, refined = kernels.systems
    victim = fresh.processes[-1]
    groups = [tuple(fresh.processes), tuple(fresh.processes[:2])]
    mc_fresh, mc_refined = ModelChecker(fresh), ModelChecker(refined)
    gc_fresh, gc_refined = GroupChecker(mc_fresh), GroupChecker(mc_refined)
    for phi in (Crashed(victim), Not(Crashed(victim))):
        for group in groups:
            expected = naive_common_knowledge_points(mc_fresh, group, phi)
            assert gc_fresh.common_knowledge_points(group, phi) == expected
            assert gc_refined.common_knowledge_points(group, phi) == expected


def test_max_e_depth_three_way(kernels):
    fresh, refined = kernels.systems
    victim = fresh.processes[-1]
    group = tuple(fresh.processes)
    phi = Crashed(victim)
    cap = 4
    levels = _naive_e_level_sets(fresh, group, victim, cap)
    gc_fresh = GroupChecker(ModelChecker(fresh))
    gc_refined = GroupChecker(ModelChecker(refined))
    for run in fresh.runs[:3]:
        for m in (0, run.duration // 2, run.duration):
            pt = Point(run, m)
            # E^k phi holds iff pt is in the k-th level set; the ladder
            # stops at the first level that fails.
            expected = next(
                (k for k in range(cap) if pt not in levels[k + 1]), cap
            )
            assert gc_fresh.max_e_depth(group, phi, pt, cap=cap) == expected
            assert gc_refined.max_e_depth(group, phi, pt, cap=cap) == expected


def test_foreign_points_agree(kernels):
    """A point whose run is outside the system has no candidates, so
    Knows is vacuously true -- identically in all three strategies."""
    fresh, refined = kernels.systems
    foreign = synthetic_system(len(fresh.processes), 2, seed=777).runs
    for run in foreign:
        if run in fresh.runs:  # pragma: no cover - seed collision guard
            continue
        pt = Point(run, 0)
        for p in fresh.processes:
            for q in fresh.processes:
                expected = naive_knows_crashed(fresh, p, pt, q)
                assert fresh.knows_crashed(p, pt, q) == expected
                assert refined.knows_crashed(p, pt, q) == expected


def test_transfer_roundtrip_preserves_answers(kernels):
    """Runs rebuilt from the bytes a pool worker sends back (the pickled
    runs) index into a system that answers identically to the original."""
    received = pickle.loads(pickle.dumps(kernels.runs))
    assert received == kernels.runs
    received_system = System(received)
    original = kernels.system
    victim = original.processes[-1]
    group = tuple(original.processes)
    for p in original.processes:
        for pt in received_system.points():
            for q in original.processes:
                assert received_system.knows_crashed(p, pt, q) == original.knows_crashed(
                    p, Point(original.runs[original.run_index(pt.run)], pt.time), q
                )
    gc_orig = GroupChecker(ModelChecker(original))
    gc_received = GroupChecker(ModelChecker(received_system))
    phi = Crashed(victim)
    assert gc_received.common_knowledge_points(group, phi) == (
        gc_orig.common_knowledge_points(group, phi)
    )


def test_kernel_choice_is_visible(kernels):
    """Each leg's kernel construction shows in its stats, so the
    refinement leg can never silently fall back to a fresh build."""
    fresh, refined = kernels.systems
    assert (fresh.stats.arena_builds, fresh.stats.arena_refinements) == (1, 0)
    assert (refined.stats.arena_builds, refined.stats.arena_refinements) == (0, 1)
    assert refined.columnar_kernel() is refined.columnar_kernel()


def test_kernel_path_reaches_fresh_and_refined_kernels():
    """``kernel_path("no-numpy")`` puts both ways of building a kernel on
    the stdlib path; ``"numpy"`` uses numpy exactly when it is installed."""
    runs = synthetic_system(3, 4, seed=0, duration=4).runs
    with kernel_path("no-numpy"):
        prefix = System(runs[:2])
        prefix.columnar_kernel()
        assert System(runs).columnar_kernel().np is None
        assert prefix.extend(runs[2:]).columnar_kernel().np is None
    try:
        import numpy
    except ImportError:
        numpy = None
    with kernel_path("numpy"):
        assert System(runs).columnar_kernel().np is numpy
