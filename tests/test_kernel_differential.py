"""Differential tests: the columnar kernel vs the naive point-scanning
reference (:mod:`repro.knowledge.reference`) on randomized small systems.

Every knowledge primitive and both group-knowledge fixpoints must agree
point-for-point with the retained naive implementation; this is what
pins the fast path's semantics while the representation underneath it
changes.

The explorer classes at the bottom tie :mod:`repro.explore` into the
same contract: the exhaustively enumerated run set must contain every
run the seeded ensemble samples (truncated to the horizon), and the
kernel must agree with the naive reference on explorer-built systems.
"""

import pytest

from repro import (
    EnsembleSpec,
    ExploreSpec,
    explore,
    make_process_ids,
    run_ensemble,
    uniform_protocol,
)
from repro.core.protocols import NUDCProcess
from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker, Not
from repro.knowledge.reference import (
    naive_common_knowledge_points,
    naive_indistinguishable_points,
    naive_known_crash_count,
    naive_known_crashed_set,
    naive_knows,
    naive_knows_crashed,
    naive_max_e_depth,
)
from repro.model.synthetic import synthetic_system
from repro.sim.failures import all_crash_plans
from repro.workloads.generators import single_action

CASES = [
    # (n processes, runs, seed, duration)
    (2, 4, 0, 5),
    (3, 6, 1, 6),
    (3, 6, 2, 6),
    (4, 8, 3, 6),
    (4, 8, 4, 8),
    (5, 6, 5, 6),
]


def make_system(case):
    n, runs, seed, duration = case
    return synthetic_system(n, runs, seed=seed, duration=duration)


@pytest.fixture(params=CASES, ids=lambda c: f"n{c[0]}r{c[1]}s{c[2]}")
def system(request):
    return make_system(request.param)


def test_indistinguishable_points_match(system):
    for p in system.processes:
        for pt in system.points():
            fast = list(system.indistinguishable_points(p, pt))
            naive = naive_indistinguishable_points(system, p, pt)
            assert fast == naive


def test_knows_crashed_matches(system):
    for p in system.processes:
        for pt in system.points():
            for q in system.processes:
                assert system.knows_crashed(p, pt, q) == naive_knows_crashed(
                    system, p, pt, q
                ), (p, pt.time, q)


def test_known_crashed_set_matches(system):
    for p in system.processes:
        for pt in system.points():
            assert system.known_crashed_set(p, pt) == naive_known_crashed_set(
                system, p, pt
            )


def test_known_crash_count_matches(system):
    procs = system.processes
    subsets = [
        frozenset(procs),
        frozenset(procs[:1]),
        frozenset(procs[1:]),
        frozenset(procs[::2]),
    ]
    for p in procs:
        for pt in system.points():
            for subset in subsets:
                assert system.known_crash_count(p, pt, subset) == naive_known_crash_count(
                    system, p, pt, subset
                )


def test_generic_knows_matches(system):
    victim = system.processes[-1]
    predicate = lambda pt: pt.run.crashed_by(victim, pt.time)  # noqa: E731
    for p in system.processes:
        for pt in system.points():
            assert system.knows(p, pt, predicate) == naive_knows(
                system, p, pt, predicate
            )


def test_checker_knows_agrees_with_system_knows(system):
    checker = ModelChecker(system)
    victim = system.processes[-1]
    for p in system.processes:
        phi = Knows(p, Crashed(victim))
        for pt in system.points():
            assert checker.holds(phi, pt) == system.knows_crashed(p, pt, victim)


def test_common_knowledge_points_match(system):
    mc = ModelChecker(system)
    group_checker = GroupChecker(mc)
    victim = system.processes[-1]
    groups = [
        tuple(system.processes),
        tuple(system.processes[:2]),
    ]
    for phi in (Crashed(victim), Not(Crashed(victim))):
        for group in groups:
            fast = group_checker.common_knowledge_points(group, phi)
            naive = naive_common_knowledge_points(mc, group, phi)
            assert fast == naive


def _canonical(run, horizon):
    """A run's observable content up to the horizon, as a value."""
    return tuple(
        (p, tuple((t, e) for t, e in run.timeline(p) if t <= horizon))
        for p in sorted(run.processes)
    )


class TestExplorerSupersetOfEnsemble:
    """The enumerated run set contains every sampled run (prefix-wise).

    The seeded executor's adversary draws (delays, postponements,
    within-tick shuffles) are all instances of the explorer's defer
    choices, so for matched crash plans every ensemble run truncated to
    the horizon must appear among the explorer's runs.  Activation
    skipping is outside the explorer's model, so the ensemble runs with
    the default ``activation_prob=1`` and no detector.
    """

    @pytest.mark.parametrize("n", [2, 3])
    def test_superset(self, n):
        procs = make_process_ids(n)
        horizon = 4
        plans = tuple(all_crash_plans(procs, max_failures=1, crash_tick=2))
        sampled = run_ensemble(
            EnsembleSpec(
                processes=procs,
                protocol=uniform_protocol(NUDCProcess),
                crash_plans=plans,
                workload=single_action("p1", tick=1),
                seeds=tuple(range(10)),
            ),
            cache=None,
        ).runs
        explored = explore(
            ExploreSpec(
                processes=procs,
                protocol=uniform_protocol(NUDCProcess),
                horizon=horizon,
                max_failures=1,
                crash_ticks=(2,),
                workload=single_action("p1", tick=1),
            ),
            cache=None,
        ).runs
        explored_set = {_canonical(r, horizon) for r in explored}
        for run in sampled:
            assert _canonical(run, horizon) in explored_set


class TestExplorerSystemMatchesNaiveKernel:
    """The fast kernel and the naive reference agree on explorer systems."""

    @pytest.fixture(scope="class", params=["reliable", "lossy"])
    def explorer_system(self, request):
        spec = ExploreSpec(
            processes=make_process_ids(3),
            protocol=uniform_protocol(NUDCProcess),
            horizon=4,
            max_failures=1,
            crash_ticks=(1, 3),
            workload=single_action("p1", tick=1),
            lossy=request.param == "lossy",
            max_consecutive_drops=1,
        )
        return explore(spec, cache=None).system()

    def test_knows_crashed_matches(self, explorer_system):
        system = explorer_system
        for p in system.processes:
            for pt in system.points():
                for q in system.processes:
                    assert system.knows_crashed(p, pt, q) == naive_knows_crashed(
                        system, p, pt, q
                    )

    def test_generic_knows_matches(self, explorer_system):
        system = explorer_system
        predicate = lambda pt: pt.run.crashed_by("p1", pt.time)  # noqa: E731
        for p in system.processes:
            for pt in system.points():
                assert system.knows(p, pt, predicate) == naive_knows(
                    system, p, pt, predicate
                )

    def test_common_knowledge_points_match(self, explorer_system):
        mc = ModelChecker(explorer_system)
        group_checker = GroupChecker(mc)
        group = tuple(explorer_system.processes)
        for phi in (Crashed("p1"), Not(Crashed("p1"))):
            fast = group_checker.common_knowledge_points(group, phi)
            naive = naive_common_knowledge_points(mc, group, phi)
            assert fast == naive


def test_max_e_depth_matches(system):
    mc = ModelChecker(system)
    group_checker = GroupChecker(mc)
    victim = system.processes[-1]
    group = tuple(system.processes)
    phi = Crashed(victim)
    for run in system.runs[:3]:
        for m in (0, run.duration // 2, run.duration):
            pt = next(p for p in system.points() if p.run is run and p.time == m)
            assert group_checker.max_e_depth(
                group, phi, pt, cap=4
            ) == naive_max_e_depth(mc, group, phi, pt, cap=4)
