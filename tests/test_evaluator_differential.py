"""Differential: the point-set model checker vs the naive reference.

:class:`~repro.knowledge.semantics.ModelChecker` turns every subformula
into a kernel point set; :func:`~repro.knowledge.reference.naive_holds`
recurses over the formula with no cache and no kernel.  Random formulas
over the wire codec's AST fragment (the strategies of
``test_knowledge_wire``) must get the same verdict from both at every
point, and ``valid`` / ``counterexample`` / ``satisfiable`` must pick
the first point of a point-id-order scan of the naive verdicts.

Each system is checked with a fresh kernel and with one built by
``System.extend``'s incremental refinement, on both kernel paths;
so are runs with events past their duration and one small complete
explored system.  The checks also cover times past a run's duration and
foreign points, including one whose local histories all occur in the
system.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings

from repro import ExploreSpec, explore, make_process_ids, uniform_protocol
from repro.core.protocols import NUDCProcess
from repro.knowledge import (
    Atom,
    Box,
    Crashed,
    Diamond,
    Formula,
    Implies,
    Knows,
    ModelChecker,
    Not,
)
from repro.knowledge.reference import naive_holds
from repro.model.run import Point, Run
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from repro.workloads.generators import single_action
from tests.conftest import BACKENDS, kernel_path
from tests.test_knowledge_wire import PROCS, _formulas

SYSTEMS = ["fresh", "refined", "clipped", "explored"]

_EXPLORE_SPEC = ExploreSpec(
    processes=make_process_ids(3),
    protocol=uniform_protocol(NUDCProcess),
    horizon=4,
    max_failures=1,
    crash_ticks=(1, 3),
    workload=single_action("p1", tick=1),
)


@functools.lru_cache(maxsize=None)
def _systems(backend: str) -> dict[str, System]:
    """The systems under test, their kernels built on ``backend``'s path."""
    with kernel_path(backend):
        runs = synthetic_system(3, 6, seed=13, duration=5).runs
        fresh = System(runs)
        fresh.columnar_kernel()
        prefix = System(runs[:3])
        prefix.columnar_kernel()
        refined = prefix.extend(runs[3:])
        # Durations cut short: the last events of each timeline fall
        # past the duration, where no cut sees them.
        clipped = System(
            Run(run.processes, {p: run.timeline(p) for p in PROCS}, run.duration - 2)
            for run in runs
        )
        clipped.columnar_kernel()
        explored = explore(_EXPLORE_SPEC, cache=None).system()
        assert explored.complete and explored.processes == PROCS
        explored.columnar_kernel()
    return {"fresh": fresh, "refined": refined, "clipped": clipped, "explored": explored}


def _foreign_runs(system: System) -> list[Run]:
    """Runs outside ``system``.

    The spliced run takes p1/p2 from one system run and p3 from another,
    and outlasts both, so every one of its local histories occurs in the
    system; the alien runs come from an unrelated seed.
    """
    a, b = system.runs[0], system.runs[-1]
    spliced = Run(
        PROCS,
        {"p1": a.timeline("p1"), "p2": a.timeline("p2"), "p3": b.timeline("p3")},
        max(a.duration, b.duration) + 2,
    )
    alien = synthetic_system(3, 2, seed=99, duration=6).runs
    runs = [spliced, *alien]
    assert all(system.run_index(run) is None for run in runs)
    return runs


def _foreign_points(system: System) -> list[Point]:
    """Every point of :func:`_foreign_runs`, and one past each duration."""
    return [Point(run, m) for run in _foreign_runs(system) for m in range(run.duration + 2)]


def _check(system: System, formula: Formula) -> None:
    checker = ModelChecker(system)
    points = list(system.points())
    naive = [naive_holds(system, formula, point) for point in points]
    assert [checker.holds(formula, point) for point in points] == naive

    def first(value: bool) -> int | None:
        return next((i for i, v in enumerate(naive) if v == value), None)

    def point_id(point: Point | None) -> int | None:
        return None if point is None else system.point_id(point)

    assert checker.valid(formula) == all(naive)
    assert point_id(checker.counterexample(formula)) == first(False)
    assert point_id(checker.satisfiable(formula)) == first(True)
    # Past the duration the final cut repeats.
    for run in system.runs:
        late = Point(run, run.duration + 3)
        assert checker.holds(formula, late) == naive_holds(system, formula, late)
    for point in _foreign_points(system):
        assert checker.holds(formula, point) == naive_holds(system, formula, point)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(formula=_formulas)
def test_point_sets_match_naive_reference(backend, name, formula) -> None:
    _check(_systems(backend)[name], formula)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_callable_atoms_match_naive_reference(backend, name) -> None:
    """An arbitrary-callable Atom is evaluated point by point, inside
    every other operator."""
    late = Atom("late", lambda point: point.time >= 3)
    for formula in (
        late,
        Knows("p1", late),
        Box(Implies(late, Not(Crashed("p2")))),
        Diamond(Knows("p3", Not(late))),
    ):
        _check(_systems(backend)[name], formula)


def test_refined_and_fresh_sets_agree_bit_for_bit() -> None:
    for backend in BACKENDS:
        systems = _systems(backend)
        fresh, refined = systems["fresh"], systems["refined"]
        formula = Knows("p2", Diamond(Crashed("p1")))
        sets = [ModelChecker(s).point_set(formula) for s in (fresh, refined)]
        assert fresh.columnar_kernel().sets_equal(*sets)
