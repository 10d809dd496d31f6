"""Differential: the transforms f and f' against the point-at-a-time reference.

:mod:`repro.core.simulation_theorem` builds R^f and R^{f'} from the
kernel's class rows, one report per class (f) or per (class, subset
index) (f'); :mod:`repro.knowledge.reference` keeps the construction
that asks the kernel point by point.  Both must give the same runs, run
for run and meta included, on both kernel paths, over:

* the fresh, refined, clipped and explored systems of
  ``test_evaluator_differential`` (synthetic and explored runs carry no
  detector events);
* small A5_t ensembles whose runs do carry detector events
  (``PerfectOracle``, ``LyingOracle``, ``GeneralizedOracle``), which P2
  deletes but P3' still counts;
* random synthetic systems, some with events past their duration.

Runs outside the system -- one spliced from system histories, and alien
ones -- take the foreign path, whose vacuous reports must match too.
"""

from __future__ import annotations

import functools
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import GeneralizedFDUDCProcess, StrongFDUDCProcess
from repro.core.simulation_theorem import (
    simulate_generalized_detectors,
    simulate_perfect_detectors,
    transform_run_f,
    transform_run_f_prime,
)
from repro.detectors.generalized import GeneralizedOracle
from repro.detectors.standard import LyingOracle, PerfectOracle
from repro.knowledge.reference import (
    naive_transform_run_f,
    naive_transform_run_f_prime,
)
from repro.model.context import make_process_ids
from repro.model.events import SuspectEvent
from repro.model.run import Run
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from repro.runtime import EnsembleSpec, run_ensemble
from repro.sim.executor import ExecutionConfig
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload
from tests.conftest import BACKENDS, kernel_path
from tests.test_evaluator_differential import SYSTEMS, _foreign_runs, _systems

PROCS = make_process_ids(3)
ORACLES = ["perfect", "lying", "generalized"]


@functools.lru_cache(maxsize=None)
def _ensemble(oracle: str, seeds: tuple[int, ...] = (0,)) -> tuple[Run, ...]:
    """An A5_t ensemble over PROCS whose runs carry detector events."""
    if oracle == "generalized":
        protocol, detector, t = (
            uniform_protocol(GeneralizedFDUDCProcess, t=1), GeneralizedOracle(1), 1,
        )
    else:
        oracle_cls = PerfectOracle if oracle == "perfect" else LyingOracle
        protocol, detector, t = uniform_protocol(StrongFDUDCProcess), oracle_cls(), 2
    spec = EnsembleSpec.a5t(
        PROCS,
        protocol,
        t=t,
        workload=lambda plan: post_crash_workload(PROCS, plan, actions_per_survivor=1),
        detector=detector,
        seeds=seeds,
        # A lying detector never falls quiet, so its runs last until
        # max_ticks; the reference is slow on long runs.
        config=ExecutionConfig(max_ticks=150),
    )
    runs = run_ensemble(spec, cache=None).runs
    assert any(
        isinstance(event, SuspectEvent) for run in runs for p in PROCS for event in run.events(p)
    )
    return tuple(runs)


def _with_backend(backend: str, runs: tuple[Run, ...]) -> System:
    """A system over ``runs`` whose kernel is built on ``backend``'s path."""
    with kernel_path(backend):
        system = System(runs)
        system.columnar_kernel()
    return system


def _clip(runs: tuple[Run, ...], by: int) -> tuple[Run, ...]:
    """The runs with their durations cut short: the last events of a
    timeline then fall past the duration, where no cut sees them."""
    return tuple(
        Run(run.processes, {p: run.timeline(p) for p in run.processes},
            max(run.duration - by, 0))
        for run in runs
    )


def _check(system: System, foreign: list[Run]) -> None:
    for simulate, reference in (
        (simulate_perfect_detectors, naive_transform_run_f),
        (simulate_generalized_detectors, naive_transform_run_f_prime),
    ):
        produced = simulate(system).runs
        expected = [reference(run, system) for run in system]
        assert list(produced) == expected
        assert [run.meta for run in produced] == [run.meta for run in expected]
    # One-off calls (fresh memos, the kernel's tables reused), in-system
    # and foreign.
    for run in [system.runs[0], system.runs[-1], *foreign]:
        assert transform_run_f(run, system) == naive_transform_run_f(run, system)
        assert transform_run_f_prime(run, system) == naive_transform_run_f_prime(run, system)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_named_systems_match_reference(backend: str, name: str) -> None:
    system = _systems(backend)[name]
    _check(system, _foreign_runs(system))


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_detector_ensembles_match_reference(backend: str, oracle: str) -> None:
    runs = _ensemble(oracle)
    system = _with_backend(backend, runs)
    _check(system, _foreign_runs(system))
    clipped = _with_backend(backend, _clip(runs, 3))
    _check(clipped, _foreign_runs(clipped))


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    n=st.integers(2, 4),
    runs=st.integers(1, 5),
    duration=st.integers(1, 6),
    clip=st.integers(0, 2),
    seed=st.integers(0, 10**6),
)
def test_random_systems_match_reference(
    backend: str, n: int, runs: int, duration: int, clip: int, seed: int
) -> None:
    base = synthetic_system(n, runs, seed=seed, duration=duration).runs
    system = _with_backend(backend, _clip(base, clip))
    alien = synthetic_system(n, 2, seed=seed + 1, duration=duration + 1).runs
    _check(system, [run for run in alien if system.run_index(run) is None])


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    oracle=st.sampled_from(ORACLES),
    seeds=st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True),
    clip=st.integers(0, 4),
)
def test_random_ensembles_match_reference(
    backend: str, oracle: str, seeds: list[int], clip: int
) -> None:
    runs = _ensemble(oracle, tuple(seeds))
    system = _with_backend(backend, _clip(runs, clip))
    _check(system, [])
