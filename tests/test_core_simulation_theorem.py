"""Tests for the f / f' run transformations (Theorems 3.6 and 4.3)."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import StrongFDUDCProcess
from repro.core.simulation_theorem import (
    simulate_generalized_detectors,
    simulate_perfect_detectors,
    subset_order,
    transform_run_f,
    transform_run_f_prime,
)
from repro.detectors.properties import (
    generalized_strong_accuracy,
    strong_accuracy,
    strong_completeness,
)
from repro.detectors.standard import LyingOracle, PerfectOracle
from repro.model.context import make_process_ids
from repro.model.events import SuspectEvent
from repro.model.run import validate_run
from repro.model.system import System
from repro.runtime import EnsembleSpec, run_ensemble
from repro.sim.executor import Executor
from repro.sim.failures import sample_crash_plan
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

import random

PROCS = make_process_ids(3)


def small_system(detector=None, seeds=(0,)):
    return run_ensemble(
        EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(StrongFDUDCProcess),
            t=2,
            workload=lambda plan: post_crash_workload(
                PROCS, plan, actions_per_survivor=1
            ),
            detector=detector or PerfectOracle(),
            seeds=seeds,
        ),
        cache=None,
    ).system()


class TestSubsetOrder:
    def test_binary_counting(self):
        order = subset_order(("p1", "p2"))
        assert order == (
            frozenset(),
            frozenset({"p1"}),
            frozenset({"p2"}),
            frozenset({"p1", "p2"}),
        )

    def test_covers_powerset(self):
        order = subset_order(PROCS)
        assert len(order) == 8
        assert len(set(order)) == 8
        assert frozenset(PROCS) in order

    def test_deterministic_across_orderings(self):
        assert subset_order(("p2", "p1")) == subset_order(("p1", "p2"))


class TestTransformStructure:
    def setup_method(self):
        self.system = small_system()
        self.run = next(r for r in self.system if r.faulty())
        self.out = transform_run_f(self.run, self.system)

    def test_duration_doubles(self):
        assert self.out.duration == 2 * self.run.duration + 1

    def test_pickled_clone_transforms_like_the_original(self):
        # An equal run that is not the system's own object (as when an
        # ensemble is rebuilt independently) must give the same answers.
        clone = pickle.loads(pickle.dumps(self.run))
        assert clone is not self.run and clone == self.run
        out = transform_run_f(clone, self.system)
        assert out == self.out and out.meta == self.out.meta
        assert transform_run_f_prime(clone, self.system) == transform_run_f_prime(
            self.run, self.system
        )

    def test_original_fd_events_deleted(self):
        # P2: the original detector's reports do not survive into f(r).
        for p in PROCS:
            for e in self.out.events(p):
                if isinstance(e, SuspectEvent):
                    assert e.derived

    def test_non_fd_events_preserved_in_order(self):
        for p in PROCS:
            original = [
                e for e in self.run.events(p) if not isinstance(e, SuspectEvent)
            ]
            copied = [
                e for e in self.out.events(p) if not isinstance(e, SuspectEvent)
            ]
            assert original == copied

    def test_original_events_at_even_times(self):
        for p in PROCS:
            for t, e in self.out.timeline(p):
                if not isinstance(e, SuspectEvent) or not e.derived:
                    assert t % 2 == 0

    def test_derived_reports_at_odd_times(self):
        for p in PROCS:
            for t, e in self.out.timeline(p):
                if isinstance(e, SuspectEvent) and e.derived:
                    assert t % 2 == 1

    def test_r4_preserved(self):
        validate_run(self.out, check_r5=False)

    def test_crash_time_doubles(self):
        victim = next(iter(self.run.faulty()))
        assert self.out.crash_time(victim) == 2 * self.run.crash_time(victim)

    def test_every_live_odd_step_has_report(self):
        # P3 appends a derived report at EVERY odd step before a crash.
        for p in PROCS:
            crash = self.out.crash_time(p)
            horizon = crash if crash is not None else self.out.duration
            derived_times = {
                t
                for t, e in self.out.timeline(p)
                if isinstance(e, SuspectEvent) and e.derived
            }
            expected = {
                2 * m + 1
                for m in range(self.run.duration + 1)
                if 2 * m + 1 < (horizon if crash is not None else horizon + 1)
            }
            assert derived_times == expected


class TestTheorem36:
    def test_simulated_detectors_perfect(self):
        system = small_system(seeds=(0, 1))
        rf = simulate_perfect_detectors(system)
        for r in rf:
            assert strong_accuracy(r, derived=True)
            assert strong_completeness(r, derived=True)

    def test_accuracy_holds_for_any_ensemble(self):
        """Veridicality: derived accuracy is a theorem of the semantics,
        even when the underlying oracle lies."""
        runs = []
        for seed in range(3):
            runs.append(
                Executor(
                    PROCS,
                    uniform_protocol(StrongFDUDCProcess),
                    crash_plan=sample_crash_plan(
                        random.Random(seed), PROCS, crash_prob=0.4, horizon=15
                    ),
                    workload=single_action("p1", tick=1),
                    detector=LyingOracle(),
                    seed=seed,
                ).run()
            )
        system = System(runs)
        rf = simulate_perfect_detectors(system)
        assert all(strong_accuracy(r, derived=True) for r in rf)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_accuracy_property_random_ensembles(self, seed):
        rng = random.Random(seed)
        runs = []
        for i in range(2):
            runs.append(
                Executor(
                    PROCS,
                    uniform_protocol(StrongFDUDCProcess),
                    crash_plan=sample_crash_plan(
                        rng, PROCS, max_failures=2, crash_prob=0.5, horizon=12
                    ),
                    workload=single_action("p1", tick=1),
                    detector=PerfectOracle(),
                    seed=rng.randrange(1 << 16),
                ).run()
            )
        rf = simulate_perfect_detectors(System(runs))
        assert all(strong_accuracy(r, derived=True) for r in rf)


class TestTheorem43:
    def test_f_prime_reports_are_generalized(self):
        system = small_system()
        run = system.runs[0]
        out = transform_run_f_prime(run, system)
        from repro.model.events import GeneralizedSuspicion

        derived = [
            e
            for p in PROCS
            for e in out.events(p)
            if isinstance(e, SuspectEvent) and e.derived
        ]
        assert derived
        assert all(isinstance(e.report, GeneralizedSuspicion) for e in derived)

    def test_subset_index_follows_history_length(self):
        system = small_system()
        run = system.runs[0]
        out = transform_run_f_prime(run, system)
        order = subset_order(PROCS)
        for p in PROCS:
            for t, e in out.timeline(p):
                if isinstance(e, SuspectEvent) and e.derived:
                    m = (t - 1) // 2
                    hist_len = len(run.history(p, min(m + 1, run.duration)))
                    assert e.report.suspects == order[hist_len % len(order)]

    def test_generalized_accuracy_any_ensemble(self):
        system = small_system(detector=LyingOracle())
        rfp = simulate_generalized_detectors(system)
        assert all(generalized_strong_accuracy(r, derived=True) for r in rfp)

    def test_counts_bounded_by_subset_size(self):
        system = small_system()
        rfp = simulate_generalized_detectors(system)
        for r in rfp:
            for p in PROCS:
                for e in r.events(p):
                    if isinstance(e, SuspectEvent) and e.derived:
                        assert e.report.count <= len(e.report.suspects)


class TestEnsembleKnowledgeEffects:
    def test_larger_ensembles_know_less(self):
        """Adding runs can only remove knowledge: derived suspicion sets
        shrink pointwise as the ensemble grows."""
        small = small_system(seeds=(0,))
        big = small_system(seeds=(0, 1, 2))
        from repro.model.run import Point

        run = small.runs[0]
        assert run in big.runs
        for m in range(0, run.duration, 7):
            for p in PROCS:
                s_small = small.known_crashed_set(p, Point(run, m))
                s_big = big.known_crashed_set(p, Point(run, m))
                assert s_big <= s_small
