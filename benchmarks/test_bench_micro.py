"""Microbenchmarks for the substrates: executor throughput, knowledge
model checking, the indistinguishability index, and the f transformation
-- plus the epistemic-kernel family (index build, Knows sweep, CK
fixpoint, each against the naive reference, and the f/f' transforms
against their point-at-a-time reference) whose measurements are
written to ``BENCH_kernel.json`` at the repo root as the committed
performance baseline.

These are the performance-sensitive inner loops every experiment rides
on; they use pytest-benchmark's standard multi-round measurement.  Set
``REPRO_BENCH_SMOKE=1`` (as CI's bench-smoke job does) to skip the
timing-ratio assertions while keeping every correctness assertion.
"""

import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.core.protocols import NUDCProcess, StrongFDUDCProcess
from repro.core.simulation_theorem import (
    simulate_generalized_detectors,
    simulate_perfect_detectors,
    transform_run_f,
)
from repro.detectors.standard import PerfectOracle
from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker
from repro.knowledge.formulas import And, Box, Diamond, Implies, Not, Or
from repro.knowledge.paper_formulas import dc2_formula
from repro.knowledge.reference import (
    naive_common_knowledge_points,
    naive_holds,
    naive_known_crashed_set,
    naive_transform_run_f,
    naive_transform_run_f_prime,
)
from repro.model.context import make_process_ids
from repro.model.run import Point
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from repro.runtime import EnsembleSpec, run_ensemble
from repro.sim.executor import Executor, execute
from repro.sim.failures import CrashPlan
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

PROCS = make_process_ids(4)

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_KERNEL_JSON = REPO_ROOT / "BENCH_kernel.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def one_run(seed=0):
    return Executor(
        PROCS,
        uniform_protocol(StrongFDUDCProcess),
        crash_plan=CrashPlan.of({"p3": 8}),
        workload=single_action("p1", tick=1),
        detector=PerfectOracle(),
        seed=seed,
    ).run()


def small_system():
    return run_ensemble(
        EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(StrongFDUDCProcess),
            t=2,
            workload=lambda plan: post_crash_workload(PROCS, plan, actions_per_survivor=1),
            detector=PerfectOracle(),
            seeds=(0,),
        ),
        cache=None,
    ).system()


def test_bench_executor_single_run(benchmark):
    """End-to-end protocol execution: one UDC run with a crash."""
    run = benchmark(one_run)
    assert run.faulty() == frozenset({"p3"})


def test_bench_ensemble_construction(benchmark):
    """Building an A5_2 ensemble (11 crash plans, one seed)."""
    system = benchmark.pedantic(small_system, rounds=3, iterations=1)
    assert len(system) == 11


def test_bench_indistinguishability_index(benchmark):
    """Cold build of the ~_p index plus one knowledge query per process."""
    base = small_system()

    def rebuild_and_query():
        system = System(base.runs)  # fresh: forces index construction
        run = system.runs[-1]
        return [
            system.known_crashed_set(p, Point(run, run.duration))
            for p in PROCS
        ]

    sets = benchmark(rebuild_and_query)
    assert len(sets) == len(PROCS)


def test_bench_knowledge_query_warm(benchmark):
    """Warm K_p(crash(q)) queries over an indexed system."""
    system = small_system()
    checker = ModelChecker(system)
    run = next(r for r in system if r.faulty())
    victim = next(iter(run.faulty()))
    formula = Knows("p1", Crashed(victim))
    points = [Point(run, m) for m in range(run.duration + 1)]
    checker.holds(formula, points[-1])  # prime the caches

    def query_all():
        return sum(checker.holds(formula, pt) for pt in points)

    known = benchmark(query_all)
    assert known > 0


def test_bench_temporal_validity(benchmark):
    """Model-checking a DC2 validity (n^2 temporal clauses) over a system."""
    system = small_system()
    action = ("p1", "pc0")

    def check():
        checker = ModelChecker(system)  # cold caches each round
        return checker.valid(dc2_formula(PROCS, action))

    assert benchmark(check)


def test_bench_transform_f(benchmark):
    """The P1-P3 run transformation for one run against its ensemble."""
    system = small_system()
    run = next(r for r in system if r.faulty())

    out = benchmark(transform_run_f, run, system)
    assert out.duration == 2 * run.duration + 1


# -- epistemic-kernel family --------------------------------------------------
#
# Synthetic systems sized by process count n: 3n runs of duration 8 with
# crashes at varied times.  The same generators feed the differential
# tests, so what is benchmarked here is exactly what is proven correct
# there.
#
# Timings are *warm*: the run objects are shared across rounds, so
# per-run caches (prefix histories, timeline columns, event hashes) are
# hot and the measurement isolates the kernel's own work -- the regime
# the explorer and ensemble drivers actually run in.

KERNEL_NS = (5, 10, 20)
KERNEL_DURATION = 8
SWEEP_SAMPLE_RUNS = 3  # the naive sweep is quadratic; sample a slice
NAIVE_MAX_N = 10  # the naive kernel is timed (and the gate read) up to here


def kernel_system(n):
    return synthetic_system(
        n, runs=3 * n, seed=n, duration=KERNEL_DURATION, crash_prob=0.4
    )


def build_columnar_kernel(runs):
    system = System(runs)
    system.columnar_kernel()
    return system


def _sweep_points(system):
    """Points of the first SWEEP_SAMPLE_RUNS runs (the sweep workload)."""
    sample = system.runs[:SWEEP_SAMPLE_RUNS]
    return [Point(r, m) for r in sample for m in range(r.duration + 1)]


def _knows_sweep(system, points, processes=None):
    """known_crashed_set for every (process, point) of the workload."""
    total = 0
    for p in processes or system.processes:
        for pt in points:
            total += len(system.known_crashed_set(p, pt))
    return total


def _naive_knows_sweep(system, points, processes=None):
    total = 0
    for p in processes or system.processes:
        for pt in points:
            total += len(naive_known_crashed_set(system, p, pt))
    return total


@pytest.mark.parametrize("n", KERNEL_NS)
def test_bench_kernel_index_build(benchmark, n):
    """Columnar index construction (arena + class rows) for all n processes."""
    runs = kernel_system(n).runs

    system = benchmark(build_columnar_kernel, runs)
    assert system.stats.arena_builds == 1
    assert system.columnar_kernel().point_total == system.point_count


@pytest.mark.parametrize("n", KERNEL_NS)
def test_bench_kernel_knows_sweep(benchmark, n):
    """Warm known_crashed_set sweep over the sampled point workload."""
    system = build_columnar_kernel(kernel_system(n).runs)
    points = _sweep_points(system)

    total = benchmark(_knows_sweep, system, points)
    assert total == _naive_knows_sweep(system, points)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_bench_kernel_ck_fixpoint(benchmark, n):
    """The C_G fixpoint over the full group (warm class rows)."""
    system = build_columnar_kernel(kernel_system(n).runs)
    checker = GroupChecker(ModelChecker(system))
    group = system.processes
    phi = Crashed(system.processes[-1])
    checker.common_knowledge_points(group, phi)  # warm the kernel + phi set

    points = benchmark(checker.common_knowledge_points, group, phi)
    assert isinstance(points, set)


def test_bench_arena_encode(benchmark):
    """Flattening the n=20 run batch into a columnar arena (warm columns)."""
    from repro.columnar import encode_runs

    runs = kernel_system(20).runs
    arena = benchmark(encode_runs, runs)
    assert arena.n_runs == len(runs)


def _best_of(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _calls_per_batch(thunk, batch_s):
    """Fewest calls (doubling from 1) that take at least ``batch_s``."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            thunk()
        if time.perf_counter() - start >= batch_s:
            return calls
        calls *= 2


def _timed_pair(pairs, repeat, batch_s):
    """Time two workloads, each given as slices: ``pairs`` holds one
    (slice of a, slice of b) pair per slice.

    Every slice of a is timed right before the same slice of b, round
    after round, so a load spike or a slower phase of the host hits both
    sides alike; a round times a batch of calls lasting at least
    ``batch_s``, so no sub-millisecond call is timed alone.  Returns the
    best per-call seconds of a and of b and the median over rounds of
    a's time over b's.
    """
    calls = [[_calls_per_batch(thunk, batch_s) for thunk in pair] for pair in pairs]
    rounds = []
    for _ in range(repeat):
        totals = [0.0, 0.0]
        for pair, counts in zip(pairs, calls):
            for side, thunk in enumerate(pair):
                start = time.perf_counter()
                for _ in range(counts[side]):
                    thunk()
                totals[side] += (time.perf_counter() - start) / counts[side]
        rounds.append(totals)
    best_a = min(a for a, _ in rounds)
    best_b = min(b for _, b in rounds)
    return best_a, best_b, statistics.median(a / b for a, b in rounds)


#: each timed round of a naive/columnar pair lasts at least this long per side
TIMING_BATCH_S = 0.01


def _validity_formula(system):
    """Veridicality of everyone's knowledge of the last process's crash:
    valid, and n implications over one K_p each."""
    phi = Crashed(system.processes[-1])
    return And(*(Implies(Knows(p, phi), phi) for p in system.processes))


def _temporal_formula(system):
    """Diamond of a crash and Box of a non-crash, per process."""
    return Or(
        *(
            And(Diamond(Crashed(p)), Box(Not(Crashed(q))))
            for p, q in zip(system.processes, system.processes[1:])
        )
    )


def _naive_valid(system, formula):
    return all(
        naive_holds(system, formula, Point(run, m))
        for run in system.runs
        for m in range(run.duration + 1)
    )


#: interleaved rounds of each transform pair (f, f')
TRANSFORM_ROUNDS = 21


def _transform_entry():
    """R^f and R^{f'} from class rows against the point-at-a-time
    reference, over ``small_system()`` (n=4, PerfectOracle, so the runs
    carry detector events).  The kernel is warm: both sides read the
    same class tables, and each call of the row path starts with fresh
    report memos, as one ``simulate_*`` call does."""
    system = small_system()
    pairs = (
        ("f", simulate_perfect_detectors, naive_transform_run_f),
        ("f_prime", simulate_generalized_detectors, naive_transform_run_f_prime),
    )
    entry = {"runs": len(system), "points": system.point_count}
    for name, simulate, reference in pairs:
        assert list(simulate(system).runs) == [reference(r, system) for r in system]
        naive_s, rows_s, speedup = _timed_pair(
            [
                (
                    lambda reference=reference: [reference(r, system) for r in system],
                    lambda simulate=simulate: simulate(system),
                )
            ],
            repeat=TRANSFORM_ROUNDS,
            batch_s=TIMING_BATCH_S,
        )
        entry.update(
            {
                f"{name}_s": rows_s,
                f"naive_{name}_s": naive_s,
                f"{name}_speedup": speedup,
            }
        )
    return entry


def test_kernel_baseline_json():
    """Measure the kernel family (columnar vs naive) and the transform
    row, and write ``BENCH_kernel.json``.  The ``valid()`` and temporal
    rows are recorded for the trajectory, not gated.

    The gates -- columnar >= 5x naive on the Knows sweep and on the C_G
    fixpoint at n=10, class rows >= 3x point-at-a-time for f and f' --
    are the acceptance criteria; under REPRO_BENCH_SMOKE=1 only the
    correctness assertions are enforced, never the timing ratios.
    """
    results = {}
    for n in KERNEL_NS:
        runs = kernel_system(n).runs
        index_s = _best_of(build_columnar_kernel, runs, repeat=5)

        system = build_columnar_kernel(runs)
        points = _sweep_points(system)
        total = _knows_sweep(system, points)
        group = system.processes
        phi = Crashed(system.processes[-1])
        checker = GroupChecker(ModelChecker(system))
        ck = checker.common_knowledge_points(group, phi)

        entry = {
            "runs": len(runs),
            "points": system.point_count,
            "classes": system.columnar_kernel().total_classes,
            "columnar_index_build_s": index_s,
        }
        if n <= NAIVE_MAX_N:  # the naive path is quadratic; skip it at n=20
            assert total == _naive_knows_sweep(system, points)
            naive_checker = ModelChecker(System(runs))
            assert ck == naive_common_knowledge_points(naive_checker, group, phi)
            # The columnar sides are sub-millisecond, so each round times a
            # batch (every C_G call recomputes the fixpoint).  The Knows
            # sweep is sliced per process: a whole naive sweep lasts ~1 s,
            # long enough for the host's speed to change under it alone.
            naive_sweep_s, sweep_s, knows_speedup = _timed_pair(
                [
                    (
                        lambda p=p: _naive_knows_sweep(system, points, [p]),
                        lambda p=p: _knows_sweep(system, points, [p]),
                    )
                    for p in system.processes
                ],
                repeat=5,
                batch_s=TIMING_BATCH_S,
            )
            naive_ck_s, ck_s, ck_speedup = _timed_pair(
                [
                    (
                        lambda: naive_common_knowledge_points(naive_checker, group, phi),
                        lambda: checker.common_knowledge_points(group, phi),
                    )
                ],
                repeat=25,
                batch_s=TIMING_BATCH_S,
            )
            entry.update(
                {
                    "columnar_knows_sweep_s": sweep_s,
                    "columnar_ck_fixpoint_s": ck_s,
                    "naive_knows_sweep_s": naive_sweep_s,
                    "naive_ck_fixpoint_s": naive_ck_s,
                    "knows_speedup": knows_speedup,
                    "ck_speedup": ck_speedup,
                }
            )
        else:
            entry["columnar_knows_sweep_s"] = _best_of(
                _knows_sweep, system, points, repeat=5
            )
            entry["columnar_ck_fixpoint_s"] = _best_of(
                checker.common_knowledge_points, group, phi, repeat=5
            )

        # valid() and temporal rows: recorded, not gated.  Each round
        # evaluates cold (a fresh checker; the kernel index stays warm).
        valid_phi = _validity_formula(system)
        temporal_phi = _temporal_formula(system)
        assert ModelChecker(system).valid(valid_phi)
        entry["columnar_valid_s"] = _best_of(
            lambda: ModelChecker(system).valid(valid_phi), repeat=5
        )
        entry["columnar_temporal_s"] = _best_of(
            lambda: ModelChecker(system).point_set(temporal_phi), repeat=5
        )
        if n <= NAIVE_MAX_N:
            start = time.perf_counter()
            naive_valid = _naive_valid(system, valid_phi)
            entry["naive_valid_s"] = time.perf_counter() - start
            assert naive_valid
            entry["valid_speedup"] = entry["naive_valid_s"] / entry["columnar_valid_s"]

        results[f"n={n}"] = entry

    results["transform"] = _transform_entry()

    baseline = {
        "benchmark": "epistemic-kernel",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "runs_per_n": "3*n",
            "duration": KERNEL_DURATION,
            "crash_prob": 0.4,
            "sweep_sample_runs": SWEEP_SAMPLE_RUNS,
            "timer": (
                "best of 5 perf_counter runs; naive/columnar pairs: interleaved "
                "rounds, each side a batch of calls lasting >= "
                f"{TIMING_BATCH_S * 1000:.0f} ms (Knows sweep: 5 rounds of "
                "per-process slices; C_G: 25 rounds), *_s the best per call, "
                "*_speedup the median per-round ratio; "
                f"naive/columnar rounds interleaved at n <= {NAIVE_MAX_N}; "
                "warm run objects; valid/temporal rows cold per round (naive "
                "valid: one run); transform: R^f and R^{f'} of the n=4 "
                f"PerfectOracle A5_2 ensemble, {TRANSFORM_ROUNDS} interleaved "
                "rounds against the point-at-a-time reference, warm kernel"
            ),
        },
        "results": results,
    }
    BENCH_KERNEL_JSON.write_text(json.dumps(baseline, indent=2) + "\n")

    if not SMOKE:
        at10 = results["n=10"]
        assert at10["knows_speedup"] >= 5.0, at10
        assert at10["ck_speedup"] >= 5.0, at10
        transform = results["transform"]
        assert transform["f_speedup"] >= 3.0, transform
        assert transform["f_prime_speedup"] >= 3.0, transform


# -- explorer family ----------------------------------------------------------
#
# Bounded exhaustive enumeration (repro.explore) over the lossy NUDC
# context: the state-space walk is the inner loop of every soundness
# check.  The reduced and unreduced run sets are asserted equal each
# round -- the benchmark re-proves the reduction-soundness property it
# measures.
#
# The committed BENCH_explore.json is gated two ways
# (tools/check_bench_regression.py): every search counter must match
# exactly (the work is deterministic, so a changed count is a changed
# search), and two CPU times, in units of a fixed calibration chunk that
# runs no repro code (benchmarks/e2e/speed.py), may grow by at most the
# tolerance: the DPOR walk at n=4, and the seeded sampler (``execute``)
# over the 24 specs of tests/test_sim_digest.py's pinned matrix, which
# the explorer shares its tick with.  Outside smoke mode the bench also
# asserts the effective coverage rate (unreduced states per DPOR CPU
# second) is at least 5x the retired fingerprint-POR explorer's 41,866.

EXPLORE_NS = (2, 3, 4)
EXPLORE_HORIZON = 8
EXPLORE_DEEP_N = 6  # completed n=6 horizon-8 enumeration (experiment X02)
EXPLORE_TIMED_N = 4
EXPLORE_ROUNDS = 31
SAMPLER_ROUNDS = 31
BENCH_EXPLORE_JSON = REPO_ROOT / "BENCH_explore.json"
PR3_STATES_PER_S = 41_866.0

#: ExploreStats fields recorded per walk, exactly as the gate compares them
SEARCH_COUNTERS = {
    "executions": "executions",
    "states": "states_expanded",
    "choice_points": "choice_points",
    "branches": "branches_scheduled",
    "deliveries_collapsed": "deliveries_collapsed",
    "drops_elided": "drops_elided",
    "runs": "runs_unique",
    "max_frontier": "max_frontier",
}


def explore_spec(n, **overrides):
    from repro.explore import ExploreSpec
    from repro.workloads.generators import single_action as one_action

    base = dict(
        processes=make_process_ids(n),
        protocol=uniform_protocol(NUDCProcess),
        horizon=EXPLORE_HORIZON,
        max_failures=1,
        crash_ticks=(1, 3, 5),
        workload=one_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )
    base.update(overrides)
    return ExploreSpec(**base)


def _run_key(run):
    """Value identity for a run, ignoring bookkeeping metadata."""
    return tuple(sorted((p, run.timeline(p)) for p in run.processes))


def _run_keys(report):
    return {_run_key(run) for run in report.runs}


def _counters(stats, prefix=""):
    return {
        prefix + name: getattr(stats, field)
        for name, field in SEARCH_COUNTERS.items()
    }


def _calibrated_cpu_s(thunk, rounds):
    """CPU time of ``thunk`` in calibration chunks of the e2e benchmark,
    the rounds interleaved (chunk, thunk, chunk, ...): the median over
    rounds of each thunk time over the geometric mean of the two chunks
    around it.  Also returns the median thunk and chunk seconds."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    try:
        from speed import chunk_seconds
    finally:
        sys.path.pop(0)
    times, chunks = [], [chunk_seconds()]
    for _ in range(rounds):
        start = time.thread_time()
        thunk()
        times.append(time.thread_time() - start)
        chunks.append(chunk_seconds())
    ratios = [t / math.sqrt(a * b) for t, a, b in zip(times, chunks, chunks[1:])]
    return statistics.median(ratios), statistics.median(times), statistics.median(chunks)


def _sampler_specs():
    """The specs of the simulator's pinned digest matrix."""
    sys.path.insert(0, str(REPO_ROOT))
    try:
        from tests.test_sim_digest import matrix
    finally:
        sys.path.pop(0)
    return [spec for _, spec in matrix()]


@pytest.mark.parametrize("n", EXPLORE_NS)
def test_bench_explore_exhaustive(benchmark, n):
    """Full enumeration of the lossy NUDC context under DPOR."""
    from repro.explore import explore

    spec = explore_spec(n)
    report = benchmark(explore, spec, cache=None)
    assert report.complete
    assert report.stats.runs_unique > 0
    assert report.stats.reduction == "dpor"


def test_bench_explore_reduction_off(benchmark):
    """The reduction-free baseline walk at n=3 (the soundness anchor)."""
    from repro.explore import explore

    spec = explore_spec(3, reduction="none")
    report = benchmark(explore, spec, cache=None)
    assert report.complete


def test_explore_baseline_json():
    """Record the search counters of both walks for n in {2, 3, 4} and
    of the deep n=6 enumeration, re-assert run-set equality between the
    DPOR and reduction-free walks, time DPOR at n=4 against the
    calibration chunk, and write ``BENCH_explore.json``.
    """
    from repro.explore import explore

    results = {}
    for n in EXPLORE_NS:
        spec = explore_spec(n)
        reduced = explore(spec, cache=None)
        baseline = explore(spec.with_(reduction="none"), cache=None)
        assert reduced.complete and baseline.complete
        assert _run_keys(reduced) == _run_keys(baseline)
        results[f"n={n}"] = {
            **_counters(reduced.stats),
            **_counters(baseline.stats, prefix="baseline_"),
        }

    timed = explore_spec(EXPLORE_TIMED_N)
    in_chunks, cpu_s, chunk_s = _calibrated_cpu_s(
        lambda: explore(timed, cache=None), EXPLORE_ROUNDS
    )
    at4 = results[f"n={EXPLORE_TIMED_N}"]
    at4.update(
        {
            "dpor_cpu_s": cpu_s,
            "calibration_s": chunk_s,
            "dpor_chunks": in_chunks,
            # effective coverage: unreduced space states per DPOR second
            "states_per_s": at4["baseline_states"] / cpu_s,
        }
    )

    specs = _sampler_specs()
    in_chunks, cpu_s, chunk_s = _calibrated_cpu_s(
        lambda: [execute(spec) for spec in specs], SAMPLER_ROUNDS
    )
    results["sampler"] = {
        "specs": len(specs),
        "sampler_cpu_s": cpu_s,
        "calibration_s": chunk_s,
        "sampler_chunks": in_chunks,
    }

    # The deep entry: a completed n=6, horizon-8 enumeration.  The
    # unreduced walk is infeasible here -- which is the point -- so the
    # entry records the DPOR walk's own counters only.
    deep_spec = explore_spec(EXPLORE_DEEP_N)
    start = time.perf_counter()
    deep = explore(deep_spec, cache=None)
    deep_s = time.perf_counter() - start
    assert deep.complete
    results[f"n={EXPLORE_DEEP_N}"] = {
        "executions": deep.stats.executions,
        "states": deep.stats.states_expanded,
        "runs": deep.stats.runs_unique,
        "explore_s": deep_s,
        "deep": True,
    }

    payload = {
        "benchmark": "explore-enumeration",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "protocol": "NUDC",
            "reduction": "dpor (baseline_*: none)",
            "horizon": EXPLORE_HORIZON,
            "max_failures": 1,
            "crash_ticks": [1, 3, 5],
            "channel": "fair-lossy, budget 1",
            "timer": (
                f"n={EXPLORE_TIMED_N} DPOR: {EXPLORE_ROUNDS} thread CPU times, each "
                "over the geometric mean of the calibration chunks "
                "(benchmarks/e2e/speed.py chunk_seconds) timed before and after "
                "it; dpor_chunks is their median, dpor_cpu_s and calibration_s "
                f"the medians of each; sampler: the same, {SAMPLER_ROUNDS} passes "
                "of execute over the tests/test_sim_digest.py matrix; "
                "n=6: one wall time"
            ),
        },
        "pr3_states_per_s": PR3_STATES_PER_S,
        "results": results,
    }
    BENCH_EXPLORE_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    if not SMOKE:
        assert at4["states_per_s"] >= 5.0 * PR3_STATES_PER_S, at4
        assert results[f"n={EXPLORE_DEEP_N}"]["runs"] > 0
