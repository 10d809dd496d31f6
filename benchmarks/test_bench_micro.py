"""Microbenchmarks for the substrates: executor throughput, knowledge
model checking, the indistinguishability index, and the f transformation
-- plus the epistemic-kernel family (index build, Knows sweep, CK
fixpoint, each against the naive reference) whose measurements are
written to ``BENCH_kernel.json`` at the repo root as the committed
performance baseline.

These are the performance-sensitive inner loops every experiment rides
on; they use pytest-benchmark's standard multi-round measurement.  Set
``REPRO_BENCH_SMOKE=1`` (as CI's bench-smoke job does) to skip the
timing-ratio assertions while keeping every correctness assertion.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.core.protocols import NUDCProcess, StrongFDUDCProcess
from repro.core.simulation_theorem import transform_run_f
from repro.detectors.standard import PerfectOracle
from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker
from repro.knowledge.paper_formulas import dc2_formula
from repro.knowledge.reference import (
    naive_common_knowledge_points,
    naive_known_crashed_set,
)
from repro.model.context import make_process_ids
from repro.model.run import Point
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from repro.sim.ensembles import a5t_ensemble
from repro.sim.executor import Executor
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
    return a5t_ensemble(
        PROCS,
        uniform_protocol(StrongFDUDCProcess),
        t=2,
        workload=lambda plan: post_crash_workload(PROCS, plan, actions_per_survivor=1),
        detector=PerfectOracle(),
        seeds=(0,),
    )


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


def _knows_sweep(system, points):
    """known_crashed_set for every (process, point) of the workload."""
    total = 0
    for p in system.processes:
        for pt in points:
            total += len(system.known_crashed_set(p, pt))
    return total


def _naive_knows_sweep(system, points):
    total = 0
    for p in system.processes:
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


def _best_of_pair(thunk_a, thunk_b, repeat=5):
    """Best-of timing for two thunks, rounds interleaved a,b,a,b,...

    Ratios of the two results feed regression gates; interleaving means
    an ambient load spike inflates both sides instead of silently
    skewing whichever one it happened to land on.
    """
    best_a = best_b = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        thunk_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        thunk_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_kernel_baseline_json():
    """Measure the kernel family (columnar vs naive), the arena transfer
    microbenchmark, and write ``BENCH_kernel.json``.

    The gates -- columnar >= 5x naive on the Knows sweep and on the C_G
    fixpoint at n=10, transfer header <= 10% of the pickled run batch --
    are the acceptance criteria; under REPRO_BENCH_SMOKE=1 only the
    correctness assertions are enforced, never the timing ratios.
    """
    import pickle

    from repro.columnar import encode_runs, receive_runs, ship_runs
    from repro.columnar.transfer import header_bytes

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
            naive_sweep_s, sweep_s = _best_of_pair(
                lambda: _naive_knows_sweep(system, points),
                lambda: _knows_sweep(system, points),
            )
            # The columnar C_G side is sub-millisecond: more rounds keep
            # its best-of stable enough for the 15% rule.
            naive_ck_s, ck_s = _best_of_pair(
                lambda: naive_common_knowledge_points(naive_checker, group, phi),
                lambda: checker.common_knowledge_points(group, phi),
                repeat=25,
            )
            entry.update(
                {
                    "columnar_knows_sweep_s": sweep_s,
                    "columnar_ck_fixpoint_s": ck_s,
                    "naive_knows_sweep_s": naive_sweep_s,
                    "naive_ck_fixpoint_s": naive_ck_s,
                    "knows_speedup": (
                        naive_sweep_s / sweep_s if sweep_s else float("inf")
                    ),
                    "ck_speedup": naive_ck_s / ck_s if ck_s else float("inf"),
                }
            )
        else:
            entry["columnar_knows_sweep_s"] = _best_of(
                _knows_sweep, system, points, repeat=5
            )
            entry["columnar_ck_fixpoint_s"] = _best_of(
                checker.common_knowledge_points, group, phi, repeat=5
            )

        results[f"n={n}"] = entry

    # -- arena transfer microbenchmark (the pool handoff path) ---------
    runs20 = kernel_system(KERNEL_NS[-1]).runs
    encode_s = _best_of(encode_runs, runs20)
    arena = encode_runs(runs20)
    pickled_bytes = len(pickle.dumps(runs20, protocol=pickle.HIGHEST_PROTOCOL))

    def ship_and_receive():
        received = receive_runs(ship_runs(runs20))
        assert received == runs20
        return received

    ship_receive_s = _best_of(ship_and_receive)
    shipped = ship_runs(runs20)
    used_shm = shipped.shm_name is not None
    hdr_bytes = header_bytes(shipped)
    receive_runs(shipped)  # release the block
    transfer = {
        "runs": len(runs20),
        "arena_buffer_bytes": arena.nbytes,
        "pickled_bytes": pickled_bytes,
        "header_bytes": hdr_bytes,
        "transfer_ratio": hdr_bytes / pickled_bytes,
        "encode_s": encode_s,
        "ship_receive_s": ship_receive_s,
        "shared_memory": used_shm,
    }

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
                "best of 5 perf_counter runs (C_G pairs: 25), naive/columnar "
                f"rounds interleaved at n <= {NAIVE_MAX_N}, warm run objects"
            ),
        },
        "results": results,
        "transfer": transfer,
    }
    BENCH_KERNEL_JSON.write_text(json.dumps(baseline, indent=2) + "\n")

    if not SMOKE:
        at10 = results["n=10"]
        assert at10["knows_speedup"] >= 5.0, at10
        assert at10["ck_speedup"] >= 5.0, at10
        assert transfer["transfer_ratio"] <= 0.10, transfer


# -- explorer family ----------------------------------------------------------
#
# Bounded exhaustive enumeration (repro.explore) over the lossy NUDC
# context: the state-space walk is the inner loop of every soundness
# check.  Throughput is tracked as *effective* states/second: the size
# of the unreduced state space divided by the DPOR walk's wall time.
# The reduced and unreduced run sets are asserted equal each round --
# the benchmark re-proves the reduction-soundness property it measures.
#
# The trajectory is recorded at horizon 8, the regime the explorer is
# meant for (ROADMAP: n=6-8 at horizon 8-10).  The PR 3 fingerprint-POR
# explorer committed 41,866 states/s at n=4; the DPOR gate below
# requires >= 5x that.

EXPLORE_NS = (2, 3, 4)
EXPLORE_HORIZON = 8
EXPLORE_DEEP_N = 6  # completed n=6 horizon-8 enumeration (experiment X02)
BENCH_EXPLORE_JSON = REPO_ROOT / "BENCH_explore.json"
PR3_STATES_PER_S = 41_866.0


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
    """Measure explorer throughput for n in {2, 3, 4} plus the deep
    n=6 enumeration, re-assert run-set equality between the DPOR and
    reduction-free walks, and write ``BENCH_explore.json``.

    ``states_per_s`` is the effective coverage rate: states of the
    *unreduced* space divided by the DPOR walk's wall time.  The two
    walks provably cover the same run set (asserted per n), so this is
    the apples-to-apples successor of the PR 3 metric.
    """
    from repro.explore import explore

    results = {}
    for n in EXPLORE_NS:
        spec = explore_spec(n)
        reduced = explore(spec, cache=None)
        reduced_s = _best_of(lambda s=spec: explore(s, cache=None))
        baseline_spec = spec.with_(reduction="none")
        baseline = explore(baseline_spec, cache=None)
        baseline_s = _best_of(
            lambda s=baseline_spec: explore(s, cache=None), repeat=1
        )

        assert reduced.complete and baseline.complete
        assert _run_keys(reduced) == _run_keys(baseline)

        space_states = baseline.stats.states_expanded
        results[f"n={n}"] = {
            "executions": reduced.stats.executions,
            "states": reduced.stats.states_expanded,
            "runs": reduced.stats.runs_unique,
            "drops_elided": reduced.stats.drops_elided,
            "deliveries_collapsed": reduced.stats.deliveries_collapsed,
            "explore_s": reduced_s,
            "space_states": space_states,
            "states_per_s": (
                space_states / reduced_s if reduced_s else float("inf")
            ),
            "baseline_executions": baseline.stats.executions,
            "baseline_explore_s": baseline_s,
            "baseline_states_per_s": (
                space_states / baseline_s if baseline_s else float("inf")
            ),
            "effective_speedup": (
                baseline_s / reduced_s if reduced_s else float("inf")
            ),
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
        "complete": deep.complete,
        "deep": True,
    }

    payload = {
        "benchmark": "explore-enumeration",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "protocol": "NUDC",
            "reduction": "dpor",
            "horizon": EXPLORE_HORIZON,
            "max_failures": 1,
            "crash_ticks": [1, 3, 5],
            "channel": "fair-lossy, budget 1",
            "timer": "best of 3 perf_counter runs (baseline walk: 1)",
            "states_per_s": "unreduced space states / DPOR wall time",
        },
        "pr3_states_per_s": PR3_STATES_PER_S,
        "results": results,
    }
    BENCH_EXPLORE_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    if not SMOKE:
        at4 = results["n=4"]
        assert at4["states_per_s"] >= 5.0 * PR3_STATES_PER_S, at4
        assert results[f"n={EXPLORE_DEEP_N}"]["runs"] > 0
