"""One rep of a batch workload, run in a fresh interpreter.

    python benchmarks/e2e/batch.py WORKLOAD --seed S --t0 T [--setup-only] [--trace] [--spans PATH]

``run.py`` starts one of these per rep, so the process-wide run cache
and the model checker's memo tables start empty every time.  ``--t0``
is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports and the fixture build.
The rep prints one ``E2E-RESULT {json}`` line: set-up time, task time
and one latency per operation, each as [unscaled, scaled to the
reference speed] (see speed.py), peak RSS, the correctness checks and,
with ``--trace``, the per-layer metrics and self-time table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

import speed
from tracer import Tracer, install, layer_metrics

RESULT_PREFIX = "E2E-RESULT "
#: Speed chunks timed right after set-up and right after the task.
SPEED_CHUNKS = 5

#: Table 1: 3 failure regimes x 2 problems x 2 channel semantics.
TABLE1_CELLS = 12

#: X02 at n=6: its run count and the sha256 of its sorted run set
#: (timelines and durations, see run_set_digest).
X02_RUNS = 8606
X02_DIGEST = "c5c7544bb3a004a04ce6678144aa0519ab0028a970a9daca8ec20939c46eba56"
X02_QUERIES = 400


class Ops:
    """Times each operation of a rep (in a traced rep, optionally as a span)
    and the host's speed between them."""

    def __init__(self, tracer: Tracer | None, meter: speed.Meter) -> None:
        self.tracer = tracer
        self.meter = meter

    @contextmanager
    def __call__(self, span: str | None = None) -> Iterator[None]:
        scope = self.tracer.span(span) if self.tracer and span else nullcontext()
        with self.meter.op(), scope:
            yield


class PaperPipeline:
    """All registered experiments plus Table 1, as ``python -m repro.harness`` runs them."""

    def __init__(self, seed: int) -> None:
        from repro.harness import registry

        self.registry = registry
        self.ids = registry.experiment_ids()  # imports every experiment
        self.results: list[Any] = []
        self.table: Any = None

    def run(self, ops: Ops) -> None:
        from repro.harness.results import render_result
        from repro.harness.table1 import build_table1, render_table1

        for exp_id in self.ids:
            with ops(f"harness.{exp_id}"):
                result = self.registry.run(exp_id)
                render_result(result)
            self.results.append(result)
        with ops("harness.table1"):
            self.table = build_table1()
            render_table1(self.table)

    def checks(self) -> Iterator[tuple[str, bool]]:
        yield "18 experiments registered", len(self.ids) == 18
        for result in self.results:
            yield f"{result.exp_id} passes", bool(result.passed)
        yield f"Table 1 has {TABLE1_CELLS} cells", len(self.table.cells) == TABLE1_CELLS
        yield "Table 1 matches the paper", bool(self.table.matches_paper)

    def counters(self) -> dict[str, float]:
        from repro.runtime.cache import default_run_cache

        stats = default_run_cache().stats()
        lookups = stats["hits"] + stats["misses"]
        return {"runtime.cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0}


class Prop35Valid:
    """Prop 3.5 and DC1-DC3 as validities over E11's A5_t ensemble (n=4).

    The ensemble is E11's (adversary seed 0); the seed orders the 21
    checks.  Ensembles of other adversary seeds differ by up to 20% in
    evaluation work, which would make the times depend on the seed.
    """

    def __init__(self, seed: int) -> None:
        import functools

        from repro.core.properties import actions_in
        from repro.core.protocols import StrongFDUDCProcess
        from repro.detectors.standard import PerfectOracle
        from repro.knowledge.paper_formulas import (
            dc1_formula,
            dc2_formula,
            dc3_formula,
            prop_3_5,
        )
        from repro.model.context import make_process_ids
        from repro.runtime import EnsembleSpec, run_ensemble
        from repro.sim.process import uniform_protocol
        from repro.workloads.generators import post_crash_workload

        procs = make_process_ids(4)
        spec = EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=3,
            workload=functools.partial(post_crash_workload, procs, actions_per_survivor=1),
            detector=PerfectOracle(),
            seeds=(0,),
        )
        self.system = run_ensemble(spec, backend="serial", cache=None).system()
        self.actions = sorted({a for run in self.system for a in actions_in(run)})
        self.formulas = [
            (f"Prop 3.5 at {p} for {action}", prop_3_5(procs, p, action))
            for action in self.actions[:3]
            for p in procs
        ] + [
            (f"{name} for {action}", formula)
            for action in self.actions[:3]
            for name, formula in (
                ("DC1", dc1_formula(action)),
                ("DC2", dc2_formula(procs, action)),
                ("DC3", dc3_formula(procs, action)),
            )
        ]
        random.Random(seed).shuffle(self.formulas)
        self.verdicts: list[bool] = []

    def run(self, ops: Ops) -> None:
        from repro.knowledge import ModelChecker

        checker = ModelChecker(self.system)
        for _, formula in self.formulas:
            with ops():
                self.verdicts.append(checker.valid(formula))

    def checks(self) -> Iterator[tuple[str, bool]]:
        yield "15 runs", len(self.system) == 15
        yield "at least 3 actions", len(self.actions) >= 3
        for (label, _), verdict in zip(self.formulas, self.verdicts, strict=True):
            yield f"{label} valid", verdict

    def counters(self) -> dict[str, float]:
        return {}


def run_set_digest(runs: Any) -> str:
    """sha256 of the sorted runs, each as its JSON timelines and duration."""
    from repro.model.serialize import run_to_dict

    rows = []
    for run in runs:
        data = run_to_dict(run)
        rows.append(json.dumps([data["duration"], data["timelines"]], sort_keys=True))
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()


class ExploreX02:
    """X02 (n=6, horizon 8, lossy, initiator p1) explored, indexed, then
    seeded group queries.  The seed picks only the queries, so every
    seed explores the same run set (with p3-p6 as initiator X02 has
    8,250 runs instead of 8,606, and the work would depend on the seed).
    """

    def __init__(self, seed: int) -> None:
        from repro.core.protocols import NUDCProcess
        from repro.explore import ExploreSpec
        from repro.model.context import make_process_ids
        from repro.sim.process import uniform_protocol
        from repro.workloads.generators import single_action

        self.procs = make_process_ids(6)
        self.spec = ExploreSpec(
            processes=self.procs,
            protocol=uniform_protocol(NUDCProcess),
            horizon=8,
            max_failures=1,
            crash_ticks=(1, 3, 5),
            workload=single_action("p1", tick=1),
            lossy=True,
            max_consecutive_drops=1,
        )
        rng = random.Random(seed)
        self.plan = [
            (
                ("ck", "e", "known_crashed")[i % 3],
                tuple(sorted(rng.sample(self.procs, rng.randint(2, len(self.procs))))),
                rng.choice(self.procs),
                rng.random(),
                rng.random(),
            )
            for i in range(X02_QUERIES)
        ]
        self.report: Any = None
        self.answers: list[tuple[Any, Any]] = []

    def _point(self, system: Any, run_frac: float, time_frac: float) -> Any:
        from repro.model.run import Point

        run = system.runs[int(run_frac * len(system.runs))]
        return Point(run, int(time_frac * (run.duration + 1)))

    def run(self, ops: Ops) -> None:
        from repro.explore import UniformityMonitor, explore
        from repro.knowledge import Crashed, GroupChecker, ModelChecker

        with ops():
            self.report = explore(self.spec, monitors=[UniformityMonitor()], cache=None)
        with ops():
            system = self.report.system()
            system.columnar_kernel()
        group = GroupChecker(ModelChecker(system))
        for kind, members, target, run_frac, time_frac in self.plan:
            point = self._point(system, run_frac, time_frac)
            with ops():
                if kind == "ck":
                    answer = group.common_knowledge(members, Crashed(target), point)
                elif kind == "e":
                    answer = group.max_e_depth(members, Crashed(target), point, cap=3)
                else:
                    answer = system.known_crashed_set(target, point)
            self.answers.append((point, answer))

    def checks(self) -> Iterator[tuple[str, bool]]:
        from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker

        report = self.report
        yield f"{X02_RUNS} runs", len(report.runs) == X02_RUNS
        yield "exploration complete", bool(report.complete)
        yield "exactly 2 udc violations", len(report.violations) == 2
        yield "run-set digest", run_set_digest(report.runs) == X02_DIGEST
        system = report.system()
        checker = ModelChecker(system)
        group = GroupChecker(checker)
        for (kind, members, target, _, _), (point, answer) in zip(
            self.plan, self.answers, strict=True
        ):
            crashed = point.history(target).crashed
            if kind == "ck":
                # C_G is veridical and implies every E^k.
                ok = not answer or (
                    crashed and group.max_e_depth(members, Crashed(target), point, cap=3) == 3
                )
            elif kind == "e":
                ok = 0 <= answer <= 3 and (answer == 0 or crashed)
            else:
                ok = answer == {
                    q for q in self.procs if checker.holds(Knows(target, Crashed(q)), point)
                }
            yield f"{kind} query at {point.time}", ok

    def counters(self) -> dict[str, float]:
        stats = self.report.stats
        return {
            "explore.executions": stats.executions,
            "explore.states": stats.states_expanded,
            "explore.runs": stats.runs_unique,
            "explore.runs_per_execution": (
                stats.runs_unique / stats.executions if stats.executions else 0.0
            ),
        }


WORKLOADS = {
    "paper-pipeline": PaperPipeline,
    "prop35-valid": Prop35Valid,
    "explore-x02": ExploreX02,
}


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    warnings.filterwarnings("ignore", message="knowledge query over a sampled")
    tracer = install(Tracer()) if args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    meter = speed.Meter(lambda: tracer.span("bench.speed")) if tracer else speed.Meter()
    for _ in range(SPEED_CHUNKS):
        meter.tick()
    setup_factor = meter.factor()
    result: dict[str, Any] = {"setup_s": [setup_s, setup_s / setup_factor]}
    if args.setup_only:
        print(RESULT_PREFIX + json.dumps(result))
        return 0

    if tracer is not None:
        tracer.reset()  # set-up spans are not part of the rep
    root = tracer.span(f"bench.{args.workload}") if tracer else nullcontext()
    meter.chunk_s = 0.0
    meter.start()
    start = time.perf_counter()
    with root:
        workload.run(Ops(tracer, meter))
    task_s = time.perf_counter() - start - meter.chunk_s
    meter.stop()
    for _ in range(SPEED_CHUNKS):
        meter.tick()
    ops_scaled = meter.scaled()
    # Time outside the operations is scaled by the rep's overall factor.
    outside = (task_s - sum(meter.latencies)) / meter.factor()

    checks = list(workload.checks())
    result.update(
        task_s=[task_s, sum(ops_scaled) + outside],
        ops_s=[meter.latencies, ops_scaled],
        speed_factor=meter.factor(),
        peak_rss_mb=peak_rss_mb(),
        failed_checks=[label for label, ok in checks if not ok],
        checks=len(checks),
    )
    if tracer is not None:
        layers, wall = tracer.layer_table()
        metrics = layer_metrics(tracer)
        metrics.update(workload.counters())
        for name, (_, total, _) in tracer.by_name().items():
            if name.startswith("harness."):
                metrics[f"{name}_s"] = total
        result.update(layers=layers, wall_s=wall, layer_metrics=metrics)
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    print(RESULT_PREFIX + json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
