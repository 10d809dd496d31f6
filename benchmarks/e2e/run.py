"""End-to-end benchmark of the paper pipeline, the explorer and the query service.

    python benchmarks/e2e/run.py --seed S [--workload W] [--seconds N] [--trace 0|1] [--out DIR]
    python benchmarks/e2e/run.py --compare A B

A run builds the program (byte-compiles ``src/repro``), times one
workload (or all five) through the public APIs, checks every output,
prints every metric by name and unit, and ends with one JSON line per
workload: ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
with times scaled to a reference host speed (speed.py); ``--trace 1``
reports its per-layer metrics, from spans recorded around the program's
public entry points, and prints a self-time table per layer.  The exit
status is 0 only if every check passed.

``--out DIR`` also writes the run's full result to
``DIR/<workload>-<seed>.json`` (and, traced, the spans to
``DIR/spans-<workload>.json``).  ``--compare A B`` reads two such
directories and gives, per workload and metric, each side's median and
quartiles, the share of runs B wins, and a verdict against the bounds in
``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from batch import RESULT_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_build" / "e2e"
BATCH_WORKLOADS = ("paper-pipeline", "prop35-valid", "explore-x02")
#: Set-up-only interpreters started per untraced batch run, besides the reps.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def child_env() -> dict[str, str]:
    """Environment of every interpreter the benchmark starts.

    ``REPRO_*`` settings of the caller are dropped so the serial
    backend and default kernel are measured; the hash seed is fixed so
    set and dict orders, and with them timings, repeat across runs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", REPRO_BACKEND="serial")
    return env


def build() -> None:
    """Byte-compile the program, so no run pays for compiling it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


def machine() -> dict[str, Any]:
    """Where the numbers come from: cores, Python, numpy and source identity."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = "unknown"
    # Only this checkout's own repository: git would otherwise search the
    # directories above it.
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# -- batch workloads ----------------------------------------------------------


def spawn_rep(workload: str, seed: int, *, setup_only: bool = False, trace: bool = False,
              spans: Path | None = None) -> dict[str, Any]:
    """One rep of a batch workload in a fresh interpreter; its result dict."""
    cmd = [sys.executable, str(HERE / "batch.py"), workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd + ["--t0", repr(time.monotonic())],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} rep failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1][len(RESULT_PREFIX):])


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              out: Path | None) -> dict[str, Any]:
    """Reps until ``seconds`` have passed (at least one).

    Untraced, set-up is also sampled by SETUP_PROBES set-up-only
    interpreters, which warm the file cache before the first rep.
    Traced, each rep is an (untraced, traced) pair, so the tracing
    overhead is a ratio of neighbours.
    """
    probes = [] if trace else [
        spawn_rep(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)
    ]
    reps: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(spawn_rep(workload, seed))
        if trace:
            spans = out / f"spans-{workload}.json" if out is not None and not traced else None
            traced.append(spawn_rep(workload, seed, trace=True, spans=spans))
    samples = Samples()
    for child in probes + reps:
        samples.add("setup_s", [child["setup_s"][0]], [child["setup_s"][1]])
    for rep in reps:
        samples.add("task_s", [rep["task_s"][0]], [rep["task_s"][1]])
        samples.add("peak_rss_mb", [rep["peak_rss_mb"]], [rep["peak_rss_mb"]])
        samples.factors.append(rep["speed_factor"])
    # Every rep runs the same operations in the same order.
    samples.add("ops_s", *(
        [statistics.median(op) for op in zip(*(rep["ops_s"][i] for rep in reps), strict=True)]
        for i in (0, 1)
    ))
    result: dict[str, Any] = {
        "samples": samples,
        "attempted": sum(rep["checks"] for rep in reps + traced),
        "failed_checks": [label for rep in reps + traced for label in rep["failed_checks"]],
    }
    if trace:
        names = sorted({name for rep in traced for name in rep["layer_metrics"]})
        metrics = {
            name: statistics.median(rep["layer_metrics"].get(name, 0.0) for rep in traced)
            for name in names
        }
        metrics["bench.tracing_overhead"] = statistics.median(
            t["task_s"][1] / u["task_s"][1] for u, t in zip(reps, traced)
        )
        result.update(layer_metrics=metrics, layers=traced[0]["layers"],
                      wall_s=traced[0]["wall_s"])
    return result


def run_serve_workload(workload: str, seed: int, seconds: float, trace: bool,
                       out: Path | None) -> dict[str, Any]:
    """A serve workload, driven from this process."""
    # This process imports repro for the client and the in-process
    # oracle, so it runs under the same settings as the server.
    env = child_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, env["PYTHONPATH"])
    import serve

    SCRATCH.mkdir(parents=True, exist_ok=True)
    raw = serve.run_serve(workload, seed, seconds, trace, env, SCRATCH)
    samples = Samples()
    for key in ("setup_s", "task_s", "ops_s"):
        samples.add(key, *raw[key])
    samples.add("peak_rss_mb", raw["peak_rss_mb"], raw["peak_rss_mb"])
    samples.factors.append(raw["speed_factor"])
    result: dict[str, Any] = {
        "samples": samples,
        "attempted": raw["attempted"],
        "failed_checks": raw["failed_checks"],
    }
    if trace:
        metrics = raw["layer_metrics"]
        ingest, late = raw.get("ingest_ms", []), raw.get("ingest_late_ms", [])
        metrics.update({
            "serve.ingest.p50_ms": percentile(ingest, 0.50) if ingest else 0.0,
            "serve.ingest.p95_ms": percentile(ingest, 0.95) if ingest else 0.0,
            "loadgen.ingest_late_p95_ms": percentile(late, 0.95) if late else 0.0,
            "serve.server.shed": raw["server"]["shed"],
            "serve.server.deadline_exceeded": raw["server"]["deadline_exceeded"],
        })
        result.update(layer_metrics=metrics, layers=raw["layers"], wall_s=raw["wall_s"])
        if out is not None:
            (out / f"spans-{workload}.json").write_text(json.dumps(raw["spans"]), encoding="utf-8")
    return result


# -- metrics ------------------------------------------------------------------


class Samples:
    """A run's samples, unscaled and scaled to the reference speed (speed.py)."""

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.factors: list[float] = []

    def add(self, key: str, raw: list[float], scaled: list[float]) -> None:
        self.raw.setdefault(key, []).extend(raw)
        self.scaled.setdefault(key, []).extend(scaled)


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    """The end-to-end metrics: medians over the run's samples, and the
    median and 90th percentile over its distinct operations."""
    ops_ms = [s * 1e3 for s in samples["ops_s"]]
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "task_s": statistics.median(samples["task_s"]),
        "op_p50_ms": statistics.median(ops_ms),
        "op_p90_ms": percentile(ops_ms, 0.90),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


def run_workload(spec: dict[str, Any], workload: str, seed: int, seconds: float,
                 trace: bool, out: Path | None) -> dict[str, Any]:
    """One run of one workload; prints its report and returns the full result."""
    runner = run_batch if workload in BATCH_WORKLOADS else run_serve_workload
    raw = runner(workload, seed, seconds, trace, out)
    samples: Samples = raw["samples"]
    unscaled = end_to_end(samples.raw)
    if trace:
        declared = spec["per_layer"]
        values = {m["name"]: float(raw["layer_metrics"].get(m["name"], 0.0)) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = end_to_end(samples.scaled)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = raw["failed_checks"]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failed,
        "attempted": raw["attempted"],
        "failed": len(failed),
        "failed_checks": failed[:20],
        "metrics": metrics,
        "unscaled": unscaled,
        "speed_factor": statistics.median(samples.factors),
        "counts": {key: len(values_) for key, values_ in samples.raw.items()},
    }
    print(f"{workload} (seed {seed}): {len(samples.raw['task_s'])} task samples, "
          f"{len(samples.raw['ops_s'])} operations, {raw['attempted']} checks, "
          f"{len(failed)} failed; host speed factor {result['speed_factor']:.3f}")
    for label in failed[:20]:
        print(f"  FAILED: {label}")
    for name, entry in metrics.items():
        note = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled and not trace else ""
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}{note}")
    if trace:
        from tracer import render_layer_table

        print(render_layer_table(raw["layers"], raw["wall_s"]))
        result.update(layers=raw["layers"], wall_s=raw["wall_s"])
    return result


# -- compare ------------------------------------------------------------------


def load_set(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Result files of one set, by workload."""
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.startswith("spans-"):
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def verdict(a: list[float], b: list[float], better: str, bound: float | None,
            ) -> tuple[float, str]:
    """Win share of B over A and the verdict for one metric on one workload.

    Runs pair by position (both sets sorted by seed).  A spread wider
    than the bound is "unresolved" unless every B run beats every A run.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    share = wins / min(len(a), len(b))
    if bound is None:
        return share, "-"
    ma, mb = statistics.median(a), statistics.median(b)
    spread = max(iqr(a) / ma if ma else 0.0, iqr(b) / mb if mb else 0.0)
    every_b_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
    if spread > bound and not every_b_better:
        return share, "unresolved"
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    if worse_by > bound:
        return share, "regressed"
    if share >= 0.9 and abs(mb - ma) > iqr(a):
        return share, "improved"
    return share, "unchanged"


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(spec: dict[str, Any], a_dir: Path, b_dir: Path) -> int:
    """Print the comparison of two result sets; 1 if an end-to-end metric
    regressed or is unresolved on any workload."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a_set, b_set = load_set(a_dir), load_set(b_dir)
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = sorted(a_set.get(workload, []), key=lambda r: r["seed"])
        b_runs = sorted(b_set.get(workload, []), key=lambda r: r["seed"])
        if not a_runs or not b_runs:
            continue
        print(f"{workload}: A {len(a_runs)} runs, B {len(b_runs)} runs")
        print(f"  {'metric':<34}{'A median [q1, q3]':>32}{'B median [q1, q3]':>32}"
              f"{'B wins':>8}  verdict")
        names = [n for n in declared if n in a_runs[0]["metrics"] and n in b_runs[0]["metrics"]]
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            share, word = verdict(a, b, declared[name]["better"], bounds.get(name))
            if word in ("regressed", "unresolved"):
                bad += 1
            print(f"  {name:<34}{describe(a):>32}{describe(b):>32}{share:>8.0%}  {word}")
    return 1 if bad else 0


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


# -- main ---------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write results (and spans) here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    try:
        spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
        if args.compare:
            return compare(spec, *args.compare)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        info = machine()
        print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        results = []
        for workload in [args.workload] if args.workload else names:
            result = run_workload(spec, workload, args.seed, seconds, bool(args.trace), args.out)
            result["machine"] = info
            results.append(result)
            if args.out is not None:
                path = args.out / f"{workload}-{args.seed}.json"
                path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                        "metrics")}))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
