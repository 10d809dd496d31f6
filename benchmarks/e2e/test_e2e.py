"""Tests of the end-to-end benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

The smoke tests run every workload at a tiny duration; the whole file
takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import speed  # noqa: E402
from tracer import Tracer, UNATTRIBUTED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, code: str | None = None) -> subprocess.CompletedProcess[str]:
    """``run.py`` with ``args`` in a fresh interpreter (or ``code`` before it)."""
    if code is None:
        cmd = [sys.executable, str(HERE / "run.py"), *args]
    else:
        cmd = [sys.executable, "-c", code, *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_every_workload_prints_the_declared_metrics(trace: str, section: str) -> None:
    proc = bench("--seed", "0", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = json_lines(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        if trace == "0":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == results[-1]


def test_planted_wrong_answer_fails_the_run() -> None:
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run, serve\n"
        "real = serve.answers\n"
        "def planted(runs, pool):\n"
        "    expected = real(runs, pool)\n"
        "    expected[0][0] = dict(expected[0][0], result='planted')\n"
        "    return expected\n"
        "serve.answers = planted\n"
        "raise SystemExit(run.main(sys.argv[1:]))\n"
    )
    proc = bench("--workload", "serve-read", "--seconds", "0.2", code=code)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    [result] = json_lines(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_missing_program_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "prop35-valid", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert not json_lines(proc.stdout)


def test_self_times_of_a_nested_span_tree_add_up_to_the_root() -> None:
    tracer = Tracer()
    tracer.spans.extend(  # in closing order, as recorded
        [
            (2, "columnar.build_kernel", 2.0, 3.0, 1, None),
            (1, "knowledge.evaluate", 1.0, 4.0, 0, None),
            (3, "knowledge.fixpoint", 5.0, 9.0, 0, 7),
            (0, "bench.work", 0.0, 10.0, -1, None),
        ]
    )
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    layers, wall = tracer.layer_table()
    assert layers == {UNATTRIBUTED: 3.0, "knowledge": 6.0, "columnar": 1.0}
    assert wall == 10.0 and sum(layers.values()) == wall
    assert tracer.by_name()["knowledge.evaluate"] == (1, 3.0, 2.0)
    assert tracer.dump()[3] == ["knowledge.fixpoint", 5.0, 9.0, 0, 7]


def test_wrapped_calls_open_spans_only_at_layer_boundaries() -> None:
    tracer = Tracer()

    def leaf() -> int:
        time.sleep(0.001)
        return 1

    traced_leaf = tracer.wrap("columnar.leaf", leaf)

    def same_layer(depth: int) -> int:
        return traced_leaf() if depth == 0 else traced_same(depth - 1)

    traced_same = tracer.wrap("knowledge.evaluate", same_layer)
    with tracer.span("bench.root"):
        assert traced_same(3) == 1
    assert [name for _, name, *_ in tracer.records()] == [
        "bench.root",
        "knowledge.evaluate",
        "columnar.leaf",
    ]
    layers, wall = tracer.layer_table()
    assert abs(sum(layers.values()) - wall) < 1e-9
    assert layers["columnar"] >= 0.001


def test_speed_chunks_are_taken_out_of_the_operation_they_interrupt() -> None:
    meter = speed.Meter()
    start = time.perf_counter()
    with meter.op():
        time.sleep(0.02)
        meter.tick()
    wall = time.perf_counter() - start
    [latency] = meter.latencies
    assert meter.chunk_s > 0 and abs(wall - meter.chunk_s - latency) < 1e-3
    [(_, chunk)] = meter.chunks
    assert meter.scaled() == [latency / (chunk / speed.REFERENCE_CHUNK_S)]


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.2, 9.9, 10.1], [10.1, 9.8, 10.2, 10.0], "lower", "unchanged"),
        ([10, 10.2, 9.9, 10.1], [13.0, 13.1, 12.9, 13.2], "lower", "regressed"),
        ([10, 10.2, 9.9, 10.1], [8.0, 8.1, 7.9, 8.2], "lower", "improved"),
        ([10, 14, 7, 12], [10, 11, 9, 13], "lower", "unresolved"),
        ([10, 14, 7, 12], [3, 3.1, 2.9, 3.2], "lower", "improved"),
        ([10, 10.2, 9.9, 10.1], [13.0, 13.1, 12.9, 13.2], "higher", "improved"),
    ],
)
def test_compare_verdicts(a: list[float], b: list[float], better: str, expected: str) -> None:
    import run

    assert run.verdict(a, b, better, 0.1)[1] == expected


def test_a_second_in_process_pipeline_rep_would_hit_the_run_cache() -> None:
    """Why every batch rep runs in a fresh interpreter."""
    from repro.harness import registry
    from repro.runtime.cache import default_run_cache

    registry.run("E01")
    hits = default_run_cache().stats()["hits"]
    registry.run("E01")
    assert default_run_cache().stats()["hits"] > hits
