"""Latency/throughput benchmark of the query service (BENCH_serve.json).

The server runs on a background thread with its own event loop; worker
threads each hold one connection and send query batches back-to-back,
recording wall-clock latency per request.  Reported per concurrency
level: p50/p95 latency in milliseconds and aggregate queries-per-second.

Socket round-trips are machine-bound, so the payload also records a
*calibration* figure: the same query mix answered in-process against a
:class:`~repro.serve.state.SystemSession` (no sockets, no event loop).
``tools/check_bench_regression.py`` rescales the committed numbers by
the calibration ratio before applying its tolerance, so a slower CI
runner does not trip the gate but a serve-layer regression does.

The payload also records a ``journal`` section: single-client queries
and ingests against two servers, journaling off and on (fsync enabled),
taking turns request by request, with the ratios of the two modes'
medians.  The query path never touches the journal, so the
gate's ``serve-journal`` mode pins ``query_overhead`` at 15% -- a
breach means journal work leaked onto the read path.
"""

from __future__ import annotations

import platform
import random
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from repro.knowledge.formulas import Crashed, Diamond
from repro.model.run import Run
from repro.model.synthetic import synthetic_run, synthetic_system
from repro.serve.client import (
    ServeClient,
    ck_query,
    e_query,
    holds_query,
    knows_query,
)
from repro.serve.journal import ServeJournal
from repro.serve.server import EpistemicServer, start_server_thread
from repro.serve.state import ServeState, SystemSession


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _query_mix(processes: Sequence[str], runs: int) -> list[dict[str, Any]]:
    """The fixed batch every bench request sends (8 mixed queries)."""
    p0, p1 = processes[0], processes[1]
    group = list(processes[:3]) if len(processes) >= 3 else list(processes)
    crashed = Crashed(p1)
    last = runs - 1
    return [
        knows_query(p0, crashed, 0, 2),
        knows_query(p1, Crashed(p0), last, 4),
        holds_query(Diamond(crashed), 0, 0),
        e_query(group, 1, crashed, 0, 3),
        e_query(group, 2, crashed, last, 3),
        ck_query(group, crashed, 0, 2),
        {"kind": "known_crashed", "process": p0, "run": 0, "time": 5},
        {"kind": "max_e_depth", "group": group, "formula": {"op": "crashed", "process": p1}, "run": 0, "time": 2, "cap": 3},
    ]


def _drive_clients(
    host: str,
    port: int,
    system: str,
    mix: list[dict[str, Any]],
    *,
    clients: int,
    requests_per_client: int,
) -> dict[str, Any]:
    """One concurrency level: per-request latencies + aggregate qps."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    start_barrier = threading.Barrier(clients + 1)

    def _worker(slot: int) -> None:
        try:
            with ServeClient.connect(host, port) as client:
                client.query(system, mix)  # connection + cache warmup
                start_barrier.wait()
                bucket = latencies[slot]
                for _ in range(requests_per_client):
                    t0 = time.perf_counter()
                    results = client.query(system, mix)
                    bucket.append(time.perf_counter() - t0)
                    assert all(r["ok"] for r in results)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            try:
                start_barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    workers = [
        threading.Thread(target=_worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for w in workers:
        w.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    flat = sorted(lat for bucket in latencies for lat in bucket)
    total_requests = clients * requests_per_client
    return {
        "clients": clients,
        "requests": total_requests,
        "queries_per_request": len(mix),
        "p50_ms": _percentile(flat, 0.50) * 1e3,
        "p95_ms": _percentile(flat, 0.95) * 1e3,
        "qps": (total_requests * len(mix)) / elapsed if elapsed > 0 else 0.0,
    }


def _direct_qps(
    session: SystemSession, mix: list[dict[str, Any]], rounds: int
) -> float:
    """Calibration: the same mix answered in-process, no sockets."""
    for query in mix:  # warmup
        session.run_query(query)
    t0 = time.perf_counter()
    for _ in range(rounds):
        for query in mix:
            result = session.run_query(query)
            assert result["ok"]
    elapsed = time.perf_counter() - t0
    return (rounds * len(mix)) / elapsed if elapsed > 0 else 0.0


def _journal_section(
    runs: Sequence[Run],
    processes: Sequence[str],
    mix: list[dict[str, Any]],
    *,
    requests: int,
    ingest_batches: int,
    ingest_batch_runs: int,
    duration: int,
) -> dict[str, Any]:
    """The journaling-overhead figures (the ``serve-journal`` gate input).

    The query path never touches the journal -- the ratio pins that
    invariant (a regression here means journal work leaked onto the
    read path).  Ingest *does* pay for durability (one fsynced segment
    per batch), so its overhead is recorded for audit but priced in.

    One server per mode (off, and on with fsync) runs in this process,
    and the two take turns, one request (then one ingest batch) at a
    time: a machine that slows for a few milliseconds slows both modes
    alike, so the ratio of their medians is machine-normalized.  A
    fresh server and one pass per mode could not resolve 15%: on an
    unchanged read path that ratio swung past it from run to run.
    """
    rng = random.Random(4321)
    batches = [
        [synthetic_run(processes, rng, duration=duration) for _ in range(ingest_batch_runs)]
        for _ in range(ingest_batches)
    ]
    modes = ("off", "on")
    queries: dict[str, list[float]] = {mode: [] for mode in modes}
    ingests: dict[str, list[float]] = {mode: [] for mode in modes}
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journals = {"off": None, "on": ServeJournal(Path(tmp))}
        servers = {
            mode: start_server_thread(EpistemicServer(ServeState(journal=journals[mode])))
            for mode in modes
        }
        try:
            clients = {
                mode: ServeClient.connect(host, port)
                for mode, (_thread, host, port) in servers.items()
            }
            for client in clients.values():
                client.create("bench", runs, complete=False)
                client.query("bench", mix)  # cache warmup
            for _ in range(requests):
                for mode in modes:
                    t0 = time.perf_counter()
                    results = clients[mode].query("bench", mix)
                    queries[mode].append(time.perf_counter() - t0)
                    assert all(r["ok"] for r in results)
            for batch in batches:
                for mode in modes:
                    t0 = time.perf_counter()
                    clients[mode].ingest("bench", batch)
                    ingests[mode].append(time.perf_counter() - t0)
            for client in clients.values():
                client.shutdown()
                client.close()
        finally:
            for thread, _host, _port in servers.values():
                thread.join(timeout=30)
    figures = {}
    for mode in modes:
        query_sorted, ingest_sorted = sorted(queries[mode]), sorted(ingests[mode])
        figures[mode] = {
            "query_p50_ms": _percentile(query_sorted, 0.50) * 1e3,
            "query_p95_ms": _percentile(query_sorted, 0.95) * 1e3,
            "ingest_p50_ms": _percentile(ingest_sorted, 0.50) * 1e3,
        }
    off, on = figures["off"], figures["on"]
    return {
        "fsync": True,
        "requests": requests,
        "ingest_batches": ingest_batches,
        "off": off,
        "on": on,
        "query_overhead": (
            on["query_p50_ms"] / off["query_p50_ms"] if off["query_p50_ms"] else 0.0
        ),
        "ingest_overhead": (
            on["ingest_p50_ms"] / off["ingest_p50_ms"]
            if off["ingest_p50_ms"]
            else 0.0
        ),
    }


def run_serve_bench(
    *,
    n: int = 4,
    base_runs: int = 48,
    duration: int = 6,
    concurrency: Sequence[int] = (1, 8),
    requests_per_client: int = 60,
    ingest_batches: int = 8,
    ingest_batch_runs: int = 4,
    calibration_rounds: int = 120,
    smoke: bool = False,
) -> dict[str, Any]:
    """Run the full serve benchmark; returns the BENCH_serve.json payload."""
    if smoke:
        # Shrink repetition counts only: the system size must stay the
        # default so the calibration figure is comparable against a
        # committed full-mode baseline (the regression gate divides one
        # by the other to estimate machine speed).  Requests stay high
        # enough that p95 is a percentile, not a max over a handful of
        # cache-cold samples.
        # Calibration is not shrunk: it is ~50 ms of work, and the gate
        # divides by it -- a noisy scale tightens every ceiling.
        requests_per_client = min(requests_per_client, 30)
        ingest_batches = min(ingest_batches, 4)

    base = synthetic_system(n, base_runs, seed=7, duration=duration)
    runs = base.runs
    processes = base.processes
    mix = _query_mix(list(processes), len(runs))

    thread, host, port = start_server_thread(EpistemicServer(ServeState()))
    results: dict[str, Any] = {}
    try:
        with ServeClient.connect(host, port) as admin:
            admin.create("bench", runs, complete=False)
        for clients in concurrency:
            results[f"c={clients}"] = _drive_clients(
                host,
                port,
                "bench",
                mix,
                clients=clients,
                requests_per_client=requests_per_client,
            )

        # Online ingestion latency: each batch refines the live index.
        rng = random.Random(1234)
        ingest_latencies: list[float] = []
        with ServeClient.connect(host, port) as admin:
            for _ in range(ingest_batches):
                batch = [
                    synthetic_run(processes, rng, duration=duration)
                    for _ in range(ingest_batch_runs)
                ]
                t0 = time.perf_counter()
                admin.ingest("bench", batch)
                ingest_latencies.append(time.perf_counter() - t0)
            admin.shutdown()
    finally:
        thread.join(timeout=30)
    ingest_sorted = sorted(ingest_latencies)

    from repro.model.system import System

    calibration_session = SystemSession("calibration", System(runs))
    direct = _direct_qps(calibration_session, mix, calibration_rounds)

    journal = _journal_section(
        runs,
        processes,
        mix,
        # The gate resolves 15% on a ratio: more samples than one level.
        requests=5 * requests_per_client,
        ingest_batches=ingest_batches,
        ingest_batch_runs=ingest_batch_runs,
        duration=duration,
    )

    return {
        "benchmark": "serve-latency",
        "created": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "config": {
            "n": n,
            "base_runs": base_runs,
            "duration": duration,
            "requests_per_client": requests_per_client,
            "queries_per_request": len(mix),
            "ingest_batches": ingest_batches,
            "ingest_batch_runs": ingest_batch_runs,
            "smoke": smoke,
            "timer": "perf_counter per request, warm connection, barrier start",
        },
        "results": results,
        "ingest": {
            "batches": ingest_batches,
            "runs_per_batch": ingest_batch_runs,
            "p50_ms": _percentile(ingest_sorted, 0.50) * 1e3,
            "p95_ms": _percentile(ingest_sorted, 0.95) * 1e3,
        },
        "journal": journal,
        "calibration": {
            "direct_qps": direct,
            "rounds": calibration_rounds,
        },
    }
