"""The serve workloads: ``python -m repro.harness serve`` driven over TCP.

The server runs as its own process (``--port 0``; the bound port is
read from its ``listening on`` line), so it does not share an
interpreter lock with the load generator.  The load generator is this
process: one closed-loop connection that cycles through a pool of
seeded 8-query batches and, for ``serve-mixed``, a second thread and
connection that ingests pre-generated runs on an open-loop schedule,
each ingest timed from when it was due.

Every answer is checked: ``serve-read`` responses against answers an
in-process :class:`~repro.serve.state.SystemSession` computed during
set-up; ``serve-mixed`` responses for ``ok`` and a non-decreasing
generation, then the whole pool against a fresh in-process system over
the base runs plus every ingested run.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

import speed
from tracer import Tracer, install, layer_metrics

N_PROCESSES = 4
BASE_RUNS = 48
POOL_BATCHES = 256
#: Every batch asks each of the six query kinds, plus a second knows and
#: holds, in a seeded order: batches differ in their targets, not in
#: their mix of cheap and expensive kinds.
BATCH_KINDS = ("knows", "holds", "e", "ck", "known_crashed", "max_e_depth", "knows", "holds")
WARMUP_PASSES = 3
SETUPS = 3
#: Speed chunks timed after each set-up, to scale it.
SETUP_CHUNKS = 5
INGEST_EVERY_S = 0.1
INGEST_RUNS = 4
SYSTEM = "bench"


class Fixture:
    """Everything the client side builds from the seed before timing."""

    def __init__(self, seed: int, mixed: bool, ingest_seconds: float) -> None:
        from repro.model.synthetic import synthetic_run, synthetic_system
        from repro.serve.client import runs_to_arena_payload

        rng = random.Random(seed)
        self.base = synthetic_system(N_PROCESSES, BASE_RUNS, seed=seed)
        self.pool = [
            [self._query(rng, kind) for kind in rng.sample(BATCH_KINDS, len(BATCH_KINDS))]
            for _ in range(POOL_BATCHES)
        ]
        self.expected = answers(self.base.runs, self.pool)
        # Distinct runs for every ingest due within ``ingest_seconds``,
        # so each ingest adds all of its runs.
        self.ingests: list[tuple[Any, ...]] = []
        if mixed:
            seen = set(self.base.runs)
            count = int(ingest_seconds / INGEST_EVERY_S)
            while len(self.ingests) < count:
                batch: list[Any] = []
                while len(batch) < INGEST_RUNS:
                    run = synthetic_run(self.base.processes, rng)
                    if run not in seen:
                        seen.add(run)
                        batch.append(run)
                self.ingests.append(tuple(batch))
        self.payloads = [runs_to_arena_payload(batch) for batch in self.ingests]

    def _query(self, rng: random.Random, kind: str) -> dict[str, Any]:
        from repro.knowledge import Crashed, Diamond
        from repro.knowledge.wire import formula_to_jsonable
        from repro.serve.client import ck_query, e_query, holds_query, knows_query

        procs = list(self.base.processes)
        run = rng.randrange(len(self.base.runs))
        at = rng.randint(0, self.base.runs[run].duration)
        p, q = rng.choice(procs), rng.choice(procs)
        group = sorted(rng.sample(procs, rng.randint(2, len(procs))))
        if kind == "knows":
            return knows_query(p, Crashed(q), run, at)
        if kind == "holds":
            return holds_query(Diamond(Crashed(q)), run, at)
        if kind == "e":
            return e_query(group, rng.randint(1, 3), Crashed(q), run, at)
        if kind == "ck":
            return ck_query(group, Crashed(q), run, at)
        if kind == "known_crashed":
            return {"kind": kind, "process": p, "run": run, "time": at}
        return {
            "kind": kind,
            "group": group,
            "formula": formula_to_jsonable(Crashed(q)),
            "run": run,
            "time": at,
            "cap": 3,
        }


def answers(runs: Any, pool: list[list[dict[str, Any]]]) -> list[list[dict[str, Any]]]:
    """The in-process answer to every query of the pool over ``runs``."""
    from repro.model.system import System
    from repro.serve.state import SystemSession

    session = SystemSession("oracle", System(runs))
    return [[session.run_query(query) for query in batch] for batch in pool]


class Server:
    """One ``repro.harness serve`` process on an ephemeral port."""

    def __init__(self, env: dict[str, str], journal_dir: Path | None) -> None:
        cmd = [sys.executable, "-m", "repro.harness", "serve", "--port", "0"]
        if journal_dir is not None:
            cmd += ["--journal-dir", str(journal_dir)]
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start (first line {line!r})")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self, client: Any) -> None:
        """Ask for a graceful shutdown and wait for the process to end."""
        client.shutdown()
        client.close()
        self.proc.wait(timeout=30)
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Ingester(threading.Thread):
    """Open-loop ingest: batch k is due ``k * INGEST_EVERY_S`` after start."""

    def __init__(self, host: str, port: int, payloads: list[Any]) -> None:
        super().__init__(name="e2e-ingest", daemon=True)
        self.address = (host, port)
        self.payloads = payloads
        self.start_at = 0.0
        self.halt = threading.Event()
        #: (due, late_s, latency_s, added, generation) per ingest
        self.records: list[tuple[float, float, float, int, int]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        from repro.serve.client import ServeClient

        try:
            with ServeClient.connect(*self.address) as client:
                for k, payload in enumerate(self.payloads):
                    due = self.start_at + k * INGEST_EVERY_S
                    if self.halt.wait(max(0.0, due - time.perf_counter())):
                        return
                    sent = time.perf_counter()
                    reply = client.request({"op": "ingest", "system": SYSTEM, "arena": payload})
                    done = time.perf_counter()
                    self.records.append(
                        (due, sent - due, done - due, reply["added"], reply["generation"])
                    )
        except BaseException as exc:  # surfaced by the caller after join
            self.error = exc


class Window:
    """Pass times and request latencies of one closed-loop window.

    Passes are the operations of a speed meter that times one chunk
    after each pass (no timer: a chunk during a request would overlap
    the server's work), so every pass and the requests in it are scaled
    by the host's speed around that pass.  A traced window alternates
    untraced and traced passes, so the tracing overhead is a ratio of
    neighbouring passes even while ingests grow the system.
    """

    def __init__(self) -> None:
        self.meter = speed.Meter()
        self.passes: list[int] = []  # meter indexes of untraced passes
        self.traced_passes: list[int] = []
        self.latencies: list[float] = []  # requests of untraced passes
        self.latency_pass: list[int] = []

    def pass_times(self, traced: bool = False) -> tuple[list[float], list[float]]:
        """(unscaled, scaled) seconds per pass."""
        meter = self.meter
        indexes = self.traced_passes if traced else self.passes
        return (
            [meter.latencies[i] for i in indexes],
            [meter.latencies[i] / meter.factor_of(i) for i in indexes],
        )

    def request_times(self) -> tuple[list[float], list[float]]:
        """(unscaled, scaled) seconds of each batch of the pool, at its
        median over the untraced passes."""
        factors = {i: self.meter.factor_of(i) for i in self.passes}
        scaled = [v / factors[i] for v, i in zip(self.latencies, self.latency_pass)]
        return tuple(  # type: ignore[return-value]
            [statistics.median(times[k::POOL_BATCHES]) for k in range(POOL_BATCHES)]
            for times in (self.latencies, scaled)
        )


def drive(
    client: Any,
    pool: list[list[dict[str, Any]]],
    seconds: float,
    check: Callable[[int, dict[str, Any]], None],
    *,
    passes: int = 0,
    tracer: Tracer | None = None,
    root: str = "bench.serve",
) -> Window:
    """Send the pool's batches in order until ``seconds`` (or ``passes``) is done.

    The window always ends at a pass boundary, so every pass counts.
    Each traced pass is one ``root`` span with a span per request.
    """
    window = Window()
    end = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(window.passes) > len(window.traced_passes)
        scope = tracer.span(root) if traced else nullcontext()
        this_pass = len(window.meter.latencies)
        with window.meter.op(), scope:
            for i, batch in enumerate(pool):
                start = time.perf_counter()
                if traced:
                    with tracer.span("serve.client.request", i):
                        response = client.query_response(SYSTEM, batch)
                else:
                    response = client.query_response(SYSTEM, batch)
                    window.latencies.append(time.perf_counter() - start)
                    window.latency_pass.append(this_pass)
                check(i, response)
        window.meter.tick()
        (window.traced_passes if traced else window.passes).append(this_pass)
        now = time.perf_counter()
        done = len(window.passes) >= passes if passes else now >= end
        if done and len(window.traced_passes) == (len(window.passes) if tracer else 0):
            return window


class Checks:
    """Counts attempted checks and keeps the labels of failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def run_serve(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    env: dict[str, str],
    scratch: Path,
) -> dict[str, Any]:
    """One run of ``serve-read`` or ``serve-mixed``; returns samples and checks.

    The load generator and the server (which inherits the mask) share
    one CPU, so the speed the client measures is the server's too: with
    a CPU each, the two ran in different speed phases and their scaled
    latencies spread over 10-20% between runs instead of 2-5%.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _run_serve(workload, seed, seconds, trace, env, scratch)
    finally:
        os.sched_setaffinity(0, cpus)


def _run_serve(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    env: dict[str, str],
    scratch: Path,
) -> dict[str, Any]:
    from repro.serve.client import ServeClient

    mixed = workload == "serve-mixed"
    # Ingests continue through warm-up, the window and the in-process
    # measurements of a traced run; 10 s covers all but the window.
    fixture = Fixture(seed, mixed, seconds + 10.0)
    checks = Checks()
    generation = [0]

    def check_read(i: int, response: dict[str, Any]) -> None:
        results = response.get("results")
        if mixed:
            ok = all(r.get("ok") for r in results) and response["generation"] >= generation[0]
            generation[0] = response["generation"]
        else:
            ok = results == fixture.expected[i]
        checks(f"batch {i}", ok)

    # Set-up is timed from the server's spawn to the first answer, which
    # covers interpreter start, imports, create and the index build.  An
    # untraced run boots SETUPS servers and measures on the last one.
    boots = 1 if trace else SETUPS
    setups: tuple[list[float], list[float]] = ([], [])
    journal: Path | None = None
    for k in range(boots):
        if mixed:
            journal = scratch / f"journal-{os.getpid()}-{k}"
            shutil.rmtree(journal, ignore_errors=True)
        t0 = time.monotonic()
        server = Server(env, journal)
        try:
            client = ServeClient.connect(server.host, server.port)
            client.create(SYSTEM, fixture.base.runs)
            check_read(0, client.query_response(SYSTEM, fixture.pool[0]))
            setups[0].append(time.monotonic() - t0)
            chunks = [speed.chunk_seconds() for _ in range(SETUP_CHUNKS)]
            setups[1].append(setups[0][-1] / speed.factor(chunks))
            if k < boots - 1:
                server.stop(client)
        except BaseException:
            server.kill()
            raise
        finally:
            if journal is not None and k < boots - 1:
                shutil.rmtree(journal, ignore_errors=True)

    out: dict[str, Any] = {"setup_s": setups}
    ingester = None
    try:
        if mixed:
            ingester = Ingester(server.host, server.port, fixture.payloads)
            ingester.start_at = time.perf_counter()
            ingester.start()
        drive(client, fixture.pool, 0.0, check_read, passes=WARMUP_PASSES)
        tracer = None
        if trace:
            in_process = untraced_in_process(fixture)
            tracer = install(Tracer())
        window_start = time.perf_counter()
        window = drive(
            client, fixture.pool, seconds, check_read, tracer=tracer, root=f"bench.{workload}"
        )
        window_end = time.perf_counter()
        out.update(
            task_s=window.pass_times(),
            ops_s=window.request_times(),
            speed_factor=window.meter.factor(),
        )
        if tracer is not None:
            out["layer_metrics"] = traced_layers(workload, tracer, fixture, window, scratch)
            out["layer_metrics"].update(in_process)
            out["layer_metrics"]["serve.outside_kernel_share"] = 1.0 - (
                in_process["serve.session.query_us"] / (statistics.median(window.latencies) * 1e6)
            )
            out["layers"], out["wall_s"] = tracer.layer_table()
            out["spans"] = tracer.dump()
        if ingester is not None:
            ingester.halt.set()
            ingester.join(timeout=30)
            if ingester.error is not None:
                raise ingester.error
            measured = [r for r in ingester.records if window_start <= r[0] < window_end]
            checks("ingests ran in the window", bool(measured))
            out["ingest_ms"] = [r[2] * 1e3 for r in measured]
            out["ingest_late_ms"] = [r[1] * 1e3 for r in measured]
            verify_mixed(client, fixture, ingester.records, checks)
        out["peak_rss_mb"] = [server.peak_rss_mb()]
        metrics = client.info()["server"]["metrics"]
        out["server"] = {k: metrics[k] for k in ("shed", "deadline_exceeded")}
        checks("nothing shed", metrics["shed"] == 0 and metrics["deadline_exceeded"] == 0)
        server.stop(client)
    finally:
        if ingester is not None:
            ingester.halt.set()
            ingester.join(timeout=30)
        server.kill()
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
    out["attempted"], out["failed_checks"] = checks.attempted, checks.failed
    return out


def verify_mixed(client: Any, fixture: Fixture, records: list[Any], checks: Checks) -> None:
    """Generation count, run count and the pool against a fresh rebuild."""
    ingested = len(records)
    described = client.info()["systems"][SYSTEM]
    checks("every ingest added its runs", all(r[3] == INGEST_RUNS for r in records))
    checks("generation = number of ingests", described["generation"] == ingested)
    checks(
        "runs = base + ingested",
        described["runs"] == BASE_RUNS + INGEST_RUNS * ingested,
    )
    runs = list(fixture.base.runs)
    for batch in fixture.ingests[:ingested]:
        runs.extend(batch)
    expected = answers(runs, fixture.pool)
    for i, batch in enumerate(fixture.pool):
        checks(f"verify batch {i}", client.query(SYSTEM, batch) == expected[i])


def untraced_in_process(fixture: Fixture) -> dict[str, float]:
    """The request stream's in-process cost, before the tracer is installed.

    ``serve.session.query_us`` replays the pool through a warm
    ``SystemSession``, as the server's session is warm;
    ``serve.client.encode_us`` is the client's request encoding.
    """
    from repro.model.system import System
    from repro.serve.protocol import encode_message
    from repro.serve.state import SystemSession

    session = SystemSession("replay", System(fixture.base.runs))
    replay(session, fixture.pool)
    encode = []
    for batch in fixture.pool:
        start = time.perf_counter()
        encode_message({"op": "query", "system": SYSTEM, "queries": batch})
        encode.append(time.perf_counter() - start)
    return {
        "serve.session.query_us": statistics.median(replay(session, fixture.pool)) * 1e6,
        "serve.client.encode_us": statistics.median(encode) * 1e6,
    }


def traced_layers(
    workload: str, tracer: Tracer, fixture: Fixture, window: Window, scratch: Path
) -> dict[str, float]:
    """Per-layer metrics of a serve workload, with the tracer installed.

    The layers under the server run in its own process, so their split
    comes from one traced in-process replay of the pool (and, for
    ``serve-mixed``, of the ingests) through the same public classes.
    """
    from repro.model.system import System
    from repro.serve.state import SystemSession

    metrics: dict[str, float] = {}
    with tracer.span("bench.replay"):
        replay(SystemSession("traced", System(fixture.base.runs)), fixture.pool, tracer)
    if workload == "serve-mixed":
        with tracer.span("bench.ingest"):
            metrics.update(ingest_in_process(fixture, scratch))
    metrics.update(layer_metrics(tracer))
    untraced, traced = window.pass_times()[1], window.pass_times(traced=True)[1]
    metrics["bench.tracing_overhead"] = statistics.median(t / u for u, t in zip(untraced, traced))
    return metrics


def replay(session: Any, pool: list[list[dict[str, Any]]], tracer: Tracer | None = None) -> list[float]:
    """Answer the pool in process, one batch at a time; seconds per batch."""
    times = []
    for i, batch in enumerate(pool):
        start = time.perf_counter()
        if tracer is None:
            for query in batch:
                session.run_query(query)
        else:
            with tracer.span("serve.session.replay", i):
                for query in batch:
                    session.run_query(query)
        times.append(time.perf_counter() - start)
    return times


def ingest_in_process(fixture: Fixture, scratch: Path) -> dict[str, float]:
    """``ServeState`` ingest split into session work and the journal append."""
    from repro.serve.client import runs_to_arena_payload
    from repro.serve.journal import ServeJournal
    from repro.serve.state import ServeState

    directory = scratch / f"journal-{os.getpid()}-inproc"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        state = ServeState(journal=ServeJournal(directory))
        # Index first, as queries have on the server, so ingests refine.
        state.create(SYSTEM, runs_to_arena_payload(fixture.base.runs)).system.columnar_kernel()
        session_ms, append_ms = [], []
        for payload in fixture.payloads[:50]:
            start = time.perf_counter()
            prepared = state.prepare_ingest(SYSTEM, payload)
            mid = time.perf_counter()
            state.journal_append(prepared.record)
            appended = time.perf_counter()
            state.commit_ingest(prepared)
            done = time.perf_counter()
            session_ms.append((mid - start + done - appended) * 1e3)
            append_ms.append((appended - mid) * 1e3)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "serve.ingest.session_ms": statistics.median(session_ms),
        "serve.journal.append_ms": statistics.median(append_ms),
    }
