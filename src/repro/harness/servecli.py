"""Harness subcommands for the epistemic query service.

* ``python -m repro.harness serve``        -- run the server (Ctrl-C stops)
* ``python -m repro.harness bench-serve``  -- the BENCH_serve.json benchmark
* ``python -m repro.harness serve-smoke``  -- CI smoke: boot a server over a
  real cache entry, drive a mixed query batch plus one online ingest, and
  assert the answers (including post-ingest bit-equality with a fresh
  rebuild) and a clean shutdown.
* ``python -m repro.harness serve-soak``   -- the chaos soak: a client
  fleet through a seeded TCP chaos proxy at a supervised, journaled
  server that is SIGKILLed and respawned mid-soak; exits 1 on any wrong
  answer (vs an in-process oracle), unstructured failure, or
  post-recovery divergence.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import warnings
from typing import Any, Callable, TypeVar

_N = TypeVar("_N", int, float)

_SERVE_USAGE = """\
usage: python -m repro.harness serve [options]

  --host HOST            bind address                     (default 127.0.0.1)
  --port PORT            bind port; 0 = ephemeral         (default 7399)
  --cache DIR            RunCache directory exposed to 'load'
  --preload DIGEST       load a cached exploration at boot (repeatable;
                         session name = the digest)
  --journal-dir DIR      write-ahead journal root: mutations are durable
                         before they are acknowledged, and sessions are
                         replayed from the journal at boot
  --max-inflight N       concurrent heavy requests          (default 8)
  --max-pending N        admission queue depth beyond that  (default 32)
  --request-deadline S   per-request deadline ceiling, seconds
                         (0 = none; clients may tighten via deadline_ms)
  --idle-timeout S       reap connections idle this long    (default 300)
"""

_BENCH_USAGE = """\
usage: python -m repro.harness bench-serve [--out PATH]

Writes the serve latency/throughput payload (default BENCH_serve.json),
including the journaling-overhead section the serve-journal bench gate
reads.  Set REPRO_BENCH_SMOKE=1 for the shrunk CI variant.
"""

_SOAK_USAGE = """\
usage: python -m repro.harness serve-soak [options]

  --seed N           soak seed: fault schedule, workload, and retry
                     jitter all derive from it               (default 0)
  --clients N        concurrent client threads               (default 4)
  --rounds N         query rounds per client                 (default 24)
  --kill-round N     SIGKILL + respawn the server when a client reaches
                     this round (0 = never)                  (default 12)

Drives a client fleet through a seeded TCP chaos proxy (latency, partial
writes, mid-frame disconnects, byte corruption) at a supervised,
journaled server.  Every successful answer is cross-checked against an
in-process oracle System; after the soak the recovered server must be
bit-identical to the oracle.  Exit 1 on any wrong answer, unstructured
error, or recovery divergence.
"""


def _parse(
    argv: list[str], opts: dict[str, str], usage: str
) -> dict[str, list[str]] | int:
    """Tiny option parser in the harness house style.

    Returns the repeated options, or the exit code when parsing ends
    the command: 0 after ``--help``, 2 after a usage error.
    """
    repeated: dict[str, list[str]] = {}
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(usage)
            return 0
        if arg in opts or arg == "--preload":
            if not args:
                print(f"{arg} needs a value\n{usage}")
                return 2
            value = args.pop(0)
            if arg == "--preload":
                repeated.setdefault(arg, []).append(value)
            else:
                opts[arg] = value
        else:
            print(f"unknown option {arg!r}\n{usage}")
            return 2
    return repeated


def _number(opts: dict[str, str], name: str, kind: Callable[[str], _N]) -> _N:
    """``opts[name]`` as a number; a ``ValueError`` names the option."""
    try:
        return kind(opts[name])
    except ValueError:
        raise ValueError(f"{name} needs a number, got {opts[name]!r}") from None


def serve_main(argv: list[str]) -> int:
    """``python -m repro.harness serve``: run the query service."""
    from repro.runtime.cache import RunCache
    from repro.serve.journal import ServeJournal
    from repro.serve.server import ServerLimits, serve_forever
    from repro.serve.state import ServeState

    opts = {
        "--host": "127.0.0.1",
        "--port": "7399",
        "--cache": "",
        "--journal-dir": "",
        "--max-inflight": "8",
        "--max-pending": "32",
        "--request-deadline": "0",
        "--idle-timeout": "300",
    }
    repeated = _parse(argv, opts, _SERVE_USAGE)
    if isinstance(repeated, int):
        return repeated
    # Every value is checked before a journal, cache or socket exists.
    try:
        port = _number(opts, "--port", int)
        if not 0 <= port <= 65535:
            raise ValueError(f"--port must be in 0..65535, got {port}")
        deadline = _number(opts, "--request-deadline", float)
        limits = ServerLimits(
            max_inflight=_number(opts, "--max-inflight", int),
            max_pending=_number(opts, "--max-pending", int),
            request_deadline=deadline if deadline > 0 else None,
            idle_timeout=_number(opts, "--idle-timeout", float),
        )
    except ValueError as exc:
        print(exc)
        return 2
    cache = RunCache(opts["--cache"]) if opts["--cache"] else None
    journal = ServeJournal(opts["--journal-dir"]) if opts["--journal-dir"] else None
    state = ServeState(cache, journal=journal)
    if journal is not None:
        report = state.recover()
        if report.recovered or report.skipped:
            print(f"journal replay: {report.summary()}", flush=True)
            for name, status in report.recovered:
                session = state.sessions[name]
                print(
                    f"  recovered {name!r}: {len(session.system.runs)} runs, "
                    f"generation {session.generation} ({status})",
                    flush=True,
                )
            for dirname, reason in report.skipped:
                print(f"  unrecoverable {dirname}: {reason}", flush=True)
    for digest in repeated.get("--preload", []):
        state.load_digest(digest, digest)
        print(f"preloaded {digest} ({len(state.sessions[digest].system.runs)} runs)")
    try:
        asyncio.run(
            serve_forever(state, host=opts["--host"], port=port, limits=limits)
        )
    except KeyboardInterrupt:
        print("\nrepro.serve stopped")
    return 0


def bench_serve_main(argv: list[str]) -> int:
    """``python -m repro.harness bench-serve``: write BENCH_serve.json."""
    from repro.serve.bench import run_serve_bench

    opts = {"--out": "BENCH_serve.json"}
    parsed = _parse(argv, opts, _BENCH_USAGE)
    if isinstance(parsed, int):
        return parsed
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    payload = run_serve_bench(smoke=smoke)
    for key, entry in payload["results"].items():
        print(
            f"serve {key}: p50 {entry['p50_ms']:.2f} ms, "
            f"p95 {entry['p95_ms']:.2f} ms, {entry['qps']:,.0f} q/s"
        )
    ingest = payload["ingest"]
    print(
        f"serve ingest: p50 {ingest['p50_ms']:.2f} ms, "
        f"p95 {ingest['p95_ms']:.2f} ms per {ingest['runs_per_batch']}-run batch"
    )
    journal = payload["journal"]
    print(
        f"journal overhead: query p50 {journal['query_overhead']:.3f}x, "
        f"ingest p50 {journal['ingest_overhead']:.3f}x (fsync on)"
    )
    print(f"calibration: {payload['calibration']['direct_qps']:,.0f} q/s in-process")
    with open(opts["--out"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {opts['--out']}")
    return 0


def serve_smoke_main(argv: list[str]) -> int:
    """``python -m repro.harness serve-smoke``: the CI end-to-end check."""
    import random
    import tempfile
    from pathlib import Path

    from repro.core.protocols import NUDCProcess
    from repro.explore import ExploreSpec, explore
    from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker
    from repro.model.context import make_process_ids
    from repro.model.run import Point
    from repro.model.synthetic import synthetic_run, synthetic_system
    from repro.model.system import System
    from repro.runtime.cache import RunCache
    from repro.serve.client import (
        ServeClient,
        ck_query,
        e_query,
        knows_query,
    )
    from repro.serve.server import EpistemicServer, start_server_thread
    from repro.serve.state import ServeState
    from repro.sim.process import uniform_protocol
    from repro.workloads.generators import single_action

    if argv:
        print("usage: python -m repro.harness serve-smoke   (no options)")
        return 0 if argv[0] in ("-h", "--help") else 2

    checks: list[tuple[str, bool]] = []

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        cache_dir = Path(tmp) / "cache"

        # A real exploration entry for the 'load' path.
        spec = ExploreSpec(
            processes=make_process_ids(3),
            protocol=uniform_protocol(NUDCProcess),
            horizon=3,
            max_failures=1,
            crash_ticks=(1,),
            workload=single_action("p1", tick=1),
        )
        report = explore(spec, cache=RunCache(cache_dir))
        digest = spec.digest()
        assert digest is not None
        checks.append(
            ("exploration cached for load", len(report.runs) > 0)
        )

        # And a deliberately corrupt one for graceful degradation.
        (cache_dir / "explore-deadbeef.json").write_text(
            "{not json", encoding="utf-8"
        )

        state = ServeState(RunCache(cache_dir))
        thread, host, port = start_server_thread(EpistemicServer(state))

        with ServeClient.connect(host, port) as client:
            checks.append(("server answers ping", client.ping()))
            info = client.info()
            checks.append(
                ("cache digest discoverable", digest in info["cache_digests"])
            )

            loaded = client.load("explored", digest)
            checks.append(
                (
                    "loaded system is complete by construction",
                    loaded["complete"] is True and loaded["runs"] == len(report.runs),
                )
            )

            group = list(loaded["processes"])
            mixed = client.query_response(
                "explored",
                [
                    knows_query(group[0], Crashed(group[1]), 0, 2),
                    e_query(group, 2, Crashed(group[1]), 0, 2),
                    ck_query(group, Crashed(group[1]), 0, 2),
                ],
            )
            checks.append(
                (
                    "mixed Knows/E^k/C_G batch all answered",
                    all(r["ok"] for r in mixed["results"]),
                )
            )
            checks.append(
                ("complete flag rides the envelope", mixed["complete"] is True)
            )

            # A sampled inline system must surface complete: false.
            sampled = synthetic_system(3, 8, seed=11, duration=5)
            client.create("sampled", sampled.runs, complete=False)
            pre = client.query_response(
                "sampled", [knows_query("p1", Crashed("p2"), 0, 3)]
            )
            checks.append(
                (
                    "sampled system reports complete: false",
                    pre["complete"] is False and pre["results"][0]["ok"],
                )
            )

            # Online ingest, then differential vs a from-scratch rebuild.
            rng = random.Random(23)
            extra = [
                synthetic_run(sampled.processes, rng, duration=5)
                for _ in range(5)
            ]
            ingested = client.ingest("sampled", extra)
            checks.append(
                (
                    "ingest bumps the generation",
                    ingested["generation"] == 1 and ingested["added"] > 0,
                )
            )
            seen = set(sampled.runs)
            fresh = []
            for r in extra:
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rebuilt = System(sampled.runs + tuple(fresh))
                checker = ModelChecker(rebuilt)
                agree = True
                for i, run in enumerate(rebuilt.runs):
                    for m in range(0, run.duration + 1, 2):
                        for p in rebuilt.processes:
                            want = checker.holds(
                                Knows(p, Crashed("p2")), Point(run, m)
                            )
                            got = client.query(
                                "sampled",
                                [knows_query(p, Crashed("p2"), i, m)],
                            )[0]["result"]
                            agree = agree and (want == got)
                grp = GroupChecker(checker)
                want_ck = sorted(
                    grp.common_knowledge_points(
                        list(rebuilt.processes), Crashed("p2")
                    )
                )
                got_ck = [
                    tuple(p)
                    for p in client.query(
                        "sampled",
                        [
                            {
                                "kind": "ck_points",
                                "group": list(rebuilt.processes),
                                "formula": {"op": "crashed", "process": "p2"},
                            }
                        ],
                    )[0]["result"]
                ]
            checks.append(
                ("post-ingest Knows answers match a fresh rebuild", agree)
            )
            checks.append(
                ("post-ingest C_G point set matches a fresh rebuild", want_ck == got_ck)
            )

            corrupt = client.request_raw(
                {"op": "load", "system": "bad", "digest": "deadbeef"}
            )
            checks.append(
                (
                    "corrupt cache entry degrades to corrupt-entry",
                    corrupt.get("ok") is False
                    and corrupt.get("error") == "corrupt-entry",
                )
            )

            client.shutdown()
        thread.join(timeout=30)
        checks.append(("clean shutdown", not thread.is_alive()))

    ok = True
    for label, passed in checks:
        print(f"    [{'ok' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    print("serve smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _free_port() -> int:
    """A currently-free TCP port (bind-and-release)."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port: int = sock.getsockname()[1]
    return port


class _SupervisedServer:
    """A serve subprocess the soak can SIGKILL and respawn.

    The journal directory and port survive respawns, so the recovered
    process replays the same sessions at the same address.
    """

    def __init__(self, port: int, journal_dir: str) -> None:
        self.port = port
        self.journal_dir = journal_dir
        self.proc: Any = None
        self.boots = 0
        self.log: list[str] = []

    def start(self, timeout: float = 60.0) -> None:
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.harness",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                str(self.port),
                "--journal-dir",
                self.journal_dir,
                "--max-inflight",
                "4",
                "--max-pending",
                "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        ready = threading.Event()
        lines: list[str] = []
        self.log = lines  # per-boot log; replaced on every (re)spawn

        def _pump(proc: Any) -> None:
            for line in proc.stdout:
                lines.append(line.rstrip())
                if "listening on" in line:
                    ready.set()
            ready.set()  # EOF: unblock the waiter on a failed boot

        threading.Thread(target=_pump, args=(self.proc,), daemon=True).start()
        ready.wait(timeout)
        if self.proc.poll() is not None or not any(
            "listening on" in line for line in lines
        ):
            raise RuntimeError(
                "soak server failed to boot:\n" + "\n".join(lines[-12:])
            )
        self.boots += 1

    def kill(self) -> None:
        """SIGKILL: no drain, no journal flush -- the crash under test."""
        self.proc.kill()
        self.proc.wait()

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except Exception:
                self.proc.kill()
                self.proc.wait()


class _ProxyThread:
    """A ChaosProxy on its own event-loop thread."""

    def __init__(self, proxy: Any) -> None:
        self.proxy = proxy
        self.addr: tuple[str, int] | None = None
        self._loop: Any = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            self.addr = loop.run_until_complete(self.proxy.start())
            started.set()
            loop.run_forever()
            loop.close()

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        if not started.wait(timeout=10) or self.addr is None:
            raise RuntimeError("chaos proxy failed to start")
        return self.addr

    def stop(self) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(self.proxy.stop(), loop).result(10)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)


def serve_soak_main(argv: list[str]) -> int:
    """``python -m repro.harness serve-soak``: the chaos soak harness."""
    import random
    import tempfile
    import time

    from repro.faults.proxy import ChaosProxy, WireFaultPlan
    from repro.knowledge import Crashed
    from repro.model.synthetic import synthetic_run, synthetic_system
    from repro.model.system import System
    from repro.runtime import RetryPolicy
    from repro.serve.client import (
        ServeClient,
        ServeClientError,
        ck_query,
        e_query,
        holds_query,
        knows_query,
        runs_to_arena_payload,
    )
    from repro.serve.state import SystemSession

    opts = {
        "--seed": "0",
        "--clients": "4",
        "--rounds": "24",
        "--kill-round": "12",
    }
    parsed = _parse(argv, opts, _SOAK_USAGE)
    if isinstance(parsed, int):
        return parsed
    # Exit 1 means a wrong answer or a failed recovery, so a bad value
    # must exit 2 before anything starts.
    try:
        seed = _number(opts, "--seed", int)
        n_clients = _number(opts, "--clients", int)
        rounds = _number(opts, "--rounds", int)
        kill_round = _number(opts, "--kill-round", int)
    except ValueError as exc:
        print(exc)
        return 2
    if n_clients < 1 or rounds < 1:
        print("--clients and --rounds must be positive")
        return 2
    if not 0 <= kill_round < rounds:
        print("--kill-round must be below --rounds (or 0 to disable)")
        return 2

    # -- the seeded world: base system, ingest batches, oracle ------------
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = synthetic_system(3, 10, seed=seed * 1021 + 7, duration=5)
        oracle = SystemSession("soak", System(base.runs))
    processes = list(base.processes)
    batch_rng = random.Random(f"repro-serve-soak:{seed}:batches")
    ingest_every = max(2, rounds // 6)
    n_batches = max(3, rounds // ingest_every)
    payloads: list[dict[str, Any]] = []
    epochs = {0: oracle.epoch}
    for _ in range(n_batches):
        batch = tuple(
            synthetic_run(base.processes, batch_rng, duration=5) for _ in range(3)
        )
        payload = runs_to_arena_payload(batch)
        payloads.append(payload)
        result = oracle.ingest(payload)
        epochs[result["generation"]] = oracle.epoch

    plan = WireFaultPlan(
        seed=seed,
        latency_prob=0.05,
        max_latency_ms=20,
        partial_write_prob=0.10,
        max_partial_bytes=7,
        disconnect_prob=0.02,
        corrupt_prob=0.02,
    )
    retry = RetryPolicy(
        max_attempts=8,
        backoff_base=0.1,
        backoff_factor=2.0,
        max_backoff=2.0,
        jitter=0.5,
    )

    #: Top-level error codes the robustness contract permits.
    allowed_errors = {
        "overloaded",
        "deadline-exceeded",
        "bad-checksum",
        "bad-json",
        "timeout",
    }

    violations: list[str] = []
    counters: dict[str, int] = {}
    recovered_seen: set[str] = set()
    lock = threading.Lock()
    oracle_lock = threading.Lock()
    kill_gate = threading.Event()
    ingested = {"count": 0}

    def _note(kind: str, n: int = 1) -> None:
        with lock:
            counters[kind] = counters.get(kind, 0) + n

    def _violate(message: str) -> None:
        with lock:
            violations.append(message)

    def _soak_queries(rng: "random.Random") -> list[dict[str, Any]]:
        out = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("knows", "holds", "e", "ck", "known_crashed"))
            formula = Crashed(rng.choice(processes))
            run_index = rng.randrange(len(base.runs))
            tick = rng.randint(0, 5)
            if kind == "knows":
                out.append(
                    knows_query(rng.choice(processes), formula, run_index, tick)
                )
            elif kind == "holds":
                out.append(holds_query(formula, run_index, tick))
            elif kind == "e":
                out.append(
                    e_query(processes, rng.randint(1, 2), formula, run_index, tick)
                )
            elif kind == "ck":
                out.append(ck_query(processes, formula, run_index, tick))
            else:
                out.append(
                    {
                        "kind": "known_crashed",
                        "process": rng.choice(processes),
                        "run": run_index,
                        "time": tick,
                    }
                )
        return out

    def _check_response(
        queries: list[dict[str, Any]], resp: dict[str, Any]
    ) -> None:
        recovered = resp.get("recovered")
        if recovered is not None:
            recovered_seen.add(str(recovered))
            if recovered != "full":
                _violate(f"unexpected partial recovery surfaced: {recovered!r}")
        generation = resp.get("generation")
        epoch = epochs.get(generation) if isinstance(generation, int) else None
        if epoch is None:
            _violate(f"answer at unknown generation {generation!r}")
            return
        results = resp.get("results")
        if not isinstance(results, list) or len(results) != len(queries):
            _violate("response results do not line up with the batch")
            return
        for query, got in zip(queries, results):
            if not got.get("ok"):
                code = got.get("error")
                if code == "deadline-exceeded":
                    _note("per_query_deadline")
                else:
                    _violate(f"unstructured per-query error {code!r} for {query}")
                continue
            with oracle_lock:
                want = oracle.run_query(query, epoch)
            if got != want:
                _violate(
                    f"WRONG ANSWER at generation {generation}: query {query} "
                    f"got {got} want {want}"
                )
            else:
                _note("answers_checked")

    def _client_worker(idx: int, proxy_addr: tuple[str, int]) -> None:
        rng = random.Random(f"repro-serve-soak:{seed}:client:{idx}")
        client: ServeClient | None = None
        next_batch = 0

        def _connect() -> ServeClient:
            return ServeClient.connect(
                proxy_addr[0],
                proxy_addr[1],
                timeout=5.0,
                retry=retry,
                checksum=True,
                retry_seed=seed * 1000 + idx,
            )

        def _ingest_pending() -> None:
            nonlocal client, next_batch
            while next_batch < len(payloads):
                request = {
                    "op": "ingest",
                    "system": "soak",
                    "arena": payloads[next_batch],
                }
                give_up = time.monotonic() + 90.0
                while True:
                    try:
                        if client is None:
                            client = _connect()
                        client.request(request)
                        with lock:
                            ingested["count"] += 1
                        _note("ingests")
                        break
                    except ServeClientError as exc:
                        if exc.code in allowed_errors:
                            _note(f"shed:{exc.code}")
                        else:
                            _violate(f"ingest failed with {exc.code!r}: {exc}")
                            break
                    except (ConnectionError, OSError):
                        _note("transport_errors")
                        client = None
                    if time.monotonic() > give_up:
                        _violate(f"ingest batch {next_batch} never landed")
                        break
                    time.sleep(0.2)
                next_batch += 1
                if next_batch < len(payloads):
                    return  # one batch per round; spread generations out

        for rnd in range(rounds):
            # Client 0 owns the ingest schedule: one batch every few
            # rounds so generations advance mid-soak (idempotent, so
            # retries across the kill window are safe).
            if idx == 0 and rnd > 0 and rnd % ingest_every == 0:
                _ingest_pending()
            queries = _soak_queries(rng)
            resp: dict[str, Any] | None = None
            for _outer in range(3):
                try:
                    if client is None:
                        client = _connect()
                    resp = client.query_response("soak", queries)
                    break
                except ServeClientError as exc:
                    if exc.code in allowed_errors:
                        _note(f"shed:{exc.code}")
                        time.sleep(0.2)
                        continue
                    _violate(f"unstructured error {exc.code!r}: {exc}")
                    break
                except (ConnectionError, OSError):
                    # Transport failure (mid-frame disconnect, respawn
                    # window): reconnect and try again.
                    _note("transport_errors")
                    client = None
                    time.sleep(0.3)
            if resp is not None:
                _check_response(queries, resp)
                _note("rounds_answered")
            else:
                _note("rounds_unanswered")
            if kill_round and rnd + 1 >= kill_round:
                kill_gate.set()
        if idx == 0:
            # Drain any batches the schedule has not placed yet, so the
            # final equality sweep covers every generation.
            while next_batch < len(payloads):
                _ingest_pending()
        if client is not None:
            client.close()

    # -- run the soak ------------------------------------------------------
    exit_code = 1
    with tempfile.TemporaryDirectory(prefix="repro-serve-soak-") as tmp:
        journal_dir = os.path.join(tmp, "journal")
        server = _SupervisedServer(_free_port(), journal_dir)
        server.start()
        proxy = _ProxyThread(ChaosProxy(plan, "127.0.0.1", server.port))
        proxy_addr = proxy.start()
        try:
            # Create the session over a clean direct connection (create
            # is the one op that is not transport-retry-safe).
            with ServeClient.connect(
                "127.0.0.1", server.port, timeout=30.0, retry=retry, checksum=True
            ) as direct:
                created = direct.request(
                    {
                        "op": "create",
                        "system": "soak",
                        "arena": runs_to_arena_payload(base.runs),
                    }
                )
                assert created["generation"] == 0

            workers = [
                threading.Thread(target=_client_worker, args=(i, proxy_addr))
                for i in range(n_clients)
            ]
            for worker in workers:
                worker.start()

            if kill_round:
                # SIGKILL only after at least two ingest generations
                # exist, so recovery has real refinement work to replay.
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    if kill_gate.is_set() and ingested["count"] >= 2:
                        break
                    time.sleep(0.05)
                server.kill()
                _note("sigkills")
                time.sleep(0.2)
                server.start()  # journal replay happens here

            for worker in workers:
                worker.join(timeout=300)
                if worker.is_alive():
                    _violate("client worker hung past the soak timeout")

            # -- final sweep: direct, chaos-free, full bit-equality -------
            with ServeClient.connect(
                "127.0.0.1", server.port, timeout=30.0, retry=retry, checksum=True
            ) as probe:
                info = probe.info()
                session_info = info["systems"].get("soak", {})
                final_queries: list[dict[str, Any]] = []
                for run_index in range(len(base.runs)):
                    for tick in range(0, 6, 2):
                        for process in processes:
                            final_queries.append(
                                knows_query(
                                    process, Crashed(processes[0]), run_index, tick
                                )
                            )
                final = probe.query_response("soak", final_queries)
                ck_points_wire = probe.query(
                    "soak",
                    [
                        {
                            "kind": "ck_points",
                            "group": processes,
                            "formula": {"op": "crashed", "process": processes[0]},
                        }
                    ],
                )[0]
                with oracle_lock:
                    want_final = [
                        oracle.run_query(q, oracle.epoch) for q in final_queries
                    ]
                    want_ck = oracle.run_query(
                        {
                            "kind": "ck_points",
                            "group": processes,
                            "formula": {"op": "crashed", "process": processes[0]},
                        },
                        oracle.epoch,
                    )
                probe.shutdown()

            checks = [
                (
                    "session survived with the oracle's run count",
                    session_info.get("runs") == len(oracle.system.runs),
                ),
                (
                    "generation matches the oracle",
                    session_info.get("generation") == oracle.generation
                    and final.get("generation") == oracle.generation,
                ),
                (
                    "post-kill answers come from a full journal recovery",
                    kill_round == 0
                    or session_info.get("recovered") == "full",
                ),
                (
                    "final sweep bit-identical to the oracle",
                    final.get("results") == want_final,
                ),
                (
                    "final C_G point set bit-identical to the oracle",
                    ck_points_wire == want_ck,
                ),
                ("zero wrong answers / unstructured errors", not violations),
                (
                    "fleet produced checked answers",
                    counters.get("answers_checked", 0) > 0,
                ),
                (
                    "every ingest generation landed",
                    ingested["count"] >= len(payloads),
                ),
            ]
            ok = True
            for label, passed in checks:
                print(f"    [{'ok' if passed else 'FAIL'}] {label}")
                ok = ok and passed
            exit_code = 0 if ok else 1
        finally:
            proxy.stop()
            server.stop()

    for message in violations[:20]:
        print(f"    violation: {message}")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    print(f"soak counters: {summary or 'none'}")
    print(f"proxy faults: {proxy.proxy.summary() or 'none'}")
    print(
        f"server boots: {server.boots} "
        f"(kill_round={kill_round}, seed={seed}, clients={n_clients}, "
        f"rounds={rounds})"
    )
    print("serve soak " + ("passed" if exit_code == 0 else "FAILED"))
    return exit_code
