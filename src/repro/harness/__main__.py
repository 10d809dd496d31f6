"""Run experiments from the registry: ``python -m repro.harness``.

Usage::

    python -m repro.harness [--list] [--backend serial|process[:N]] [IDS...]
    python -m repro.harness explore [--n N] [--t T] [--horizon T] [...]
    python -m repro.harness chaos
    python -m repro.harness lint [PATHS...] [--format json] [--select RULE,...]
    python -m repro.harness serve [--host H] [--port P] [--cache DIR]
                                  [--journal-dir DIR] [--max-inflight N]
                                  [--request-deadline S] [...]
    python -m repro.harness bench-serve [--out PATH]
    python -m repro.harness serve-smoke
    python -m repro.harness serve-soak [--seed N] [--clients N] [--rounds N]

With no ids, every registered experiment runs.  ``--backend process``
executes the ensemble sweeps inside each experiment on a worker-process
pool (results are identical to serial; see repro.runtime).

The ``explore`` subcommand runs the bounded exhaustive checker
(:mod:`repro.explore`) instead of a seeded ensemble: it enumerates every
run of the chosen context up to the horizon, reports monitor violations,
and (with ``--shrink``) minimizes the first one to a replayable witness.

The ``chaos`` subcommand is the runtime-hardening smoke test: it runs a
small ensemble under a seeded infrastructure fault plan (one worker
killed mid-batch, one run hung past its deadline, one corrupted disk
cache entry) and exits 0 iff the batch completes *degraded* -- no
exception, the casualties and recoveries as structured
:class:`~repro.runtime.report.FailedRun` records, and a usable System
over the survivors.

The ``lint`` subcommand runs the determinism / pool-safety /
model-invariant static analyzer (:mod:`repro.lint`) over ``src/repro``
(or the given paths) and exits 1 on any error-severity finding.

The ``serve`` family drives the online epistemic query service
(:mod:`repro.serve`): ``serve`` runs the asyncio JSON server (with
optional write-ahead journaling, crash recovery, and admission-control
knobs), ``bench-serve`` records BENCH_serve.json (including the
journaling-overhead section), ``serve-smoke`` is the CI end-to-end
check (boot, mixed query batch, one online ingest pinned against a
fresh rebuild, clean shutdown), and ``serve-soak`` is the chaos soak:
a client fleet driven through a seeded TCP chaos proxy at a supervised
server that is SIGKILLed and respawned mid-soak, asserting zero wrong
answers against an in-process oracle and full post-recovery
bit-equality.
"""

from __future__ import annotations

import sys
import time

from repro.harness import registry
from repro.harness.results import render_result
from repro.harness.table1 import build_table1, render_table1

_EXPLORE_USAGE = """\
usage: python -m repro.harness explore [options]

  --protocol nudc|reliable   joint protocol to check         (default nudc)
  --n N                      number of processes             (default 3)
  --t T                      max crash failures              (default 1)
  --horizon T                exploration bound in ticks      (default 4)
  --crash-ticks A,B,...      candidate crash ticks           (default 1)
  --init PROC:TICK           single-action workload          (default p1:1)
  --lossy                    fair-lossy channel (else reliable)
  --drop-budget K            max consecutive drops per channel (default 2)
  --monitor udc|nudc         uniformity monitor to attach    (default udc)
  --reduction MODE           none|dpor                       (default dpor)
  --strategy dfs|bfs         frontier discipline             (default dfs)
  --stop-on-violation        halt at the first violation
  --shrink                   minimize the first violation
"""


def _explore_main(argv: list[str]) -> int:
    """``python -m repro.harness explore ...``: exhaustive bounded checking."""
    from repro.core.protocols import NUDCProcess, ReliableUDCProcess
    from repro.explore import (
        ExploreSpec,
        UniformityMonitor,
        explore,
        shrink_violation,
    )
    from repro.model.context import make_process_ids
    from repro.sim.process import uniform_protocol
    from repro.workloads.generators import single_action

    opts = {
        "--protocol": "nudc",
        "--n": "3",
        "--t": "1",
        "--horizon": "4",
        "--crash-ticks": "1",
        "--init": "p1:1",
        "--drop-budget": "2",
        "--monitor": "udc",
        "--reduction": "dpor",
        "--strategy": "dfs",
    }
    flags = {"--lossy", "--stop-on-violation", "--shrink", "--help", "-h"}
    given: set[str] = set()
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in flags:
            given.add(arg)
        elif arg in opts:
            if not args:
                print(f"{arg} needs a value\n{_EXPLORE_USAGE}")
                return 2
            opts[arg] = args.pop(0)
        else:
            print(f"unknown explore option {arg!r}\n{_EXPLORE_USAGE}")
            return 2
    if "--help" in given or "-h" in given:
        print(_EXPLORE_USAGE)
        return 0

    protocols = {"nudc": NUDCProcess, "reliable": ReliableUDCProcess}
    if opts["--protocol"] not in protocols:
        print(f"unknown protocol {opts['--protocol']!r} (nudc | reliable)")
        return 2
    if opts["--monitor"] not in ("udc", "nudc"):
        print(f"unknown monitor {opts['--monitor']!r} (udc | nudc)")
        return 2
    init_proc, _, init_tick = opts["--init"].partition(":")
    try:
        spec = ExploreSpec(
            processes=make_process_ids(int(opts["--n"])),
            protocol=uniform_protocol(protocols[opts["--protocol"]]),
            horizon=int(opts["--horizon"]),
            max_failures=int(opts["--t"]),
            crash_ticks=tuple(
                int(part) for part in opts["--crash-ticks"].split(",") if part
            ),
            workload=single_action(init_proc, tick=int(init_tick or "1")),
            lossy="--lossy" in given,
            max_consecutive_drops=int(opts["--drop-budget"]),
            reduction=opts["--reduction"],
            strategy=opts["--strategy"],
        )
    except ValueError as exc:
        print(exc)
        return 2
    monitor = UniformityMonitor(uniform=opts["--monitor"] == "udc")
    report = explore(
        spec,
        monitors=[monitor],
        stop_on_violation="--stop-on-violation" in given,
    )
    print(report.summary())
    if report.violations and "--shrink" in given:
        shrunk = shrink_violation(spec, report.violations[0], monitor=monitor)
        print(
            f"    shrunk witness: crashes={shrunk.crashes} "
            f"trace={list(shrunk.trace)} "
            f"({shrunk.attempts} attempts, {shrunk.reductions} reductions)"
        )
    return 1 if report.violations else 0


def _chaos_main(argv: list[str]) -> int:
    """``python -m repro.harness chaos``: the hardened-runtime smoke test.

    Deterministic chaos: the fault plan is fixed (kill the worker that
    picks up seed 5, hang seed 7 past its 1s deadline, corrupt the disk
    cache entry for seed 0), so the expected degraded report is too.
    """
    import tempfile
    import warnings
    from pathlib import Path

    from repro.core.protocols import NUDCProcess
    from repro.faults.infra import (
        InfraFaultPlan,
        corrupt_cache_entry,
        use_infra_faults,
    )
    from repro.model.context import make_process_ids
    from repro.runtime import (
        ProcessPoolBackend,
        RetryPolicy,
        RunCache,
        RunSpec,
        run_ensemble,
    )
    from repro.sim.executor import ExecutionConfig
    from repro.sim.process import uniform_protocol
    from repro.workloads.generators import single_action

    if argv:
        print("usage: python -m repro.harness chaos   (no options)")
        return 0 if argv[0] in ("-h", "--help") else 2

    processes = make_process_ids(3)
    config = ExecutionConfig(deadline=1.0)
    specs = [
        RunSpec(
            processes=processes,
            protocol=uniform_protocol(NUDCProcess),
            workload=single_action("p1", tick=1),
            config=config,
            seed=seed,
        )
        for seed in range(10)
    ]

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache_dir = Path(tmp) / "cache"
        state_dir = Path(tmp) / "state"
        state_dir.mkdir()

        # Warm the disk cache with two runs, then corrupt one entry.
        run_ensemble(specs[:2], backend="serial", cache=RunCache(cache_dir))
        digest = specs[0].digest()
        assert digest is not None
        corrupt_cache_entry(cache_dir, digest)

        plan = InfraFaultPlan(
            state_dir=str(state_dir),
            kill_worker_seeds=(5,),
            hangs=((7, 2.5),),
        )
        with use_infra_faults(plan), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_ensemble(
                specs,
                backend=ProcessPoolBackend(max_workers=2),
                cache=RunCache(cache_dir),
                retry=RetryPolicy(max_attempts=3, backoff_base=0.05),
            )

    print(report.summary())
    system = report.system()
    records = len(report.failures) + len(report.recoveries)
    checks = [
        ("batch completed degraded (no exception)", not report.complete),
        (
            "hung run recorded as a deadline failure",
            any(f.kind == "deadline" for f in report.failures),
        ),
        (
            "killed worker recovered via pool respawn",
            any(r.kind == "worker-crash" for r in report.recoveries),
        ),
        (
            "corrupt cache entry quarantined and regenerated",
            any(r.kind == "cache-corrupt" for r in report.recoveries),
        ),
        (f">= 3 structured fault records (got {records})", records >= 3),
        (
            "degradation warning issued",
            any(issubclass(w.category, UserWarning) for w in caught),
        ),
        (
            "System built over survivors, marked incomplete",
            not system.complete and system.missing_runs == len(report.failures),
        ),
        (
            "every non-failed spec has a run",
            len(report.runs) == len(specs) - len(report.failures),
        ),
    ]
    ok = True
    for label, passed in checks:
        print(f"    [{'ok' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    print("chaos smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _usage() -> str:
    """The ``Usage::`` block of this module's docstring."""
    block = (__doc__ or "").partition("Usage::\n\n")[2].split("\n\n", 1)[0]
    return "usage:\n" + block


def main(argv: list[str]) -> int:
    """Run the requested experiments (all by default) and print results."""
    args = list(argv)
    if args and args[0] == "explore":
        return _explore_main(args[1:])
    if args and args[0] == "chaos":
        return _chaos_main(args[1:])
    if args and args[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(args[1:])
    if args and args[0] == "serve":
        from repro.harness.servecli import serve_main

        return serve_main(args[1:])
    if args and args[0] == "bench-serve":
        from repro.harness.servecli import bench_serve_main

        return bench_serve_main(args[1:])
    if args and args[0] == "serve-smoke":
        from repro.harness.servecli import serve_smoke_main

        return serve_smoke_main(args[1:])
    if args and args[0] == "serve-soak":
        from repro.harness.servecli import serve_soak_main

        return serve_soak_main(args[1:])
    if "--help" in args or "-h" in args:
        print(_usage())
        return 0
    if "--list" in args:
        print(registry.describe())
        return 0
    backend = None
    if "--backend" in args:
        at = args.index("--backend")
        try:
            backend = args[at + 1]
        except IndexError:
            print("--backend needs a value: serial | process | process:N")
            return 2
        del args[at : at + 2]
    from repro.runtime import get_default_backend, set_default_backend

    try:
        if backend is not None:
            set_default_backend(backend)
        else:
            get_default_backend()  # resolves REPRO_BACKEND
    except ValueError as exc:
        print(exc)
        return 2

    wanted = [a.upper() for a in args] or registry.experiment_ids()
    unknown = [e for e in wanted if e not in registry.experiment_ids()]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}")
        print(registry.describe())
        return 2
    failed = 0
    for exp_id in wanted:
        start = time.perf_counter()
        result = registry.run(exp_id)
        elapsed = time.perf_counter() - start
        print(render_result(result))
        print(f"    ({elapsed:.1f}s)\n")
        if not result.passed:
            failed += 1
        if exp_id == "E09":
            print(render_table1(build_table1()))
            print()
    total = len(wanted)
    print(f"{total - failed}/{total} experiments passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
