"""Command-line entry point: ``python -m repro [command]``.

Commands:
  experiments [IDs...]  run the reproduction experiments (default: all);
                        supports --list and --backend serial|process[:N]
  list                  list registered experiment ids and summaries
  table1                regenerate Table 1 only
  demo                  execute one UDC run and print its trace
"""

from __future__ import annotations

import sys


def demo() -> int:
    """One UDC run, traced and checked -- built from a declarative RunSpec."""
    from repro import (
        CrashPlan,
        StrongFDUDCProcess,
        StrongOracle,
        make_process_ids,
        single_action,
        udc_holds,
        uniform_protocol,
    )
    from repro.harness.trace import render_run, summarize_run
    from repro.runtime import RunSpec, run_spec

    spec = RunSpec(
        processes=make_process_ids(4),
        protocol=uniform_protocol(StrongFDUDCProcess),
        crash_plan=CrashPlan.of({"p3": 8}),
        workload=single_action("p1", tick=1),
        detector=StrongOracle(),
        seed=42,
    )
    run = run_spec(spec)
    print(summarize_run(run))
    print()
    print(render_run(run, limit=40))
    print()
    verdict = udc_holds(run)
    print(f"UDC: {'holds' if verdict else verdict.witness}")
    return 0


def main(argv: list[str]) -> int:
    """Dispatch the CLI subcommands."""
    if not argv or argv[0] == "experiments":
        from repro.harness.__main__ import main as harness_main

        return harness_main(argv[1:] if argv else [])
    if argv[0] == "list":
        from repro.harness import registry

        print(registry.describe())
        return 0
    if argv[0] == "table1":
        from repro.harness.table1 import build_table1, render_table1

        print(render_table1(build_table1()))
        return 0
    if argv[0] == "demo":
        return demo()
    print(__doc__)
    return 0 if argv[0] in ("-h", "--help") else 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
