#!/usr/bin/env python3
"""Archive an ensemble, reload it, re-verify the theorem, emit a report.

Ensembles are the 'datasets' of this reproduction: expensive to
regenerate, cheap to store.  This example builds a Theorem 3.6
ensemble, archives it to JSON, reloads it, re-runs the perfect-detector
verification on the *loaded* copy (knowledge must survive the round
trip bit-for-bit), and writes a small markdown reproduction report.

    python examples/archive_and_report.py
"""

import os
import tempfile

from repro import (
    EnsembleSpec,
    make_process_ids,
    run_ensemble,
    simulate_perfect_detectors,
    uniform_protocol,
)
from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.properties import is_perfect
from repro.detectors.standard import PerfectOracle
from repro.harness.report import generate_report
from repro.model.serialize import load_system, save_system
from repro.workloads.generators import post_crash_workload


def main() -> None:
    processes = make_process_ids(4)
    system = run_ensemble(
        EnsembleSpec.a5t(
            processes,
            uniform_protocol(StrongFDUDCProcess),
            t=3,
            workload=lambda plan: post_crash_workload(processes, plan),
            detector=PerfectOracle(),
            seeds=(0, 1),
        ),
        cache=None,
    ).system()
    print(f"built ensemble: {len(system)} runs")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ensemble.json")
        save_system(system, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"archived to {path} ({size_kb:.0f} KiB)")

        loaded = load_system(path)
        assert loaded.runs == system.runs
        print("reloaded: runs identical (histories hash equal)")

        # Theorem 3.6 on the LOADED copy: knowledge is computed from the
        # deserialized histories, so this checks the archive end-to-end.
        rf = simulate_perfect_detectors(loaded)
        verdicts = [bool(is_perfect(r, derived=True)) for r in rf]
        print(
            f"Theorem 3.6 on the archive: {sum(verdicts)}/{len(verdicts)} "
            "runs yield perfect derived detectors"
        )

        report_path = os.path.join(tmp, "report.md")
        with open(report_path, "w") as f:
            f.write(generate_report(["A14", "A15"]))
        print(f"wrote report with {open(report_path).read().count('##')} sections")
        print()
        print(open(report_path).read().splitlines()[4])


if __name__ == "__main__":
    main()
