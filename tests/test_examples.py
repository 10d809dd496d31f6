"""Smoke tests: every example script runs clean and prints its headline."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "DC1: holds" in out
    assert "DC2: holds" in out
    assert "DC3: holds" in out


def test_replicated_service():
    out = run_example("replicated_service.py")
    assert "UDC across all commands: holds" in out
    assert "every correct replica applied the same SET of commands: True" in out


def test_uniform_reliable_broadcast():
    out = run_example("uniform_reliable_broadcast.py")
    assert "integrity: every delivery unique and matches a broadcast" in out
    assert "UDC (= URB) verdict: holds" in out


def test_knowledge_analysis():
    out = run_example("knowledge_analysis.py")
    assert "UDC holds in every run: True" in out
    assert "perfect-detector verdicts: 30/30" in out


def test_failure_detector_zoo():
    out = run_example("failure_detector_zoo.py")
    # The hierarchy's key shape facts, as printed rows.
    assert "perfect" in out and "readings:" in out
    for line in out.splitlines():
        if line.startswith("perfect"):
            assert "FAILS" not in line
        if line.startswith("none"):
            assert "FAILS" in line


def test_exhaustive_udc_check():
    out = run_example("exhaustive_udc_check.py")
    assert "50 runs [complete]" in out
    assert "UDC violations found: 2" in out
    assert "nUDC violations found: 0" in out
    # Under drop elision the witness defers both alpha-copies at every
    # delivery choice point instead of taking explicit drop branches.
    assert "minimal witness: crashes={'p1': 5} trace=(1, 1, 1, 1, 1)" in out
    assert "kernel input: 50 runs, complete=True" in out
    assert "no survivor ever knows the crash: True" in out


def test_archive_and_report():
    out = run_example("archive_and_report.py")
    assert "reloaded: runs identical" in out
    assert "30/30 runs yield perfect derived detectors" in out
    assert "2/2 experiments passed" in out
