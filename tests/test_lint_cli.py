"""Tests for the ``harness lint`` CLI: exit codes, JSON stability,
rule selection, and the harness dispatch wiring."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
CLEAN = FIXTURES / "clean"
REPO = Path(__file__).parent.parent


def test_clean_tree_exits_zero(capsys) -> None:
    assert main([str(CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_fixture_tree_exits_one(capsys) -> None:
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "error(s)" in out


def test_json_output_is_stable_and_structured(capsys) -> None:
    assert main([str(FIXTURES), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert main([str(FIXTURES), "--format", "json"]) == 1
    second = capsys.readouterr().out
    assert first == second  # byte-stable across runs

    payload = json.loads(first)
    assert payload["version"] == 1
    assert payload["failed"] is True
    assert payload["parse_errors"] == []
    assert payload["files_scanned"] >= len(list(FIXTURES.glob("*.py")))
    assert payload["counts"]["DET001"] >= 6
    finding = payload["findings"][0]
    assert set(finding) == {
        "file", "line", "col", "rule", "severity", "message", "hint",
    }
    keys = [(f["file"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_select_single_rule(capsys) -> None:
    assert main([str(FIXTURES), "--select", "POOL002", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["counts"]) == {"POOL002"}


def test_select_warning_only_rule_exits_zero(capsys) -> None:
    # POOL003 is WARNING severity: findings are reported, exit stays 0
    assert main([str(FIXTURES), "--select", "POOL003"]) == 0
    out = capsys.readouterr().out
    assert "POOL003" in out and "0 error(s)" in out


def test_select_unknown_rule_is_usage_error(capsys) -> None:
    assert main([str(FIXTURES), "--select", "BOGUS9"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err
    # the error lists the valid catalog so the fix is one copy-paste away
    assert "DET001" in err and "ASY003" in err


def test_select_empty_spec_is_usage_error(capsys) -> None:
    assert main([str(FIXTURES), "--select", ","]) == 2
    err = capsys.readouterr().err
    assert "no rule ids" in err and "DET001" in err


def test_cold_lint_never_starts_a_thread(monkeypatch) -> None:
    """Phase 1 parses on the calling thread: concurrent ``ast.parse``
    races CPython 3.11's AST recursion-depth bookkeeping."""

    def refuse(self) -> None:
        raise AssertionError(f"lint started a thread: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = lint_paths([REPO / "src" / "repro"])
    assert report.files_scanned > 1
    assert report.cache_hits == 0 and not report.parse_errors
    assert not report.failed


def test_update_baseline_without_baseline_is_usage_error(capsys) -> None:
    assert main([str(FIXTURES), "--update-baseline"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_unreadable_baseline_is_usage_error(tmp_path, capsys) -> None:
    bad = tmp_path / "baseline.json"
    bad.write_text("not json")
    assert main([str(FIXTURES), "--baseline", str(bad)]) == 2
    assert "baseline" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys) -> None:
    assert main([str(FIXTURES / "does_not_exist")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_catalog(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET004", "POOL001", "INV003", "LNT001"):
        assert rule_id in out


def test_suppressed_file_is_clean(capsys) -> None:
    assert main([str(FIXTURES / "suppressed_clean.py")]) == 0


def test_unparseable_file_fails(tmp_path, capsys) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert main([str(bad)]) == 1
    assert "parse error" in capsys.readouterr().out


def test_default_path_is_src_repro(capsys, monkeypatch) -> None:
    monkeypatch.chdir(REPO)
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_sarif_output_is_valid_and_stable(capsys) -> None:
    assert main([str(FIXTURES), "--format", "sarif"]) == 1
    first = capsys.readouterr().out
    assert main([str(FIXTURES), "--format", "sarif"]) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert results and all("ruleId" in r for r in results)


def test_baseline_workflow_roundtrip(tmp_path, capsys) -> None:
    fixture = FIXTURES / "asy003_transitive_blocking.py"
    baseline = tmp_path / "lint-baseline.json"
    # record the current findings...
    assert main([str(fixture), "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()
    # ...then a run against the baseline reports nothing new
    assert main([str(fixture), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "(1 baselined)" in out and "0 warning(s)" in out
    # without the baseline the finding is still reported
    assert main([str(fixture), "--format", "json"]) == 0  # warning severity
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"ASY003": 1}


def test_cache_dir_flag_runs_warm(tmp_path, capsys) -> None:
    cache = tmp_path / "cache"
    assert main([str(CLEAN), "--cache-dir", str(cache), "--stats"]) == 0
    first = capsys.readouterr()
    assert "0 hit(s)" in first.err
    assert main([str(CLEAN), "--cache-dir", str(cache), "--stats"]) == 0
    second = capsys.readouterr()
    assert "0 file(s) re-parsed" in second.err
    assert first.out == second.out  # cache never changes the verdict


def test_harness_dispatch() -> None:
    """``python -m repro.harness lint`` reaches the lint CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness", "lint", str(CLEAN)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout
