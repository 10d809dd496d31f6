"""Fixture-driven tests for every repro.lint rule.

Each known-bad fixture under ``tests/fixtures/lint/`` marks its
violations with ``expect: RULE`` inside a comment; the test lints the
fixture and requires the findings to match the markers *exactly* —
same rule ids, same line numbers, nothing extra.  That proves both
directions: every shipped rule fires on its known-bad input, and the
rules stay quiet on the adjacent known-good code in the same file.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import (
    LintFinding,
    ModuleUnderLint,
    Severity,
    known_rule_ids,
    lint_paths,
)
from repro.lint.context import module_name_for_path

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

_EXPECT_RE = re.compile(r"expect:\s*([A-Z]+[0-9]+)")

FIXTURE_FILES = sorted(p.name for p in FIXTURES.glob("*.py"))


def expected_findings(path: Path) -> set[tuple[int, str]]:
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for rule in _EXPECT_RE.findall(line):
            out.add((lineno, rule))
    return out


def actual_findings(path: Path) -> list[LintFinding]:
    report = lint_paths([path])
    assert not report.parse_errors, report.parse_errors
    return list(report.findings)


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_findings_match_expect_markers(name: str) -> None:
    path = FIXTURES / name
    expected = expected_findings(path)
    actual = {(f.line, f.rule) for f in actual_findings(path)}
    assert actual == expected, (
        f"{name}: findings {sorted(actual)} != expected {sorted(expected)}"
    )


def test_every_rule_has_a_known_bad_fixture() -> None:
    """Acceptance criterion: each shipped rule is demonstrated by at
    least one fixture that the suite asserts it flags."""
    demonstrated: set[str] = set()
    for name in FIXTURE_FILES:
        demonstrated |= {rule for _, rule in expected_findings(FIXTURES / name)}
    assert demonstrated == set(known_rule_ids())


def test_expect_markers_name_real_rules() -> None:
    for name in FIXTURE_FILES:
        for _, rule in expected_findings(FIXTURES / name):
            assert rule in known_rule_ids(), f"{name} expects unknown {rule}"


def test_findings_carry_location_severity_and_hint() -> None:
    findings = actual_findings(FIXTURES / "det001_unseeded_random.py")
    assert findings, "expected DET001 findings"
    for finding in findings:
        assert finding.rule == "DET001"
        assert finding.severity is Severity.ERROR
        assert finding.line > 0 and finding.col >= 0
        assert "random" in finding.message
        assert finding.hint
        rendered = finding.render()
        assert rendered.startswith(finding.file)
        assert f":{finding.line}:" in rendered
        assert "DET001" in rendered


def test_pool003_is_warning_severity() -> None:
    findings = actual_findings(FIXTURES / "pool003_local_class.py")
    assert findings and all(f.severity is Severity.WARNING for f in findings)


def test_suppressions_silence_real_violations() -> None:
    assert actual_findings(FIXTURES / "suppressed_clean.py") == []


def test_clean_fixture_has_no_findings() -> None:
    assert actual_findings(FIXTURES / "clean" / "ok_module.py") == []


def test_protocol_class_scoping() -> None:
    """DET rules reach Protocol classes outside the DET packages, and
    only the class bodies — the module-level helper stays unflagged."""
    path = FIXTURES / "det_scope_protocol_class.py"
    mod = ModuleUnderLint(path, str(path), path.read_text())
    assert mod.module is None  # no lint-module override, outside repro
    assert len(mod.protocol_class_ranges) == 2  # base + in-file subclass
    lines = {f.line for f in actual_findings(path)}
    source_lines = path.read_text().splitlines()
    helper_line = next(
        i for i, text in enumerate(source_lines, start=1) if "driver_helper" in text
    )
    assert all(line > helper_line for line in lines)


def test_module_name_for_path() -> None:
    assert (
        module_name_for_path(Path("/x/src/repro/model/system.py"))
        == "repro.model.system"
    )
    assert module_name_for_path(Path("/x/src/repro/model/__init__.py")) == (
        "repro.model"
    )
    assert module_name_for_path(Path("/x/elsewhere/file.py")) is None


def test_lint_paths_is_deterministic_and_sorted() -> None:
    first = lint_paths([FIXTURES])
    second = lint_paths([FIXTURES])
    assert first.findings == second.findings
    assert first.as_dict() == second.as_dict()
    keys = [(f.file, f.line, f.col, f.rule) for f in first.findings]
    assert keys == sorted(keys)
    assert first.failed and first.errors


def test_select_restricts_rules() -> None:
    report = lint_paths([FIXTURES], select=lambda rid: rid == "DET001")
    assert report.findings and all(f.rule == "DET001" for f in report.findings)


def test_source_tree_is_lint_clean() -> None:
    """The analyzer's own contract with this repository: src/repro is
    clean (all remaining sites carry audited suppressions)."""
    src = Path(__file__).parent.parent / "src" / "repro"
    report = lint_paths([src])
    assert not report.parse_errors
    assert report.findings == (), "\n".join(
        f.render() for f in report.findings
    )
