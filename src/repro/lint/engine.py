"""Lint engine: two-phase whole-program analysis.

Phase 1 parses each file once, runs the per-file rules, and extracts a
:class:`~repro.lint.project.FileSummary`.  Phase 2 joins every summary
into the :class:`~repro.lint.project.ProjectIndex`, builds the call
graph, runs the effect fixpoint, and evaluates the whole-program rules
— so a blocking or entropy-tainted helper in one file is reported at
its callers in another.

The engine is deterministic end to end: files are discovered in sorted
order, findings are sorted by ``(file, line, col, rule)``, and the JSON
form has stable key order — so CI diffs and golden tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .context import ModuleUnderLint
from .effects import analyze
from .findings import LintFinding, Severity
from .project import FileSummary, ProjectIndex, summarize
from .registry import ProjectRule, Rule, select_rules


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run."""

    findings: tuple[LintFinding, ...]
    files_scanned: int
    parse_errors: tuple[str, ...] = field(default=())

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def failed(self) -> bool:
        """Exit-1 condition: any ERROR finding or unparseable file."""
        return bool(self.errors) or bool(self.parse_errors)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    def as_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "failed": self.failed,
            "counts": self.counts(),
            "parse_errors": list(self.parse_errors),
            "findings": [f.as_dict() for f in self.findings],
        }


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under the given paths, in sorted order."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass(frozen=True)
class _FileResult:
    """Phase-1 outcome for one file."""

    summary: FileSummary | None
    findings: tuple[LintFinding, ...]
    parse_error: str | None


def _split_rules(
    rules: tuple[Rule, ...]
) -> tuple[tuple[Rule, ...], tuple[ProjectRule, ...]]:
    file_rules = tuple(r for r in rules if not isinstance(r, ProjectRule))
    project_rules = tuple(r for r in rules if isinstance(r, ProjectRule))
    return file_rules, project_rules


def _parse_one(
    path: Path,
    display: str,
    source: str,
    file_rules: tuple[Rule, ...],
) -> _FileResult:
    """Parse, run the per-file rules, and summarize one file."""
    try:
        mod = ModuleUnderLint(path, display, source)
    except SyntaxError as exc:
        return _FileResult(None, (), f"{display}: {exc}")
    findings: list[LintFinding] = []
    for rule in file_rules:
        for finding in rule.check(mod):
            if not mod.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return _FileResult(summarize(mod), tuple(findings), None)


def _phase2(
    summaries: list[FileSummary], project_rules: tuple[ProjectRule, ...]
) -> list[LintFinding]:
    """Whole-program findings, suppression-filtered via the summaries."""
    if not project_rules or not summaries:
        return []
    index = ProjectIndex.build(summaries)
    effects = analyze(index)
    by_path = {s.display_path: s for s in summaries}
    findings: list[LintFinding] = []
    for rule in project_rules:
        for finding in rule.check_project(index, effects):
            summary = by_path.get(finding.file)
            if summary is not None and summary.suppressed(
                finding.rule, finding.line
            ):
                continue
            findings.append(finding)
    return findings


def lint_paths(
    paths: Iterable[Path],
    select: Callable[[str], bool] | None = None,
) -> LintReport:
    """Lint every python file under ``paths`` with the selected rules.

    Parsing stays on the calling thread: it is CPU-bound under the GIL,
    and CPython 3.11's AST constructor is not safe to run concurrently.
    Unreadable files are reported before files with syntax errors.
    """
    file_rules, project_rules = _split_rules(select_rules(select))
    files = list(iter_python_files(paths))
    findings: list[LintFinding] = []
    io_errors: list[str] = []
    syntax_errors: list[str] = []
    summaries: list[FileSummary] = []
    for path in files:
        display = _display_path(path)
        try:
            source = path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            io_errors.append(f"{display}: {exc}")
            continue
        result = _parse_one(path, display, source, file_rules)
        findings.extend(result.findings)
        if result.parse_error is not None:
            syntax_errors.append(result.parse_error)
        if result.summary is not None:
            summaries.append(result.summary)
    findings.extend(_phase2(summaries, project_rules))

    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        parse_errors=tuple(io_errors + syntax_errors),
    )
