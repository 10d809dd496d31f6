"""Lint engine: two-phase whole-program analysis with incremental reuse.

Phase 1 parses each file once, runs the per-file rules, and extracts a
:class:`~repro.lint.project.FileSummary`; with a cache directory, files
whose bytes are unchanged skip this phase entirely (their summaries and
findings come from disk).  Phase 2 joins every summary into the
:class:`~repro.lint.project.ProjectIndex`, builds the call graph, runs
the effect fixpoint, and evaluates the whole-program rules — always
recomputed, so an edit to one helper updates transitive findings in
files that were never re-parsed.

The engine is deterministic end to end: files are discovered in sorted
order, findings are sorted by ``(file, line, col, rule)``, and the JSON
form has stable key order — so CI diffs and golden tests are exact, and
a warm run's JSON output is byte-identical to a cold run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .cache import AnalysisCache, file_digest
from .context import ModuleUnderLint
from .effects import analyze
from .findings import LintFinding, Severity
from .project import FileSummary, ProjectIndex, summarize
from .registry import ProjectRule, Rule, select_rules


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run.

    ``cache_hits``/``files_reparsed`` are run diagnostics, deliberately
    excluded from :meth:`as_dict`: JSON output must be byte-identical
    between a cold and a warm run over identical sources.
    """

    findings: tuple[LintFinding, ...]
    files_scanned: int
    parse_errors: tuple[str, ...] = field(default=())
    cache_hits: int = 0
    files_reparsed: int = 0

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


@dataclass
class _FileResult:
    """Phase-1 outcome for one file, cached or freshly parsed."""

    display: str
    sha256: str
    summary: FileSummary | None
    findings: tuple[LintFinding, ...]
    parse_error: str | None
    from_cache: bool


def _split_rules(
    rules: tuple[Rule, ...]
) -> tuple[tuple[Rule, ...], tuple[ProjectRule, ...]]:
    file_rules = tuple(r for r in rules if not isinstance(r, ProjectRule))
    project_rules = tuple(r for r in rules if isinstance(r, ProjectRule))
    return file_rules, project_rules


def _parse_one(
    path: Path,
    display: str,
    sha256: str,
    source: str,
    file_rules: tuple[Rule, ...],
) -> _FileResult:
    """Parse, run the per-file rules, and summarize one file."""
    try:
        mod = ModuleUnderLint(path, display, source)
    except SyntaxError as exc:
        return _FileResult(display, sha256, None, (), f"{display}: {exc}", False)
    findings: list[LintFinding] = []
    for rule in file_rules:
        for finding in rule.check(mod):
            if not mod.suppressed(finding.rule, finding.line):
                findings.append(finding)
    summary = summarize(mod, sha256, findings)
    return _FileResult(display, sha256, summary, tuple(findings), None, False)


def _phase1(
    files: list[Path],
    file_rules: tuple[Rule, ...],
    cache: AnalysisCache | None,
) -> tuple[list[_FileResult], list[str]]:
    """Per-file results in discovery order, plus I/O errors.

    Parsing stays on the calling thread: it is CPU-bound under the GIL,
    and CPython 3.11's AST constructor is not safe to run concurrently.
    """
    io_errors: list[str] = []
    results: list[_FileResult] = []
    for path in files:
        display = _display_path(path)
        try:
            data = path.read_bytes()
            source = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            io_errors.append(f"{display}: {exc}")
            continue
        sha256 = file_digest(data)
        entry = cache.lookup(display, sha256) if cache is not None else None
        if entry is not None:
            findings = entry.summary.findings if entry.summary else ()
            results.append(
                _FileResult(
                    display, sha256, entry.summary, findings, entry.parse_error, True
                )
            )
            continue
        result = _parse_one(path, display, sha256, source, file_rules)
        results.append(result)
        if cache is not None:
            cache.store(display, sha256, result.summary, result.parse_error)
    return results, io_errors


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


def lint_file(
    path: Path, rules: tuple[Rule, ...]
) -> tuple[list[LintFinding], str | None]:
    """Lint one file in isolation (single-file project scope).

    Whole-program rules still run — over an index containing just this
    file — which is what the fixture harness exercises.
    """
    display = _display_path(path)
    file_rules, project_rules = _split_rules(rules)
    try:
        data = path.read_bytes()
        source = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [], f"{display}: {exc}"
    result = _parse_one(path, display, file_digest(data), source, file_rules)
    if result.parse_error is not None or result.summary is None:
        return [], result.parse_error
    findings = list(result.findings)
    findings.extend(_phase2([result.summary], project_rules))
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings, None


def lint_paths(
    paths: Iterable[Path],
    select: Callable[[str], bool] | None = None,
    cache_dir: Path | None = None,
) -> LintReport:
    """Lint every python file under ``paths`` with the selected rules.

    With ``cache_dir``, unchanged files are served from the incremental
    cache (phase 1 is skipped for them) and the cache is rewritten at
    the end; findings are identical to a cold run by construction.
    """
    rules = select_rules(select)
    file_rules, project_rules = _split_rules(rules)
    cache = (
        AnalysisCache.open(cache_dir, rules) if cache_dir is not None else None
    )
    files = list(iter_python_files(paths))
    results, io_errors = _phase1(files, file_rules, cache)

    findings: list[LintFinding] = []
    parse_errors: list[str] = list(io_errors)
    summaries: list[FileSummary] = []
    for result in results:
        findings.extend(result.findings)
        if result.parse_error is not None:
            parse_errors.append(result.parse_error)
        if result.summary is not None:
            summaries.append(result.summary)
    findings.extend(_phase2(summaries, project_rules))

    if cache is not None:
        cache.save()

    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        parse_errors=tuple(parse_errors),
        cache_hits=sum(1 for r in results if r.from_cache),
        files_reparsed=sum(1 for r in results if not r.from_cache),
    )
