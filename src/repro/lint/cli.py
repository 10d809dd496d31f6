"""``python -m repro.harness lint`` — the CLI front end.

Exit codes, kept strict so CI can tell failure modes apart:

- **0** — clean (no error findings, no parse errors)
- **1** — findings: the lint ran to completion and found violations
- **2** — usage or internal error: bad flags, unknown rule ids, missing
  paths, or an analyzer crash — the run's verdict means nothing and CI
  must not treat it as either clean or dirty
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .engine import LintReport, lint_paths
from .registry import all_rules, known_rule_ids


class UsageError(Exception):
    """A condition that must exit 2, with a message for stderr."""


def _default_paths() -> list[Path]:
    """Prefer ``src/repro`` relative to the CWD; fall back to the
    installed package location so the command works from anywhere."""
    local = Path("src") / "repro"
    if local.is_dir():
        return [local]
    import repro

    pkg_file = repro.__file__
    if pkg_file is None:  # pragma: no cover - namespace-package edge
        raise UsageError("cannot locate the repro package to lint")
    return [Path(pkg_file).parent]


def _make_selector(spec: str) -> Callable[[str], bool]:
    wanted = {part.strip().upper() for part in spec.split(",") if part.strip()}
    valid = ", ".join(sorted(known_rule_ids()))
    if not wanted:
        raise UsageError(
            f"--select got no rule ids; valid rule ids: {valid}"
        )
    unknown = wanted - known_rule_ids()
    if unknown:
        raise UsageError(
            f"unknown rule id(s) in --select: {', '.join(sorted(unknown))}; "
            f"valid rule ids: {valid}"
        )
    return lambda rule_id: rule_id in wanted


def _render_text(report: LintReport) -> str:
    lines = [finding.render() for finding in report.findings]
    lines.extend(f"parse error: {err}" for err in report.parse_errors)
    counts = report.counts()
    summary = (
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s) "
        f"in {report.files_scanned} file(s)"
    )
    if counts:
        summary += (
            " [" + ", ".join(f"{rid}:{n}" for rid, n in counts.items()) + "]"
        )
    lines.append(summary)
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness lint",
        description=(
            "whole-program determinism / async-safety / pool-safety "
            "static analysis for repro protocols and runtime"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE,...",
        help="only run the named rules (comma-separated ids)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (and 0 on --help); normalise
        # to an int return so callers can compose us
        return exc.code if isinstance(exc.code, int) else 2

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity.value:7}] {rule.summary}")
        return 0

    try:
        return _run(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # internal analyzer failure: never exit 0/1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    selector = _make_selector(args.select) if args.select else None
    paths = list(args.paths) or _default_paths()
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise UsageError(f"no such path: {', '.join(missing)}")

    report = lint_paths(paths, selector)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=False))
    else:
        print(_render_text(report))
    return 1 if report.failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
