"""Structured lint results.

A :class:`LintFinding` is one violation at one source location, tagged
with the rule that produced it, the rule's severity, and a fix hint.
Findings are plain frozen dataclasses so they sort deterministically,
compare by value in tests, and encode to stable JSON for CI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """Per-rule severity.

    ``ERROR`` findings fail the lint run (exit 1); ``WARNING`` findings
    are reported but do not affect the exit code on their own.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class LintFinding:
    """One rule violation at one source location."""

    #: path of the offending file, as given to the engine (posix-style)
    file: str
    #: 1-based source line of the offending node
    line: int
    #: 0-based column of the offending node
    col: int
    #: rule identifier, e.g. ``"DET001"``
    rule: str
    #: the rule's severity at report time
    severity: Severity
    #: what is wrong, concretely (mentions the offending name when known)
    message: str
    #: how to fix it (the rule's general remediation)
    hint: str

    def render(self) -> str:
        """The one-line human-readable form: ``file:line:col: RULE message``."""
        return (
            f"{self.file}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe dict form (stable key order by construction)."""
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
        }
