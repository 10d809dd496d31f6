"""repro.lint — whole-program determinism & pool-safety static analysis.

AST-based (stdlib only) rules that enforce, *before a run executes*,
the invariants the rest of the stack enforces dynamically: replay
determinism (DET*), process-pool picklability (POOL*), model-object
immutability (INV*), and event-loop safety (ASY*).  The engine runs in
two phases: per-file rules over each parsed module, then whole-program
rules (ASY003, DET007, POOL004) over the joined
:class:`~repro.lint.project.ProjectIndex`, its call graph, and the
effect fixpoint — so violations hidden behind helper functions are
still caught.  See DESIGN.md §11 for the rule catalog and §16 for the
whole-program analysis.

Entry points: ``python -m repro.harness lint`` (or ``python -m
repro.lint``) and :func:`repro.lint.engine.lint_paths`.
"""

from .context import ModuleUnderLint, Suppression
from .engine import LintReport, lint_paths
from .findings import LintFinding, Severity
from .project import FileSummary, ProjectIndex
from .registry import ProjectRule, Rule, all_rules, known_rule_ids, register

__all__ = [
    "FileSummary",
    "LintFinding",
    "LintReport",
    "ModuleUnderLint",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "known_rule_ids",
    "lint_paths",
    "register",
]
