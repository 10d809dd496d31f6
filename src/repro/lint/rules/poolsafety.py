"""Pool-safety rules (POOL001–POOL003).

``ProcessPoolBackend`` pickles every run spec to worker processes and
pickles results back.  Lambdas, locally-defined classes, and open
handles do not pickle; module-level mutable state pickles but then
*diverges* — each worker mutates its own copy, so results depend on
which worker executed which chunk.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import SPEC_FACTORY_NAMES, ModuleUnderLint, tail_name
from ..findings import LintFinding, Severity
from ..registry import Rule, register

#: driver-side packages exempt from module-state checks (the harness
#: registry is an intentional import-time singleton, never pickled)
_POOL_EXEMPT_PACKAGES: tuple[str, ...] = ("repro.harness",)

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


@register
class LambdaInSpecRule(Rule):
    """POOL001: a lambda stored in a spec/protocol-factory field raises
    ``PicklingError`` the moment the ensemble is dispatched to
    ``ProcessPoolBackend`` — and only then, far from the definition."""

    id = "POOL001"
    summary = "lambda passed into a picklable spec/protocol factory"
    hint = (
        "replace the lambda with a module-level function or a frozen "
        "dataclass factory (see UniformProtocol) so the spec pickles"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = tail_name(node.func)
            if name not in SPEC_FACTORY_NAMES:
                continue
            args: list[ast.expr] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            for arg in args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        yield self.finding(
                            mod,
                            sub.lineno,
                            sub.col_offset,
                            f"lambda passed to {name}() will not pickle "
                            "for ProcessPoolBackend",
                        )


@register
class ModuleMutableStateRule(Rule):
    """POOL002: module-level mutable containers (and functions declaring
    ``global``) fork into independent copies in every pool worker;
    writes from worker code paths silently diverge across processes."""

    id = "POOL002"
    summary = "module-level mutable state / global statement"
    hint = (
        "thread state through the spec or return values; if a "
        "driver-side singleton is intended, name it ALL_CAPS or add a "
        "lint-ok suppression stating it is never written from workers"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if mod.in_packages(_POOL_EXEMPT_PACKAGES):
            return
        for stmt in mod.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable_literal(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.isupper()
                    # dunders (__all__ etc.) are import-time constants
                    and not (
                        target.id.startswith("__") and target.id.endswith("__")
                    )
                ):
                    yield self.finding(
                        mod,
                        stmt.lineno,
                        stmt.col_offset,
                        f"module-level mutable container {target.id!r} "
                        "diverges across pool workers",
                    )
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    mod,
                    node.lineno,
                    node.col_offset,
                    f"global statement rebinding {', '.join(node.names)} "
                    "is per-process state",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = tail_name(node.func)
            return name in _MUTABLE_FACTORIES and not node.args and not node.keywords
        return False


@register
class LocalClassRule(Rule):
    """POOL003: instances of a class defined inside a function cannot be
    pickled (pickle resolves classes by qualified module path), so such
    instances must never end up in run results or specs.  WARNING
    severity: local classes are fine when instances stay local."""

    id = "POOL003"
    summary = "class defined inside a function (unpicklable instances)"
    severity = Severity.WARNING
    hint = (
        "move the class to module level if its instances can reach a "
        "spec, a run result, or the cache"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        functions = [
            (node.lineno, node.end_lineno or node.lineno, node.name)
            for node in ast.walk(mod.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            enclosing = [
                (last - first, name)
                for first, last, name in functions
                if first <= node.lineno <= last
            ]
            if enclosing:
                _, name = min(enclosing)
                yield self.finding(
                    mod,
                    node.lineno,
                    node.col_offset,
                    f"class {node.name!r} defined inside function "
                    f"{name!r} has unpicklable instances",
                )
