"""Model-invariant rules (INV001–INV004).

``Run``/``History``/``System`` are value objects: the epistemic kernel
caches per-run prefixes, point positions and equivalence-class tables,
all on the assumption that a constructed model object never changes.  A post-construction write invalidates those caches
without invalidating the answers already derived from them.  The
columnar arena buffers extend the same contract across process
boundaries: their bytes are shared (or re-materialised bit-identically)
between driver and pool workers, so a write outside ``repro.columnar``
silently forks the two views.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleUnderLint
from ..findings import LintFinding
from ..registry import Rule, register

#: packages whose private attributes are construction-only
_MODEL_PACKAGES: tuple[str, ...] = ("repro.model", "repro.knowledge")

#: kernel-internal tables that only the kernel modules may touch
KERNEL_INTERNAL_ATTRS = frozenset(
    {
        "_run_pos",
        "_run_value_pos",
        "_prefixes",
        "_timelines",
    }
)

#: modules allowed to build/fill the kernel tables
KERNEL_MODULES = frozenset(
    {
        "repro.model.system",
        "repro.model.history",
        "repro.model.run",
        "repro.knowledge.semantics",
        "repro.knowledge.group",
    }
)

#: columnar arena / kernel column buffers — immutable outside repro.columnar
ARENA_BUFFER_ATTRS = frozenset(
    {
        "run_durations",
        "tl_offsets",
        "tl_times",
        "tl_events",
        "crash_mask_rows",
        "point_class_rows",
        "class_points_csr",
        "class_offsets_csr",
        "class_sizes",
        "known_masks",
    }
)

#: the only package allowed to fill or rebind arena buffers
_ARENA_PACKAGES: tuple[str, ...] = ("repro.columnar",)

#: methods in which object.__setattr__ is construction, not mutation
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__setstate__", "__reduce__"}
)


def _attr_root(node: ast.expr) -> ast.expr:
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    return cur


def _root_is_self(node: ast.expr) -> bool:
    root = _attr_root(node)
    return isinstance(root, ast.Name) and root.id in {"self", "cls"}


def _new_bound_names(tree: ast.Module) -> set[str]:
    """Names assigned from ``SomeClass.__new__(...)`` anywhere in the file.

    Persistent structures (History) allocate with ``__new__`` and fill
    private slots before the object escapes; those writes are
    construction, not mutation.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "__new__"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _spine_attributes(target: ast.expr) -> Iterator[ast.Attribute]:
    """Attributes on the *assignment spine* of a target.

    For ``a._x[k]._y = v`` yields ``._y`` then ``._x`` but never the
    attribute reads inside subscript indices (those are loads, e.g.
    ``d[obj._key] = v`` does not write ``._key``).
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _spine_attributes(elt)
        return
    if isinstance(target, ast.Starred):
        yield from _spine_attributes(target.value)
        return
    cur: ast.expr = target
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            yield cur
        cur = cur.value


def _store_attributes(stmt: ast.stmt) -> Iterator[ast.Attribute]:
    """Attribute nodes written to by an assignment statement."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        yield from _spine_attributes(target)


@register
class ForeignPrivateWriteRule(Rule):
    """INV001: writing another object's underscore attribute mutates it
    after construction, bypassing both ``frozen=True`` conventions and
    the kernel's cache-validity assumptions."""

    id = "INV001"
    summary = "write to another object's private attribute"
    hint = (
        "construct a new object instead of mutating; construction-time "
        "slot fills belong next to the __new__ call in the owning class"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if not mod.in_packages(_MODEL_PACKAGES):
            return
        new_bound = _new_bound_names(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
            ):
                continue
            for attr in _store_attributes(node):
                if not attr.attr.startswith("_") or attr.attr.startswith("__"):
                    continue
                if _root_is_self(attr):
                    continue
                root = _attr_root(attr)
                if isinstance(root, ast.Name) and root.id in new_bound:
                    continue  # filling slots on a __new__-allocated object
                yield self.finding(
                    mod,
                    attr.lineno,
                    attr.col_offset,
                    f"post-construction write to foreign private "
                    f"attribute .{attr.attr}",
                )


@register
class KernelTableWriteRule(Rule):
    """INV002: the kernel's cached tables (run positions, per-run
    prefixes and timelines, the model checker's foreign-run ids) are
    owned by the kernel modules; any outside write desynchronises a
    cache from the answers already derived through it."""

    id = "INV002"
    summary = "write to a kernel-internal table outside the kernel"
    hint = (
        "use the public System/ModelChecker API (restrict/union/Knows); "
        "kernel tables are rebuilt, never edited"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if mod.module in KERNEL_MODULES:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
            ):
                continue
            for attr in _store_attributes(node):
                if attr.attr in KERNEL_INTERNAL_ATTRS and not _root_is_self(attr):
                    yield self.finding(
                        mod,
                        attr.lineno,
                        attr.col_offset,
                        f"write to kernel-internal table .{attr.attr} "
                        f"outside {', '.join(sorted(KERNEL_MODULES)[:1])}...",
                    )


@register
class ArenaBufferWriteRule(Rule):
    """INV004: arena buffers (``RunArena`` columns and the columnar
    kernel's class tables) are frozen after construction — workers and
    the driver share their bytes, and cache entries re-materialise them
    bit-identically.  A write outside ``repro.columnar`` forks the
    driver's view from the workers' without either side noticing."""

    id = "INV004"
    summary = "write to an arena buffer outside repro.columnar"
    hint = (
        "arena buffers are immutable; re-encode with "
        "repro.columnar.encode_runs instead of editing columns in place"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if mod.in_packages(_ARENA_PACKAGES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
            ):
                continue
            for attr in _store_attributes(node):
                if attr.attr not in ARENA_BUFFER_ATTRS:
                    continue
                yield self.finding(
                    mod,
                    attr.lineno,
                    attr.col_offset,
                    f"write to arena buffer .{attr.attr} outside "
                    "repro.columnar",
                )


@register
class SetattrEscapeRule(Rule):
    """INV003: ``object.__setattr__`` outside a constructor is the
    canonical way to mutate a frozen dataclass — exactly what frozen
    was meant to prevent.  Memoisation caches that genuinely need it
    must carry an audited suppression."""

    id = "INV003"
    summary = "object.__setattr__ outside construction"
    hint = (
        "mutate only in __init__/__post_init__/__setstate__; for "
        "memoisation on frozen objects, document the cache write with "
        "a lint-ok suppression"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        functions = [
            (node.lineno, node.end_lineno or node.lineno, node.name)
            for node in ast.walk(mod.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in {"__setattr__", "__delattr__"}
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            enclosing = [
                (last - first, name)
                for first, last, name in functions
                if first <= node.lineno <= last
            ]
            if enclosing and min(enclosing)[1] in _CONSTRUCTION_METHODS:
                continue
            where = min(enclosing)[1] if enclosing else "module scope"
            yield self.finding(
                mod,
                node.lineno,
                node.col_offset,
                f"object.{func.attr} in {where!r} mutates a frozen "
                "object after construction",
            )
