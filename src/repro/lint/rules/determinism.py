"""Determinism rules (DET001–DET006).

Replay, the content-addressed run cache, and the explorer's coordinate
replay all assume that a (protocol, seed, crash plan) triple yields a
bit-identical run.  Anything that injects ambient state — the global
RNG, the wall clock, OS entropy, set iteration order, or object
identity — silently breaks that contract, which in turn corrupts the
run set the epistemic kernel evaluates ``Knows``/``C_G`` over.

Scope: these rules fire in the deterministic packages
(:data:`DET_PACKAGES`) and inside any class implementing the Protocol
interface wherever it lives.  ``repro.runtime``/``repro.faults``/
``repro.harness`` are driver-side and exempt (they may time out, retry,
and log wall-clock freely).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..context import ModuleUnderLint, classify_call, tail_name
from ..findings import LintFinding
from ..registry import Rule, register

#: builtins that consume an iterable order-insensitively (or sort it)
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)


def _scoped(mod: ModuleUnderLint, node: ast.AST) -> bool:
    """Is this node inside the determinism scope?"""
    return mod.in_det_packages or mod.in_protocol_class(node)


def _scoped_effects(mod: ModuleUnderLint) -> Iterator[tuple[ast.Call, str, str]]:
    """Every classified call in scope, as ``(call, effect, origin)``."""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and _scoped(mod, node):
            classified = classify_call(mod.aliases, node)
            if classified is not None:
                effect, origin = classified
                yield node, effect, origin


def _global_random(origin: str) -> bool:
    """DET001's share of the entropy catalog: the random module's
    global API and its unseeded ``Random()`` (``SystemRandom`` is
    DET003's)."""
    return origin.startswith("random.") and origin != "random.SystemRandom"


@register
class UnseededRandomRule(Rule):
    """DET001: the module-level ``random.*`` API shares one global,
    ambiently-seeded RNG; two runs interleaved in one process perturb
    each other's streams and replay diverges."""

    id = "DET001"
    summary = "call into the global random module (unseeded RNG)"
    hint = (
        "draw from a seeded random.Random instance carried by the run "
        "(e.g. Executor.rng), never the random module's global functions"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        for call, effect, origin in _scoped_effects(mod):
            if effect != "entropy" or not _global_random(origin):
                continue
            yield self.finding(
                mod,
                call.lineno,
                call.col_offset,
                "random.Random() constructed without a seed"
                if origin == "random.Random"
                else f"call to global {origin}()",
            )


@register
class WallClockRule(Rule):
    """DET002: wall-clock reads differ across replays and across
    workers, so any value derived from them poisons run content and
    cache digests.  ``time.perf_counter``/``time.monotonic`` are left
    alone: the executor's cooperative deadline uses them and they never
    enter run content."""

    id = "DET002"
    summary = "wall-clock read (time.time / datetime.now / ...)"
    hint = (
        "model time with the simulated tick counter; wall-clock values "
        "must never reach run content (driver-side timing belongs in "
        "repro.runtime)"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        for call, effect, origin in _scoped_effects(mod):
            if effect == "wall-clock":
                yield self.finding(
                    mod,
                    call.lineno,
                    call.col_offset,
                    f"wall-clock call {origin}()",
                )


@register
class AmbientEntropyRule(Rule):
    """DET003: OS entropy (``os.urandom``, ``uuid4``, ``secrets``) is
    unreplayable by construction — there is no seed to record."""

    id = "DET003"
    summary = "ambient entropy source (os.urandom / uuid4 / secrets)"
    hint = (
        "derive identifiers and randomness from the run's seeded RNG or "
        "from content hashes of deterministic state"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        for call, effect, origin in _scoped_effects(mod):
            if effect == "entropy" and not _global_random(origin):
                yield self.finding(
                    mod,
                    call.lineno,
                    call.col_offset,
                    f"ambient entropy call {origin}()",
                )


class _SetishIndex:
    """Best-effort inference of which expressions/names are bare sets."""

    def __init__(self, tree: ast.Module) -> None:
        self.set_names: set[str] = set()
        unset: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if self._is_setish_expr(node.value):
                            self.set_names.add(target.id)
                        else:
                            unset.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._is_set_annotation(node.annotation):
                    self.set_names.add(node.target.id)
                else:
                    unset.add(node.target.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if self._is_set_annotation(node.annotation):
                    self.set_names.add(node.arg)
        # A name ever bound to a non-set value is ambiguous: stay quiet.
        self.set_names -= unset

    @staticmethod
    def _is_setish_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        return False

    @staticmethod
    def _is_set_annotation(node: ast.expr) -> bool:
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}
        if isinstance(target, ast.Attribute):
            return target.attr in {"Set", "FrozenSet", "AbstractSet"}
        return False

    def is_setish(self, node: ast.expr) -> bool:
        if self._is_setish_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.set_names


@register
class SetIterationRule(Rule):
    """DET004: set iteration order depends on insertion history and the
    per-process hash state, so iterating a bare set leaks
    nondeterministic order into traces, digests, and message schedules.
    Order-insensitive consumers (``sorted``/``min``/``len``/...) are
    exempt."""

    id = "DET004"
    summary = "iteration over a bare set (nondeterministic order)"
    hint = (
        "wrap the set in sorted(...) before iterating, or keep the "
        "collection as a list/tuple when order matters"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        index = _SetishIndex(mod.tree)
        safe_iters: set[int] = set()
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SAFE_CALLS
            ):
                for arg in node.args:
                    safe_iters.add(id(arg))
                    # ``sum(f(x) for x in s)`` consumes the *comprehension*
                    # order-insensitively, so its generators are safe too
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        for gen in arg.generators:
                            safe_iters.add(id(gen.iter))

        def flag(expr: ast.expr, what: str) -> Iterator[LintFinding]:
            if id(expr) in safe_iters:
                return
            if index.is_setish(expr):
                yield self.finding(
                    mod,
                    expr.lineno,
                    expr.col_offset,
                    f"{what} iterates a bare set in nondeterministic order",
                )

        for node in ast.walk(mod.tree):
            if not _scoped(mod, node):
                continue
            if isinstance(node, ast.For):
                yield from flag(node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield from flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in {
                    "list",
                    "tuple",
                }:
                    for arg in node.args:
                        yield from flag(arg, f"{node.func.id}()")
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                ):
                    for arg in node.args:
                        yield from flag(arg, "str.join()")


@register
class IdentityKeyRule(Rule):
    """DET005: ``id()`` values are reused after garbage collection and
    differ across processes, so identity-keyed state aliases unrelated
    objects and never survives pickling.  Every use in deterministic
    code needs an explicit pinning argument (see ``System._run_pos``)
    recorded in a suppression."""

    id = "DET005"
    summary = "id()-derived key or comparison"
    hint = (
        "key by value (or an interned canonical object); if identity "
        "keying is required, pin a strong reference for the key's "
        "lifetime and document it with a lint-ok suppression"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and _scoped(mod, node)
            ):
                yield self.finding(
                    mod,
                    node.lineno,
                    node.col_offset,
                    "id()-keyed state in deterministic code",
                )


#: worklist-flavoured names whose iteration order the explorer's
#: trace coordinates and dedup contract depend on
_WORKLIST_NAME = re.compile(
    r"(?:^|_)(frontier|sleep|orbit|worklist)(?:_|s?$|set)", re.IGNORECASE
)

#: constructors whose results iterate in a defined, stable order
_ORDERED_CALLS = frozenset({"list", "tuple", "deque", "sorted", "reversed"})

_ORDERED_ANNOTATIONS = frozenset(
    {"list", "tuple", "deque", "List", "Tuple", "Deque", "Sequence"}
)


class _WorklistIndex:
    """Which worklist-named locals are *provably* ordered?

    A name is provably ordered when every binding we can see is a list/
    tuple literal, a comprehension, an ordered-constructor call
    (``list``/``tuple``/``deque``/``sorted``), or carries an ordered
    annotation.  One opaque or set-flavoured binding makes it suspect.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.ordered: set[str] = set()
        suspect: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and _WORKLIST_NAME.search(
                        target.id
                    ):
                        bucket = (
                            self.ordered
                            if self._is_ordered_expr(node.value)
                            else suspect
                        )
                        bucket.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _WORKLIST_NAME.search(node.target.id):
                    if self._is_ordered_annotation(node.annotation):
                        self.ordered.add(node.target.id)
                    else:
                        suspect.add(node.target.id)
            elif isinstance(node, ast.arg) and _WORKLIST_NAME.search(node.arg):
                if node.annotation is not None and self._is_ordered_annotation(
                    node.annotation
                ):
                    self.ordered.add(node.arg)
                else:
                    suspect.add(node.arg)
        self.ordered -= suspect

    @staticmethod
    def _is_ordered_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Tuple, ast.ListComp)):
            return True
        if isinstance(node, ast.Call):
            return tail_name(node.func) in _ORDERED_CALLS
        return False

    @staticmethod
    def _is_ordered_annotation(node: ast.expr) -> bool:
        target = node
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            # ``from __future__ import annotations`` stringizes nothing at
            # the AST level, but explicit string annotations do appear
            try:
                target = ast.parse(target.value, mode="eval").body
            except SyntaxError:  # pragma: no cover - malformed annotation
                return False
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id in _ORDERED_ANNOTATIONS
        if isinstance(target, ast.Attribute):
            return target.attr in _ORDERED_ANNOTATIONS
        return False


@register
class UnorderedWorklistRule(Rule):
    """DET006: the explorer's frontier pop order is its trace namespace,
    and its dedup and cache layers assume frontier/worklist containers
    iterate in one deterministic order.  Iterating a worklist-named
    container that is not provably an ordered sequence risks silently
    breaking that contract."""

    id = "DET006"
    summary = "iteration over a worklist container of unproven order"
    hint = (
        "keep frontier/sleep-set/orbit/worklist state in a list or "
        "deque (or iterate sorted(...)); sets and opaque values have no "
        "stable order and make traces depend on the hash seed"
    )

    #: only the explorer package carries the frontier-order contract
    _PACKAGES = ("repro.explore",)

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if not mod.in_packages(self._PACKAGES):
            return
        index = _WorklistIndex(mod.tree)
        safe_iters: set[int] = set()
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SAFE_CALLS
            ):
                for arg in node.args:
                    safe_iters.add(id(arg))
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                    ):
                        for gen in arg.generators:
                            safe_iters.add(id(gen.iter))

        def flag(expr: ast.expr, what: str) -> Iterator[LintFinding]:
            if id(expr) in safe_iters:
                return
            if (
                isinstance(expr, ast.Name)
                and _WORKLIST_NAME.search(expr.id)
                and expr.id not in index.ordered
            ):
                yield self.finding(
                    mod,
                    expr.lineno,
                    expr.col_offset,
                    f"{what} iterates worklist {expr.id!r} whose order "
                    f"is not provably deterministic",
                )

        for node in ast.walk(mod.tree):
            if isinstance(node, ast.For):
                yield from flag(node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield from flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in {
                    "list",
                    "tuple",
                    "enumerate",
                }:
                    for arg in node.args:
                        yield from flag(arg, f"{node.func.id}()")
