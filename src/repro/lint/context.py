"""Per-file analysis context shared by every rule.

One :class:`ModuleUnderLint` is built per file: the parsed AST, the
dotted module name (derived from the path, or overridden by a
``# repro: lint-module[...]`` comment so fixture snippets can pretend to
live anywhere), the suppression table parsed from
``# repro: lint-ok[RULE,...]`` comments, the source ranges of
classes implementing the Protocol interface (determinism rules apply
inside those regardless of the module's package), and the import-alias
map of the tracked stdlib modules.

The scope tables and the call classifier live here too, so the
per-file rules (DET001–DET003, ASY001) and the phase-1 intrinsic
recorder behind the whole-program rules (ASY003, DET007) share one
answer to "which call blocks, reads the wall clock or draws ambient
entropy" (DESIGN.md §11, §16).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

#: suppression comment: ``# repro: lint-ok[DET001]`` or ``[DET001,POOL002]``
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s]*)\]")
#: malformed variant (``lint-ok`` without a bracketed rule list)
_SUPPRESS_LOOSE_RE = re.compile(r"#\s*repro:\s*lint-ok(?!\[)")
#: fixture module override: ``# repro: lint-module[repro.sim.fake]``
_MODULE_RE = re.compile(r"#\s*repro:\s*lint-module\[([A-Za-z0-9_.]+)\]")

#: base-class names marking "this class implements the Protocol
#: interface"; subclass chains in one file are followed transitively.
PROTOCOL_BASE_NAMES = frozenset(
    {"ProtocolProcess", "_CoordinationBase", "DetectorOracle"}
)

#: packages whose entire contents must be deterministic
DET_PACKAGES: tuple[str, ...] = (
    "repro.core",
    "repro.sim",
    "repro.model",
    "repro.knowledge",
    "repro.explore",
    "repro.detectors",
    "repro.workloads",
)

#: packages whose coroutines must never block the event loop
ASYNC_PACKAGES: tuple[str, ...] = ("repro.serve",)

#: spec/protocol-factory constructors whose arguments travel to pool workers
SPEC_FACTORY_NAMES = frozenset(
    {
        "RunSpec",
        "EnsembleSpec",
        "ExploreSpec",
        "UniformProtocol",
        "ConsensusProtocol",
        "GossipProtocol",
        "FullInformationProtocol",
        "uniform_protocol",
    }
)

#: module roots whose imports the alias map records (``asyncio`` for
#: ASY002's spawns, ``threading``/``socket`` for the unpicklable catalog)
_TRACKED_ROOTS = frozenset(
    {
        "asyncio",
        "datetime",
        "os",
        "random",
        "secrets",
        "socket",
        "subprocess",
        "threading",
        "time",
        "urllib",
        "uuid",
    }
)

#: dotted origins that block the calling thread
BLOCKING_ORIGINS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "socket.create_connection",
        "os.fsync",
        "os.fdatasync",
    }
)

#: method names that do synchronous file I/O (the pathlib idiom); only
#: counted when the receiver does not resolve to a tracked module
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: wall-clock reads (DET002 says why the monotonic clocks are absent)
WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ambient entropy sources besides the ``secrets.*`` API and the global
#: ``random.*`` API, which :func:`classify_call` matches by prefix
ENTROPY_ORIGINS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)


@dataclass
class Suppression:
    """One parsed ``lint-ok`` comment."""

    line: int
    rules: frozenset[str]
    used: bool = field(default=False, compare=False)


def in_packages(module: str | None, packages: tuple[str, ...]) -> bool:
    """Is the dotted module inside any of the dotted package prefixes?"""
    if module is None:
        return False
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def tail_name(node: ast.expr) -> str | None:
    """``f`` for ``f`` and for ``a.b.f``; ``None`` for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to dotted origins for the tracked modules.

    ``import random as r`` -> ``{"r": "random"}``;
    ``from random import shuffle as s`` -> ``{"s": "random.shuffle"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _TRACKED_ROOTS:
                    aliases[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _TRACKED_ROOTS:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def dotted_text(node: ast.expr) -> str | None:
    """The source-level dotted text of a Name/Attribute chain."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def resolve_origin(aliases: Mapping[str, str], node: ast.expr) -> str | None:
    """Dotted origin of an attribute chain, via the import alias map."""
    text = dotted_text(node)
    if text is None:
        return None
    root, dot, rest = text.partition(".")
    base = aliases.get(root)
    return None if base is None else base + dot + rest


def classify_call(
    aliases: Mapping[str, str], call: ast.Call
) -> tuple[str, str] | None:
    """``(effect, detail)`` when ``call`` blocks, reads the wall clock or
    draws ambient entropy; ``None`` otherwise.

    ``effect`` is ``"blocking"``, ``"wall-clock"`` or ``"entropy"``.
    ``detail`` is the resolved dotted origin, or ``"open()"`` for the
    builtin and ``".read_text()"``-style text for the pathlib methods.
    The global ``random.*`` API is entropy, and so is ``random.Random()``
    built without a seed; a seeded ``random.Random(seed)`` is not.
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "blocking", "open()"
    origin = resolve_origin(aliases, func)
    if origin is None:
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_METHODS:
            return "blocking", f".{func.attr}()"
        return None
    if origin in BLOCKING_ORIGINS:
        return "blocking", origin
    if origin in WALL_CLOCK_ORIGINS:
        return "wall-clock", origin
    if origin in ENTROPY_ORIGINS or origin.startswith("secrets."):
        return "entropy", origin
    if origin.startswith("random."):
        leaf = origin.split(".", 1)[1]
        if "." in leaf:
            return None  # a method on an instance path
        if leaf == "Random" and (call.args or call.keywords):
            return None  # seeded construction
        return "entropy", origin
    return None


def module_name_for_path(path: Path) -> str | None:
    """The dotted module name, derived from a ``repro`` package root.

    Walks up the path looking for the top-level ``repro`` directory; a
    file outside any ``repro`` tree (e.g. a test fixture) gets ``None``
    and must rely on a ``lint-module`` override to enter package-scoped
    rules.
    """
    parts = list(path.resolve().parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            dotted = parts[i:-1] + [path.stem]
            if path.stem == "__init__":
                dotted = parts[i:-1]
            return ".".join(dotted)
    return None


class ModuleUnderLint:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions: dict[int, Suppression] = {}
        self.malformed_suppressions: list[int] = []
        self.module: str | None = module_name_for_path(path)
        self._scan_comments()
        #: the whole file is in the determinism scope (decided once, after
        #: any ``lint-module`` override); otherwise only its Protocol
        #: class bodies are
        self.in_det_packages = self.in_packages(DET_PACKAGES)
        self.protocol_class_ranges = self._find_protocol_classes()
        #: local name -> dotted origin for the tracked modules, built
        #: once for every rule and the summary builder
        self.aliases = import_aliases(self.tree)

    # -- comments -----------------------------------------------------------

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
            comments = []
        for lineno, text in comments:
            override = _MODULE_RE.search(text)
            if override:
                self.module = override.group(1)
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
                if not rules:
                    self.malformed_suppressions.append(lineno)
                    continue
                # A comment alone on its line covers the next line; a
                # trailing comment covers its own line.
                stripped = self.lines[lineno - 1].strip() if lineno <= len(self.lines) else ""
                target = lineno + 1 if stripped.startswith("#") else lineno
                self.suppressions[target] = Suppression(target, rules)
            elif _SUPPRESS_LOOSE_RE.search(text):
                self.malformed_suppressions.append(lineno)

    def suppressed(self, rule: str, line: int) -> bool:
        """True (and marks the suppression used) when ``rule`` is waived
        at ``line`` by a ``lint-ok`` comment."""
        entry = self.suppressions.get(line)
        if entry is not None and rule in entry.rules:
            entry.used = True
            return True
        return False

    # -- package / protocol scope -------------------------------------------

    def in_packages(self, packages: tuple[str, ...]) -> bool:
        """Is this module inside any of the dotted package prefixes?"""
        return in_packages(self.module, packages)

    def _find_protocol_classes(self) -> tuple[tuple[int, int], ...]:
        """(first, last) line ranges of Protocol-interface classes."""
        protocol_names = set(PROTOCOL_BASE_NAMES)
        ranges: list[tuple[int, int]] = []
        # Two passes so subclasses of in-file protocol classes count too.
        for _ in range(2):
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for base in node.bases:
                    name = tail_name(base)
                    if name in protocol_names:
                        protocol_names.add(node.name)
                        span = (node.lineno, node.end_lineno or node.lineno)
                        if span not in ranges:
                            ranges.append(span)
                        break
        return tuple(sorted(ranges))

    def in_protocol_class(self, node: ast.AST) -> bool:
        """Is the node's line inside a Protocol-interface class body?"""
        line = getattr(node, "lineno", None)
        if line is None:
            return False
        return any(first <= line <= last for first, last in self.protocol_class_ranges)
