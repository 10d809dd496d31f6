"""Phase-1 whole-program analysis: per-file summaries and the project index.

``repro.lint`` historically ran every rule over one file at a time, so a
blocking call, entropy source, or unpicklable capture hidden one helper
away was invisible.  The whole-program engine fixes that in two phases:

1. Each file is parsed once into a :class:`FileSummary` — the symbol
   table (functions, classes, imports), every call site with a
   best-effort *reference* to its callee, intrinsic effect sites, spec
   placements, and the ``lint-ok`` suppressions.
2. The :class:`ProjectIndex` joins the summaries: module name → summary,
   global function table, import resolution *within the linted set* —
   the substrate :mod:`repro.lint.callgraph` and
   :mod:`repro.lint.effects` build on.

Soundness: resolution is deliberately best-effort (DESIGN.md §16).
Dynamic dispatch, ``getattr``, decorators that replace functions, and
attribute chains longer than ``self.<attr>.<method>()`` resolve to
nothing and simply produce no call edge — the whole-program rules can
miss violations behind them, but never invent one out of an unresolved
call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .context import ModuleUnderLint

#: Reference kinds a call site may carry (see :class:`Ref`).
REF_KINDS = ("name", "self", "attr", "typed")

#: spawning APIs whose callable arguments run *off* the event loop, so
#: blocking effects must not propagate through them (the executor cut)
EXECUTOR_METHODS = frozenset({"run_in_executor", "to_thread"})

#: spec/protocol-factory constructors whose arguments travel to pool
#: workers (mirrors ``rules.poolsafety.SPEC_FACTORY_NAMES``)
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


@dataclass(frozen=True)
class Ref:
    """A best-effort reference to a callee, resolvable against the index.

    ``kind`` is one of :data:`REF_KINDS`:

    - ``name``: a bare name — ``helper()`` → ``parts = ("helper",)``
    - ``self``: a method on the enclosing instance — ``self.m()`` /
      ``cls.m()`` → ``parts = ("m",)``
    - ``attr``: a dotted chain rooted at a plain name —
      ``mod.Class.m()`` → ``parts = ("mod", "Class", "m")``; the root
      resolves through the import table.  ``self.<attr>.<method>()``
      is encoded as ``parts = ("self", attr, method)``.
    - ``typed``: a method on a local variable whose class is known from
      an annotation or constructor call — ``state.claim()`` with
      ``state: ServeState`` → ``parts = ("ServeState", "claim")``.
    """

    kind: str
    parts: tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its lexically enclosing scope."""

    #: module-relative qualname of the enclosing function (``Class.m``,
    #: ``fn``, ``fn.<locals>.inner``); ``None`` for module-level code
    caller: str | None
    ref: Ref
    line: int
    col: int
    #: the call value is returned by the caller (unpicklable-capture
    #: effects propagate only along these edges)
    in_return: bool = False


@dataclass(frozen=True)
class IntrinsicEffect:
    """One direct effect source inside one function."""

    function: str | None  # module-relative qualname; None = module level
    effect: str  # "blocking" | "entropy" | "wall-clock" | "unpicklable"
    detail: str  # e.g. "time.sleep", "returns lambda"
    line: int
    col: int


@dataclass(frozen=True)
class SpecPlacement:
    """One argument handed to a spec/protocol factory call."""

    caller: str | None
    factory: str  # the factory name as written, e.g. "RunSpec"
    ref: Ref  # the argument (bare reference) or its producing call
    is_call: bool  # True: argument is ``f(...)``; False: ``f`` itself
    line: int
    col: int


@dataclass(frozen=True)
class FunctionDecl:
    """One function or method declaration."""

    qualname: str  # module-relative: "fn", "Class.m", "fn.<locals>.g"
    line: int
    col: int
    is_async: bool
    class_name: str | None  # immediate enclosing class, if any
    #: inside a Protocol-interface class body (determinism scope)
    protocol_scope: bool = False


@dataclass(frozen=True)
class ClassDecl:
    """One module-level class declaration."""

    name: str
    bases: tuple[str, ...]  # dotted texts as written
    methods: tuple[str, ...]
    #: attribute name → dotted class text, from ``self.x = param`` with
    #: an annotated parameter, or ``self.x: T`` / class-body ``x: T``
    attr_types: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FileSummary:
    """Everything phase 2 needs to know about one parsed file."""

    display_path: str
    module: str | None
    functions: tuple[FunctionDecl, ...] = ()
    classes: tuple[ClassDecl, ...] = ()
    imports: tuple[tuple[str, str], ...] = ()  # local name -> dotted origin
    calls: tuple[CallSite, ...] = ()
    intrinsics: tuple[IntrinsicEffect, ...] = ()
    placements: tuple[SpecPlacement, ...] = ()
    suppressions: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def import_map(self) -> dict[str, str]:
        return dict(self.imports)

    def suppressed(self, rule: str, line: int) -> bool:
        for lineno, rules in self.suppressions:
            if lineno == line and rule in rules:
                return True
        return False


# -- intrinsic effect catalogs ----------------------------------------------

#: module roots tracked for alias-aware origin resolution
_TRACKED_ROOTS = frozenset(
    {
        "time",
        "datetime",
        "os",
        "uuid",
        "secrets",
        "random",
        "subprocess",
        "urllib",
        "requests",
        "socket",
        "threading",
    }
)

_BLOCKING_ORIGINS = frozenset(
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
_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

_WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY_ORIGINS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: constructors whose return values never pickle
_UNPICKLABLE_ORIGINS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "socket.socket",
    }
)


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted origin for the tracked stdlib modules."""
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


def _resolve_origin(aliases: Mapping[str, str], node: ast.expr) -> str | None:
    """Dotted origin of an attribute chain via the import alias map."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _dotted_text(node: ast.expr) -> str | None:
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


def _annotation_text(node: ast.expr | None) -> str | None:
    """Best-effort dotted class text of an annotation.

    ``Optional[T]`` / ``T | None`` unwrap to ``T``; anything else that
    is not a plain dotted name yields ``None``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_text(side)
        return None
    if isinstance(node, ast.Subscript):
        base = _dotted_text(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            inner = node.slice
            return _annotation_text(inner)
        return None
    return _dotted_text(node)


class _SummaryBuilder(ast.NodeVisitor):
    """One pass over a module AST, extracting the :class:`FileSummary`."""

    def __init__(self, mod: ModuleUnderLint) -> None:
        self.mod = mod
        self.functions: list[FunctionDecl] = []
        self.classes: list[ClassDecl] = []
        self.calls: list[CallSite] = []
        self.intrinsics: list[IntrinsicEffect] = []
        self.placements: list[SpecPlacement] = []
        self.aliases = _import_aliases(mod.tree)
        self.imports = self._all_imports(mod.tree, mod.module)
        # scope state
        self._scope: list[str] = []  # qualname parts
        self._kinds: list[str] = []  # "class" | "func", parallel to _scope
        self._class: list[str] = []  # enclosing class names
        self._local_types: list[dict[str, str]] = []  # per-function var types
        self._local_funcs: list[set[str]] = []  # nested defs per function
        self._local_classes: list[set[str]] = []  # local classes per function
        self._return_depth = 0

    # -- imports -------------------------------------------------------------

    @staticmethod
    def _all_imports(tree: ast.Module, module: str | None) -> dict[str, str]:
        """Every import binding, with relative imports resolved."""
        out: dict[str, str] = {}
        package_parts = module.split(".")[:-1] if module else []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        out[alias.asname] = alias.name
                    else:
                        out[alias.name.split(".")[0]] = alias.name.split(".")[0]
                        # ``import a.b`` binds ``a``; the full dotted
                        # path is reachable via attr chains from it.
                        if "." in alias.name:
                            out.setdefault(alias.name, alias.name)
            elif isinstance(node, ast.ImportFrom):
                base: str | None
                if node.level:
                    anchor = package_parts[: len(package_parts) - (node.level - 1)]
                    if node.level - 1 > len(package_parts):
                        base = None
                    else:
                        base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    out[alias.asname or alias.name] = f"{base}.{alias.name}"
        return out

    # -- scope plumbing ------------------------------------------------------

    @property
    def _qualname(self) -> str | None:
        return ".".join(self._scope) if self._scope else None

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._kinds and self._kinds[-1] == "func":
            self._scope.extend(["<locals>", node.name])
            self._kinds.extend(["<locals>", "func"])
            if self._local_funcs:
                self._local_funcs[-1].add(node.name)
        else:
            self._scope.append(node.name)
            self._kinds.append("func")
        qualname = self._qualname
        assert qualname is not None
        self.functions.append(
            FunctionDecl(
                qualname=qualname,
                line=node.lineno,
                col=node.col_offset,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                class_name=self._class[-1] if self._class else None,
                protocol_scope=self.mod.in_protocol_class(node),
            )
        )
        types: dict[str, str] = {}
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]:
            text = _annotation_text(arg.annotation)
            if text is not None:
                types[arg.arg] = text
        self._local_types.append(types)
        self._local_funcs.append(set())
        self._local_classes.append(set())

    def _exit_function(self) -> None:
        if len(self._scope) >= 3 and self._scope[-2] == "<locals>":
            del self._scope[-2:]
            del self._kinds[-2:]
        else:
            self._scope.pop()
            self._kinds.pop()
        self._local_types.pop()
        self._local_funcs.pop()
        self._local_classes.pop()

    # -- visitors ------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._scope:
            # Local (or nested) class: record for unpicklable detection,
            # then walk its body as part of the enclosing scope.
            if self._local_classes:
                self._local_classes[-1].add(node.name)
            self.generic_visit(node)
            return
        bases = tuple(
            text for text in (_dotted_text(b) for b in node.bases) if text
        )
        methods: list[str] = []
        attr_types: dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                if stmt.name == "__init__":
                    attr_types.update(self._init_attr_types(stmt))
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                text = _annotation_text(stmt.annotation)
                if text is not None:
                    attr_types.setdefault(stmt.target.id, text)
        self._class.append(node.name)
        self._scope.append(node.name)
        self._kinds.append("class")
        for stmt in node.body:
            self.visit(stmt)
        self._scope.pop()
        self._kinds.pop()
        self._class.pop()
        self.classes.append(
            ClassDecl(
                name=node.name,
                bases=bases,
                methods=tuple(methods),
                attr_types=tuple(sorted(attr_types.items())),
            )
        )

    @staticmethod
    def _init_attr_types(
        init: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, str]:
        """``self.x = param`` bindings whose parameter is annotated."""
        param_types: dict[str, str] = {}
        args = init.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            text = _annotation_text(arg.annotation)
            if text is not None:
                param_types[arg.arg] = text
        out: dict[str, str] = {}
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    text = _annotation_text(stmt.annotation)
                    if text is not None:
                        out.setdefault(target.attr, text)
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                text = param_types.get(stmt.value.id)
                if text is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        out.setdefault(target.attr, text)
        return out

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        for stmt in node.body:
            self.visit(stmt)
        self._exit_function()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda is its own scope; calls inside it never run on the
        # enclosing scope's stack, so they are attributed nowhere (the
        # conservative choice: no edge rather than a wrong edge).
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_local_type(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._local_types and isinstance(node.target, ast.Name):
            text = _annotation_text(node.annotation)
            if text is not None:
                self._local_types[-1][node.target.id] = text
        self.generic_visit(node)

    def _record_local_type(self, node: ast.Assign) -> None:
        """``x = SomeClass(...)`` binds x's type for typed refs."""
        if not self._local_types or len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = node.value
        if isinstance(value, ast.Call):
            text = _dotted_text(value.func)
            if text is not None and text.split(".")[-1][:1].isupper():
                self._local_types[-1][target.id] = text
                return
        # Rebinding to anything else invalidates a previous typing.
        self._local_types[-1].pop(target.id, None)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            return
        self._return_depth += 1
        self._scan_return_value(node.value)
        self.visit(node.value)
        self._return_depth -= 1

    def _scan_return_value(self, value: ast.expr) -> None:
        """Unpicklable-capture intrinsics visible in a return expression."""
        qualname = self._qualname
        for sub in ast.walk(value):
            if isinstance(sub, ast.Lambda):
                self.intrinsics.append(
                    IntrinsicEffect(
                        qualname,
                        "unpicklable",
                        "returns a lambda",
                        sub.lineno,
                        sub.col_offset,
                    )
                )
            elif isinstance(sub, ast.Call):
                name = _dotted_text(sub.func)
                if (
                    name is not None
                    and self._local_classes
                    and name in self._local_classes[-1]
                ):
                    self.intrinsics.append(
                        IntrinsicEffect(
                            qualname,
                            "unpicklable",
                            f"returns an instance of local class {name!r}",
                            sub.lineno,
                            sub.col_offset,
                        )
                    )
                    continue
                origin = _resolve_origin(self.aliases, sub.func)
                if origin in _UNPICKLABLE_ORIGINS:
                    self.intrinsics.append(
                        IntrinsicEffect(
                            qualname,
                            "unpicklable",
                            f"returns {origin}()",
                            sub.lineno,
                            sub.col_offset,
                        )
                    )
                elif isinstance(sub.func, ast.Name) and sub.func.id == "open":
                    self.intrinsics.append(
                        IntrinsicEffect(
                            qualname,
                            "unpicklable",
                            "returns an open file handle",
                            sub.lineno,
                            sub.col_offset,
                        )
                    )

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self._qualname
        self._record_intrinsics(node, qualname)
        ref = self._reference(node.func)
        if ref is not None:
            self.calls.append(
                CallSite(
                    caller=qualname,
                    ref=ref,
                    line=node.lineno,
                    col=node.col_offset,
                    in_return=self._return_depth > 0,
                )
            )
        self._record_placements(node, qualname)
        # Executor-shipped callables: arguments to run_in_executor /
        # to_thread run off-loop, so references there create no edge —
        # visiting the arguments still records *their* nested calls
        # (e.g. a computed argument expression executes on the loop).
        self.generic_visit(node)

    def _record_intrinsics(self, node: ast.Call, qualname: str | None) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self.intrinsics.append(
                IntrinsicEffect(
                    qualname, "blocking", "open()", node.lineno, node.col_offset
                )
            )
            return
        origin = _resolve_origin(self.aliases, func)
        if origin is None:
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS
            ):
                self.intrinsics.append(
                    IntrinsicEffect(
                        qualname,
                        "blocking",
                        f".{func.attr}()",
                        node.lineno,
                        node.col_offset,
                    )
                )
            return
        if origin in _BLOCKING_ORIGINS:
            effect, detail = "blocking", origin
        elif origin in _WALL_CLOCK_ORIGINS:
            effect, detail = "wall-clock", origin
        elif origin in _ENTROPY_ORIGINS or origin.startswith("secrets."):
            effect, detail = "entropy", origin
        elif origin.startswith("random."):
            leaf = origin.split(".", 1)[1]
            if leaf == "Random" or "." in leaf:
                return  # seeded construction / instance method path
            effect, detail = "entropy", origin
        else:
            return
        self.intrinsics.append(
            IntrinsicEffect(qualname, effect, detail, node.lineno, node.col_offset)
        )

    def _reference(self, func: ast.expr) -> Ref | None:
        if isinstance(func, ast.Name):
            return Ref("name", (func.id,))
        if not isinstance(func, ast.Attribute):
            return None
        parts: list[str] = []
        cur: ast.expr = func
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.reverse()
        root = cur.id
        if root in {"self", "cls"}:
            if len(parts) == 1:
                return Ref("self", (parts[0],))
            if len(parts) == 2:
                # self.<attr>.<method>() — resolved via attr types
                return Ref("attr", ("self", parts[0], parts[1]))
            return None
        if (
            len(parts) == 1
            and self._local_types
            and root in self._local_types[-1]
        ):
            return Ref("typed", (self._local_types[-1][root], parts[0]))
        return Ref("attr", (root, *parts))

    def _record_placements(self, node: ast.Call, qualname: str | None) -> None:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name not in SPEC_FACTORY_NAMES:
            return
        args: list[ast.expr] = list(node.args)
        args.extend(kw.value for kw in node.keywords)
        for arg in args:
            if isinstance(arg, ast.Call):
                ref = self._reference(arg.func)
                if ref is not None:
                    self.placements.append(
                        SpecPlacement(
                            caller=qualname,
                            factory=name,
                            ref=ref,
                            is_call=True,
                            line=arg.lineno,
                            col=arg.col_offset,
                        )
                    )
            elif isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._reference(arg)
                if ref is not None:
                    self.placements.append(
                        SpecPlacement(
                            caller=qualname,
                            factory=name,
                            ref=ref,
                            is_call=False,
                            line=arg.lineno,
                            col=arg.col_offset,
                        )
                    )


def summarize(mod: ModuleUnderLint) -> FileSummary:
    """Build the :class:`FileSummary` for one parsed file."""
    builder = _SummaryBuilder(mod)
    for stmt in mod.tree.body:
        builder.visit(stmt)
    suppressions = tuple(
        sorted(
            (line, tuple(sorted(entry.rules)))
            for line, entry in mod.suppressions.items()
        )
    )
    return FileSummary(
        display_path=mod.display_path,
        module=mod.module,
        functions=tuple(builder.functions),
        classes=tuple(builder.classes),
        imports=tuple(sorted(builder.imports.items())),
        calls=tuple(builder.calls),
        intrinsics=tuple(builder.intrinsics),
        placements=tuple(builder.placements),
        suppressions=suppressions,
    )


@dataclass
class ProjectIndex:
    """The joined phase-1 view of every linted file.

    Global function names are ``<module-key>::<qualname>`` where the
    module key is the dotted module name when known, else the display
    path (fixture files without a ``lint-module`` override still form
    their own single-file scope).
    """

    summaries: tuple[FileSummary, ...]
    modules: dict[str, FileSummary] = field(default_factory=dict)
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    function_files: dict[str, FileSummary] = field(default_factory=dict)
    classes: dict[str, ClassDecl] = field(default_factory=dict)

    @classmethod
    def build(cls, summaries: Sequence[FileSummary]) -> "ProjectIndex":
        index = cls(summaries=tuple(summaries))
        for summary in summaries:
            key = index.module_key(summary)
            index.modules[key] = summary
            for fn in summary.functions:
                gqn = f"{key}::{fn.qualname}"
                index.functions[gqn] = fn
                index.function_files[gqn] = summary
            for klass in summary.classes:
                index.classes[f"{key}::{klass.name}"] = klass
        return index

    @staticmethod
    def module_key(summary: FileSummary) -> str:
        return summary.module or summary.display_path

    def declaration(self, gqn: str) -> FunctionDecl:
        return self.functions[gqn]
