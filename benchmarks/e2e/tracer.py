"""An in-memory span tracer that wraps the program's public entry points.

The benchmark times layers from the outside: :func:`install` replaces a
fixed list of public functions and methods of ``repro`` with wrappers
that record one span per call (name, start, end, parent, request id),
so ``src/repro`` itself carries no tracing code.  It must run before
the code under test imports those functions by name (the harness does
``from repro.runtime import run_ensemble``), which is why the batch
worker installs it before it imports ``repro.harness``.

A call into a layer that is already the innermost open span (``valid``
calling ``counterexample``, ``ck_fixpoint`` calling ``e_step``) runs
unwrapped, so a span always marks a boundary between two layers.

A span's self time is its duration minus the durations of its direct
children.  Spans of one thread nest, so the self times of a tree add up
to the duration of its root; the root's own self time is the part of
the wall time no layer claims (``<unattributed>``).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

UNATTRIBUTED = "<unattributed>"

#: Span name -> (module, attribute path) of every wrapped entry point.
#: Methods are ``Class.method``; a plain name is a module-level function,
#: replaced in every loaded module that imported it by name.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "runtime.run_ensemble": (("repro.runtime.api", "run_ensemble"),),
    "sim.execute": (("repro.sim.executor", "Executor.run"),),
    "explore.run": (("repro.explore.scheduler", "explore"),),
    "columnar.build_kernel": (("repro.columnar.kernel", "build_kernel"),),
    "columnar.refined": (("repro.columnar.kernel", "ColumnarKernel.refined"),),
    "knowledge.evaluate": (
        ("repro.knowledge.semantics", "ModelChecker.holds"),
        ("repro.knowledge.semantics", "ModelChecker.holds_at"),
        ("repro.knowledge.semantics", "ModelChecker.valid"),
        ("repro.knowledge.semantics", "ModelChecker.counterexample"),
        ("repro.knowledge.semantics", "ModelChecker.satisfiable"),
        ("repro.model.system", "System.known_crashed_set"),
    ),
    "knowledge.fixpoint": (
        ("repro.knowledge.group", "GroupChecker.distributed_knowledge"),
        ("repro.knowledge.group", "GroupChecker.common_knowledge_points"),
        ("repro.knowledge.group", "GroupChecker.common_knowledge"),
        ("repro.knowledge.group", "GroupChecker.max_e_depth"),
        ("repro.columnar.kernel", "ColumnarKernel.ck_fixpoint"),
        ("repro.columnar.kernel", "ColumnarKernel.e_step"),
    ),
    "core.transform": (
        ("repro.core.simulation_theorem", "simulate_perfect_detectors"),
        ("repro.core.simulation_theorem", "simulate_generalized_detectors"),
    ),
}


def _kernel_stats(obj: Any) -> Any:
    """The ``KernelStats`` a checker, group checker, kernel or system updates."""
    stats = getattr(obj, "stats", None)
    if stats is None:
        stats = getattr(getattr(obj, "system", None), "stats", None)
    return stats


class Tracer:
    """Spans in memory; one open-span stack per thread.

    A span is recorded when it closes, as an immutable tuple
    ``(id, name, start, end, parent id, request id)``: the cyclic
    garbage collector stops tracking such tuples, so tens of thousands
    of spans do not slow the collections of the code under test.  Ids
    come from one counter, in opening order; a root's parent id is -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: every KernelStats object touched by a wrapped call, by id
        self.kernel_stats: dict[int, Any] = {}
        #: (points, arena bytes) of every columnar kernel built
        self.kernels_built: list[tuple[int, int]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        """Forget every span and counter (no span may be open)."""
        self.spans.clear()
        self._ids = itertools.count()
        self.kernel_stats.clear()
        self.kernels_built.clear()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span per outermost call."""
        spans = self.spans
        stack_of = self._stack
        seen = self.kernel_stats
        perf = time.perf_counter
        built = self.kernels_built if name == "columnar.build_kernel" else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if args:
                stats = _kernel_stats(args[0])
                if stats is not None:
                    seen[id(stats)] = stats
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, name, start, end, parent, None))
            if built is not None:
                built.append((result.point_total, result.arena.nbytes))
            return result

        return traced

    # -- analysis ------------------------------------------------------------

    def records(self) -> list[tuple[int, str, float, float, int, Any]]:
        """The spans in opening order; a span's position is its id."""
        return sorted(self.spans)

    def self_times(self) -> list[float]:
        """Self time of every span, in opening order."""
        records = self.records()
        own = [end - start for _, _, start, end, _, _ in records]
        for _, _, start, end, parent, _ in records:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total duration, total self time)."""
        out: dict[str, tuple[int, float, float]] = {}
        for (_, name, start, end, _, _), own in zip(self.records(), self.self_times()):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + own)
        return out

    def layer_table(self) -> tuple[dict[str, float], float]:
        """Self time per layer (first name component) and the root wall time.

        Root spans are the benchmark's own (``bench.*``); their self
        time is reported as ``<unattributed>``.
        """
        layers: dict[str, float] = {}
        wall = 0.0
        for (_, name, start, end, parent, _), own in zip(self.records(), self.self_times()):
            layer = UNATTRIBUTED if parent < 0 else name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
            if parent < 0:
                wall += end - start
        return layers, wall

    def dump(self) -> list[list[Any]]:
        """Spans as JSON rows: [name, start, end, parent index, request id]."""
        return [
            [name, start, end, parent, rid] for _, name, start, end, parent, rid in self.records()
        ]


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every workload reads from its spans and counters."""
    names = tracer.by_name()

    def calls(name: str) -> int:
        return names.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return names.get(name, (0, 0.0, 0.0))[2]

    def stat(field: str) -> int:
        return sum(getattr(s, field, 0) for s in tracer.kernel_stats.values())

    def hit_ratio(table: str) -> float:
        hits = stat(f"{table}_cache_hits")
        return _ratio(hits, hits + stat(f"{table}_cache_misses"))

    executions = calls("sim.execute")
    return {
        "runtime.run_ensemble.calls": calls("runtime.run_ensemble"),
        "runtime.run_ensemble.self_s": self_s("runtime.run_ensemble"),
        "sim.execute.calls": executions,
        "sim.execute.self_s": self_s("sim.execute"),
        "sim.execute.us_per_run": self_s("sim.execute") / executions * 1e6 if executions else 0.0,
        "explore.self_s": self_s("explore.run"),
        "columnar.build_kernel.calls": calls("columnar.build_kernel"),
        "columnar.build_kernel.self_s": self_s("columnar.build_kernel"),
        "columnar.points_indexed": sum(points for points, _ in tracer.kernels_built),
        "columnar.arena_bytes": sum(size for _, size in tracer.kernels_built),
        "columnar.refined.calls": calls("columnar.refined"),
        "columnar.refined.self_s": self_s("columnar.refined"),
        "knowledge.evaluate.calls": calls("knowledge.evaluate"),
        "knowledge.evaluate.self_s": self_s("knowledge.evaluate"),
        "knowledge.local_cache.hit_ratio": hit_ratio("local"),
        "knowledge.point_cache.hit_ratio": hit_ratio("point"),
        "knowledge.temporal_cache.hit_ratio": hit_ratio("temporal"),
        "knowledge.knows_class_evals": stat("knows_class_evals"),
        "knowledge.knows_point_evals": stat("knows_point_evals"),
        "knowledge.fixpoint.calls": calls("knowledge.fixpoint"),
        "knowledge.fixpoint.self_s": self_s("knowledge.fixpoint"),
        "knowledge.ck_iterations": stat("ck_fixpoint_iterations"),
        "core.transform.calls": calls("core.transform"),
        "core.transform.self_s": self_s("core.transform"),
    }


def render_layer_table(layers: dict[str, float], wall: float) -> str:
    """The self-time table, largest layer first, with shares of ``wall``."""
    lines = [f"{'layer':<16}{'self s':>10}{'share':>8}"]
    for layer, own in sorted(layers.items(), key=lambda item: -item[1]):
        share = own / wall if wall else 0.0
        lines.append(f"{layer:<16}{own:>10.4f}{share:>8.1%}")
    lines.append(f"{'sum':<16}{sum(layers.values()):>10.4f}   wall {wall:.4f}")
    return "\n".join(lines)


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) of one entry point."""
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns ``tracer``.

    An entry point the program no longer has is listed in
    ``tracer.missing`` (its metrics then read 0) instead of failing the
    run, so a refactor of ``repro`` cannot break the untraced benchmark.
    """
    for name, targets in ENTRY_POINTS.items():
        for module_name, path in targets:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, tracer.wrap(name, raw))
                continue
            wrapped = tracer.wrap(name, raw)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is raw:
                        namespace[key] = wrapped
    if tracer.missing:
        print(
            "tracer: entry points not found: " + ", ".join(tracer.missing),
            file=sys.stderr,
        )
    return tracer
