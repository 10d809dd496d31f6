"""Whole-program rules (ASY003, DET007, POOL004).

These are the transitive siblings of the single-file rule families:
ASY001 sees ``time.sleep`` *inside* a serve coroutine, ASY003 sees the
coroutine calling a helper (in any linted module) that reaches
``time.sleep`` two hops down.  All three run over the phase-2
:class:`~repro.lint.project.ProjectIndex` + effect fixpoint
(:mod:`repro.lint.effects`), and all three land at WARNING severity:
resolution is best-effort, so their findings are reported but do not
fail the run on their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..context import ASYNC_PACKAGES, DET_PACKAGES, in_packages
from ..findings import LintFinding, Severity
from ..project import ProjectIndex
from ..registry import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..effects import EffectAnalysis

_TAINT_EFFECTS = ("entropy", "wall-clock")


@register
class TransitiveBlockingRule(ProjectRule):
    """ASY003: a serve coroutine reaches a blocking call *through
    helpers* — invisible to ASY001's single-file sweep, identical in
    damage (the whole event loop stalls).  Executor-shipped thunks cut
    the propagation: work passed to ``run_in_executor``/``to_thread``
    blocks a worker thread, never the loop."""

    id = "ASY003"
    summary = "coroutine transitively reaches a blocking call"
    severity = Severity.WARNING
    hint = (
        "off-load the blocking helper with loop.run_in_executor(None, fn, ...)"
        " or make the whole chain async; the chain in the message names "
        "every hop down to the blocking site"
    )

    def check_project(
        self, project: ProjectIndex, effects: "EffectAnalysis"
    ) -> Iterator[LintFinding]:
        for edge in effects.graph.edges:
            summary = project.summary_of(edge.caller)
            if summary is None or not in_packages(summary.module, ASYNC_PACKAGES):
                continue
            caller_decl = project.functions.get(edge.caller)
            if caller_decl is None or not caller_decl.is_async:
                continue
            if not effects.has_effect(edge.callee, "blocking"):
                continue
            chain = effects.describe_chain(edge.callee, "blocking")
            yield self.finding_at(
                edge.file,
                edge.site.line,
                edge.site.col,
                f"coroutine {caller_decl.qualname!r} transitively blocks "
                f"the event loop via {_short(edge.callee)} -> {chain}",
            )


@register
class TransitiveTaintRule(ProjectRule):
    """DET007: entropy or wall-clock taint flows through helper
    functions into the deterministic core (or a Protocol
    implementation) — the helper may live in an exempt driver-side
    module, so DET001–DET003 never see it, but its ambient state still
    reaches run content through the call."""

    id = "DET007"
    summary = "helper call leaks entropy/wall-clock into deterministic code"
    severity = Severity.WARNING
    hint = (
        "thread a seeded random.Random or the simulated tick through the "
        "call chain instead; the chain in the message names the ambient "
        "source the helper reaches"
    )

    def check_project(
        self, project: ProjectIndex, effects: "EffectAnalysis"
    ) -> Iterator[LintFinding]:
        for edge in effects.graph.edges:
            caller_decl = project.functions.get(edge.caller)
            summary = project.summary_of(edge.caller)
            if summary is None:
                continue
            det_scope = in_packages(summary.module, DET_PACKAGES) or (
                caller_decl is not None and caller_decl.protocol_scope
            )
            if not det_scope:
                continue
            for effect in _TAINT_EFFECTS:
                if not effects.has_effect(edge.callee, effect):
                    continue
                chain = effects.describe_chain(edge.callee, effect)
                yield self.finding_at(
                    edge.file,
                    edge.site.line,
                    edge.site.col,
                    f"deterministic code calls a helper carrying "
                    f"{effect} taint via {_short(edge.callee)} -> {chain}",
                )


@register
class TransitiveUnpicklableRule(ProjectRule):
    """POOL004: a value placed into a Run/Ensemble/Explore spec (or a
    protocol factory) comes from a function that transitively returns
    an unpicklable object — a lambda, a local-class instance, an open
    handle, or a lock.  The ``PicklingError`` only fires when the pool
    dispatches the spec, far from this construction site.  Bare
    references to ``<locals>``-nested functions are flagged too: pickle
    resolves callables by qualified module path and cannot reach them."""

    id = "POOL004"
    summary = "spec argument transitively captures an unpicklable value"
    severity = Severity.WARNING
    hint = (
        "build spec contents from module-level functions and plain data; "
        "locks, handles, lambdas, and local classes cannot cross the "
        "process boundary"
    )

    def check_project(
        self, project: ProjectIndex, effects: "EffectAnalysis"
    ) -> Iterator[LintFinding]:
        graph = effects.graph
        for summary in project.summaries:
            for placement in summary.placements:
                target = graph.resolve(summary, placement.caller, placement.ref)
                if target is None:
                    continue
                if placement.is_call:
                    if not effects.has_effect(target, "unpicklable"):
                        continue
                    chain = effects.describe_chain(target, "unpicklable")
                    yield self.finding_at(
                        summary.display_path,
                        placement.line,
                        placement.col,
                        f"argument to {placement.factory}() comes from "
                        f"{_short(target)}, which reaches: {chain}",
                    )
                else:
                    decl = project.functions.get(target)
                    if decl is None or "<locals>" not in decl.qualname:
                        continue
                    yield self.finding_at(
                        summary.display_path,
                        placement.line,
                        placement.col,
                        f"argument to {placement.factory}() references "
                        f"nested function {_short(target)!r}, which cannot "
                        f"pickle for ProcessPoolBackend",
                    )


def _short(gqn: str) -> str:
    module, _, qual = gqn.partition("::")
    return qual or module
