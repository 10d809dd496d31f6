"""Regression tests for the sites the static analyzer audited.

The DET005 suppressions in ``repro.model.system`` rest on one claim:
every id()-keyed run is strongly pinned by ``self._runs``, so a live
foreign object can never alias a member's identity, and foreign runs
resolve by *value* (or not at all).  These tests pin that contract, plus
the two true positives the linter surfaced (set-iteration order leaking
into an error message and into the reference kernel's sweep order).
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.knowledge.analysis import a4_instance_holds
from repro.knowledge.formulas import Inited
from repro.knowledge.semantics import ModelChecker
from repro.model.events import InitEvent, Message, ReceiveEvent, SendEvent
from repro.model.run import Point, Run
from repro.model.synthetic import synthetic_system
from repro.model.system import System

MSG = Message("m")


class TestRunIndexIdentityAudit:
    def test_members_resolve_by_identity(self) -> None:
        system = synthetic_system(3, 6, seed=11)
        for i, run in enumerate(system.runs):
            assert system.run_index(run) == i

    def test_equal_foreign_run_resolves_by_value(self) -> None:
        """A pickled clone has a different id() but the same value; the
        identity map must miss and the value fallback must answer."""
        system = synthetic_system(3, 6, seed=11)
        for i, run in enumerate(system.runs):
            clone = pickle.loads(pickle.dumps(run))
            assert clone is not run and clone == run
            assert system.run_index(clone) == i
            assert system.point_id(Point(clone, 0)) == system.point_id(
                Point(run, 0)
            )

    def test_unrelated_foreign_run_is_unknown(self) -> None:
        system = synthetic_system(3, 6, seed=11)
        other = synthetic_system(3, 1, seed=99).runs[0]
        assert other not in system.runs
        assert system.run_index(other) is None
        assert system.point_id(Point(other, 0)) is None

    def test_transient_objects_never_alias_members(self) -> None:
        """Id recycling stress: allocate and drop many runs; a recycled
        id can only ever be *asked about* via a new live object, which
        cannot share an id with the pinned members."""
        system = synthetic_system(3, 4, seed=7)
        member_ids = {id(r) for r in system.runs}
        for k in range(200):
            transient = synthetic_system(3, 1, seed=1000 + k).runs[0]
            assert id(transient) not in member_ids
            idx = system.run_index(transient)
            if idx is not None:  # only via the value fallback
                assert system.runs[idx] == transient


class TestWholeProgramAudit:
    """The whole-program rules (ASY003/ASY004/DET007/POOL004) audited
    ``src/repro`` and found the serve package already disciplined: every
    blocking state/WAL operation is executor-shipped and every
    read-modify-write spanning an await holds the session lock.  These
    tests pin that the analysis *sees* the code (the effect fixpoint
    resolves the blocking chains) and still reports it clean — so a
    future refactor that drops the executor or the lock turns into a
    lint finding, and a future analyzer regression that goes blind
    fails the visibility assertions instead of passing vacuously."""

    @staticmethod
    def _src() -> Path:
        return Path(__file__).parent.parent / "src" / "repro"

    def test_new_rules_report_serve_clean(self) -> None:
        new_rules = {"ASY003", "ASY004", "DET007", "POOL004"}
        report = lint_paths([self._src()], select=lambda rid: rid in new_rules)
        assert report.findings == (), "\n".join(
            f.render() for f in report.findings
        )

    def test_effect_analysis_sees_serve_blocking_chains(self) -> None:
        """Visibility guard: the WAL/state persistence helpers the
        server executor-ships ARE blocking in the effect fixpoint; the
        coroutines that ship them are NOT.  If the fixpoint went blind,
        the first assertion fails; if the executor discipline broke,
        ASY003 fires via test_new_rules_report_serve_clean."""
        from repro.lint.effects import analyze
        from repro.lint.engine import (
            _display_path,
            _parse_one,
            _split_rules,
            iter_python_files,
        )
        from repro.lint.project import ProjectIndex
        from repro.lint.registry import select_rules

        file_rules, _ = _split_rules(select_rules(None))
        summaries = []
        for path in iter_python_files([self._src()]):
            result = _parse_one(
                path,
                _display_path(path),
                path.read_bytes().decode("utf-8"),
                file_rules,
            )
            assert result.parse_error is None, result.parse_error
            assert result.summary is not None
            summaries.append(result.summary)
        effects = analyze(ProjectIndex.build(summaries))

        blocking = {
            gqn
            for gqn in effects.effects
            if effects.has_effect(gqn, "blocking")
        }
        # The persistence layer the server off-loads is visibly blocking.
        assert any(gqn.startswith("repro.serve.state::") for gqn in blocking)
        # The server coroutines that executor-ship it stay clean.
        server_coroutines = [
            gqn
            for gqn, decl in effects.index.functions.items()
            if gqn.startswith("repro.serve.server::") and decl.is_async
        ]
        assert server_coroutines, "expected coroutines in repro.serve.server"
        leaked = [gqn for gqn in server_coroutines if gqn in blocking]
        assert leaked == [], f"event-loop blocking leaked into: {leaked}"


class TestSetOrderRegressions:
    def _checker(self) -> ModelChecker:
        procs = ("p1", "p2", "p3")
        learn = Run(
            procs,
            {
                "p1": [(4, ReceiveEvent("p1", "p2", MSG))],
                "p2": [
                    (1, InitEvent("p2", ("p2", "x"))),
                    (3, SendEvent("p2", "p1", MSG)),
                ],
                "p3": [],
            },
            duration=6,
        )
        silent = Run(procs, {"p1": [], "p2": [], "p3": []}, duration=6)
        return ModelChecker(System([learn, silent]))

    def test_a4_precondition_error_names_smallest_process(self) -> None:
        """The precondition loop iterates sorted(group), so the process
        named in the error is the lexicographically smallest knower —
        not whichever one set iteration order yields first."""
        mc = self._checker()
        phi = Inited("p2", ("p2", "x"))
        point = Point(mc.system.runs[0], 5)  # p1 heard, p2 acted: both know
        group = frozenset({"p2", "p1"})
        with pytest.raises(ValueError) as exc:
            a4_instance_holds(mc, phi, point, group)
        assert str(exc.value).startswith("p1 ")
