"""Whole-program analysis tests: project index, call graph, effect
fixpoint, and the cross-file findings they produce."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import ModuleUnderLint, lint_paths
from repro.lint.callgraph import CallGraph
from repro.lint.effects import analyze
from repro.lint.project import ProjectIndex, summarize


def _index(tmp_path: Path, files: dict[str, str]) -> ProjectIndex:
    summaries = []
    for name, src in files.items():
        source = textwrap.dedent(src)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        mod = ModuleUnderLint(path, name, source)
        summaries.append(summarize(mod))
    return ProjectIndex.build(summaries)


def _write(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    root.mkdir(exist_ok=True)
    for name, src in files.items():
        (root / name).write_text(textwrap.dedent(src))
    return root


# -- project index and call graph ---------------------------------------------


class TestProjectIndex:
    def test_qualnames_cover_methods_and_nested_functions(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def top():
                    def inner():
                        pass
                    return inner

                class Box:
                    def get(self):
                        return 1
                """
            },
        )
        names = set(index.functions)
        assert "repro.serve.m::top" in names
        assert "repro.serve.m::top.<locals>.inner" in names
        assert "repro.serve.m::Box.get" in names
        assert index.functions["repro.serve.m::Box.get"].class_name == "Box"

    def test_bare_name_and_self_method_resolution(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def helper():
                    pass

                class Svc:
                    def _step(self):
                        pass

                    def run(self):
                        helper()
                        self._step()
                """
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee for e in graph.out_edges.get("repro.serve.m::Svc.run", [])
        }
        assert callees == {"repro.serve.m::helper", "repro.serve.m::Svc._step"}

    def test_cross_module_import_and_attr_type_resolution(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "state.py": """\
                # repro: lint-module[repro.serve.state]
                class Store:
                    def load(self):
                        pass
                """,
                "server.py": """\
                # repro: lint-module[repro.serve.server]
                from repro.serve.state import Store

                class Server:
                    def __init__(self, store: Store) -> None:
                        self.store = store

                    def boot(self):
                        self.store.load()
                        fresh = Store()
                        fresh.load()
                """,
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee
            for e in graph.out_edges.get("repro.serve.server::Server.boot", [])
        }
        assert "repro.serve.state::Store.load" in callees

    def test_base_class_method_resolution(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                class Base:
                    def shared(self):
                        pass

                class Child(Base):
                    def go(self):
                        self.shared()
                """
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee for e in graph.out_edges.get("repro.serve.m::Child.go", [])
        }
        assert callees == {"repro.serve.m::Base.shared"}

    def test_unresolved_calls_produce_no_edges(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def run(thing):
                    thing.spin()
                    getattr(thing, "spin")()
                """
            },
        )
        graph = CallGraph(index)
        assert graph.out_edges.get("repro.serve.m::run", []) == []


# -- effect fixpoint ----------------------------------------------------------


class TestEffects:
    def test_blocking_propagates_two_hops_with_chain(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                import time

                def low():
                    time.sleep(1)

                def mid():
                    low()

                def high():
                    mid()
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.serve.m::high", "blocking")
        chain = effects.describe_chain("repro.serve.m::high", "blocking")
        assert chain == "mid -> low -> time.sleep"

    def test_executor_thunk_cuts_blocking_propagation(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                import time

                def blocker():
                    time.sleep(1)

                async def handler(loop):
                    await loop.run_in_executor(None, blocker)
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.serve.m::blocker", "blocking")
        assert not effects.has_effect("repro.serve.m::handler", "blocking")

    def test_unpicklable_flows_only_through_return_positions(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.runtime.m]
                import threading

                def make():
                    return threading.Lock()

                def passthru():
                    return make()

                def internal_use_only():
                    guard = make()
                    return 1
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.runtime.m::make", "unpicklable")
        assert effects.has_effect("repro.runtime.m::passthru", "unpicklable")
        assert not effects.has_effect(
            "repro.runtime.m::internal_use_only", "unpicklable"
        )

    def test_fixpoint_is_deterministic(self, tmp_path: Path) -> None:
        files = {
            "m.py": """\
            # repro: lint-module[repro.serve.m]
            import time

            def a():
                b()
                c()

            def b():
                time.sleep(1)

            def c():
                time.sleep(2)
            """
        }
        first = analyze(_index(tmp_path / "one", files))
        second = analyze(_index(tmp_path / "two", files))
        w1 = first.effect_of("repro.serve.m::a", "blocking")
        w2 = second.effect_of("repro.serve.m::a", "blocking")
        assert w1 is not None and w2 is not None
        assert (w1.via, w1.line, w1.col) == (w2.via, w2.line, w2.col)
        # smallest call site wins: b() on the earlier line
        assert w1.via == "repro.serve.m::b"


# -- cross-file findings -----------------------------------------------------


_SERVE_A = """\
# repro: lint-module[repro.serve.handlers]
import asyncio
from repro.serve.util import helper


async def handle():
    helper()
    await asyncio.sleep(0)
"""

_SERVE_B_CLEAN = """\
# repro: lint-module[repro.serve.util]
def helper():
    return 1
"""

_SERVE_B_BLOCKING = """\
# repro: lint-module[repro.serve.util]
import time


def helper():
    time.sleep(0.5)
"""


def test_blocking_helper_in_one_file_flags_its_caller_in_another(
    tmp_path: Path,
) -> None:
    root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_CLEAN})
    assert lint_paths([root]).findings == ()

    (root / "b.py").write_text(textwrap.dedent(_SERVE_B_BLOCKING))
    findings = lint_paths([root]).findings
    assert [f.rule for f in findings] == ["ASY003"]
    assert findings[0].file.endswith("a.py")


# -- whole-program findings respect suppressions ------------------------------


def test_project_findings_respect_lint_ok_comments(tmp_path: Path) -> None:
    root = _write(
        tmp_path,
        {
            "a.py": """\
            # repro: lint-module[repro.serve.sup]
            import asyncio
            import time


            def blocker():
                time.sleep(1)


            async def handle():
                blocker()  # repro: lint-ok[ASY003]
                await asyncio.sleep(0)
            """
        },
    )
    report = lint_paths([root])
    assert report.findings == ()
