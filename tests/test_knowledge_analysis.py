"""Tests for locality / stability / failure-insensitivity / A4 analyses."""

import pytest

from repro.knowledge.analysis import (
    a4_instance_holds,
    insensitive_to_failure,
    is_local,
    is_stable,
    knowledge_is_veridical,
)
from repro.knowledge.formulas import (
    Box,
    Crashed,
    Diamond,
    Inited,
    Knows,
    Not,
    Sent,
)
from repro.knowledge.semantics import ModelChecker
from repro.model.events import (
    CrashEvent,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
)
from repro.model.run import Point, Run
from repro.model.synthetic import synthetic_system
from repro.model.system import System
from tests.conftest import BACKENDS, kernel_path

PROCS = ("p1", "p2", "p3")
MSG = Message("m")


def system():
    learn = Run(
        PROCS,
        {
            "p1": [(4, ReceiveEvent("p1", "p2", MSG))],
            "p2": [(1, InitEvent("p2", ("p2", "x"))), (3, SendEvent("p2", "p1", MSG))],
            "p3": [(2, CrashEvent("p3"))],
        },
        duration=8,
    )
    quiet = Run(
        PROCS,
        {
            "p1": [],
            "p2": [(1, InitEvent("p2", ("p2", "x"))), (3, SendEvent("p2", "p1", MSG))],
            "p3": [],
        },
        duration=8,
    )
    silent = Run(PROCS, {"p1": [], "p2": [], "p3": []}, duration=8)
    # p3 crashes but nothing else happens: without this run, p3's crash
    # would only ever co-occur with p2's init, and crashing would
    # (spuriously) teach p3 about the init (A1-style independence needs
    # the failure pattern to vary over the rest of the behaviour).
    silent_crash = Run(
        PROCS, {"p1": [], "p2": [], "p3": [(2, CrashEvent("p3"))]}, duration=8
    )
    return System([learn, quiet, silent, silent_crash])


class TestLocality:
    def test_history_primitives_local(self):
        mc = ModelChecker(system())
        assert is_local(mc, Inited("p2", ("p2", "x")), "p2")
        assert is_local(mc, Crashed("p3"), "p3")

    def test_remote_facts_not_local(self):
        mc = ModelChecker(system())
        assert not is_local(mc, Crashed("p3"), "p1")

    def test_knowledge_always_local_to_knower(self):
        mc = ModelChecker(system())
        f = Knows("p1", Crashed("p3"))
        assert is_local(mc, f, "p1")


class TestStability:
    def test_event_facts_stable(self):
        mc = ModelChecker(system())
        assert is_stable(mc, Crashed("p3"))
        assert is_stable(mc, Inited("p2", ("p2", "x")))
        assert is_stable(mc, Sent("p2", "p1", MSG))

    def test_negation_not_stable(self):
        mc = ModelChecker(system())
        assert not is_stable(mc, Not(Crashed("p3")))

    def test_box_stable_diamond_not_antistable(self):
        mc = ModelChecker(system())
        assert is_stable(mc, Box(Not(Crashed("p1"))))
        # Diamond of a stable formula happens to be stable too.
        assert is_stable(mc, Diamond(Crashed("p3")))

    def test_knowledge_of_stable_stable(self):
        mc = ModelChecker(system())
        assert is_stable(mc, Knows("p1", Crashed("p3")))


class TestInsensitivity:
    def test_a3_knowledge_of_init_insensitive(self):
        # A3: K_q(init_p(alpha)) is insensitive to failure by q --
        # crashing does not teach p3 anything about p2's initiation.
        # (Definition 3.3 applies to formulas local to q, which
        # K_p3(...) is; the bare Inited is local to p2, not p3.)
        mc = ModelChecker(system())
        assert insensitive_to_failure(
            mc, Knows("p3", Inited("p2", ("p2", "x"))), "p3"
        )

    def test_crash_formula_is_sensitive(self):
        # crash(p3) itself flips exactly when crash_p3 is appended.
        mc = ModelChecker(system())
        assert not insensitive_to_failure(mc, Crashed("p3"), "p3")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agrees_with_naive_scan(self, backend):
        """The kernel's class rows give the same verdict as scanning every
        point for the first occurrence of each history."""
        verdicts = set()
        with kernel_path(backend):
            for seed in range(4):
                s = synthetic_system(3, 8, seed=seed, duration=5, crash_prob=0.5)
                mc = ModelChecker(s)
                for q in s.processes:
                    other = s.processes[0] if q != s.processes[0] else s.processes[1]
                    for phi in (
                        Crashed(q),
                        Knows(q, Crashed(other)),
                        Knows(q, Not(Crashed(other))),
                        Diamond(Crashed(other)),
                    ):
                        expected = _naive_insensitive(mc, phi, q)
                        assert insensitive_to_failure(mc, phi, q) == expected, (seed, q, phi)
                        verdicts.add(expected)
        assert verdicts == {True, False}


def _naive_insensitive(checker, formula, process):
    """Definition 3.3 by a full point scan: the first point carrying each
    history of ``process`` stands for it, and every h + crash history must
    agree with h."""
    first = {}
    for pt in checker.system.points():
        first.setdefault(pt.history(process), pt)
    for history, point in first.items():
        if not history.crashed:
            continue
        parent = first.get(history.prefix(len(history) - 1))
        if parent is not None and (
            checker.holds(formula, point) != checker.holds(formula, parent)
        ):
            return False
    return True


class TestA4Instance:
    def test_holds_when_ignorant_point_exists(self):
        mc = ModelChecker(system())
        phi = Inited("p2", ("p2", "x"))
        # At time 0 of the learn run nobody (except p2) knows phi; the
        # silent run provides the not-phi point with matching histories.
        pt = Point(mc.system.runs[0], 0)
        group = frozenset({"p1", "p3"})
        assert a4_instance_holds(mc, phi, pt, group)

    def test_fails_without_witness_point(self):
        # A system whose every run has phi true from the start: no
        # (r', m) with ~phi exists.
        always = Run(
            PROCS,
            {
                "p1": [],
                "p2": [(1, InitEvent("p2", ("p2", "x")))],
                "p3": [],
            },
            duration=6,
        )
        mc = ModelChecker(System([always]))
        phi = Inited("p2", ("p2", "x"))
        pt = Point(always, 3)
        group = frozenset({"p1", "p3"})
        assert not a4_instance_holds(mc, phi, pt, group)

    def test_rejects_knowing_group(self):
        mc = ModelChecker(system())
        phi = Inited("p2", ("p2", "x"))
        pt = Point(mc.system.runs[0], 3)
        import pytest

        with pytest.raises(ValueError):
            a4_instance_holds(mc, phi, pt, frozenset({"p2"}))


class TestVeridicalityHelper:
    def test_arbitrary_formula(self):
        mc = ModelChecker(system())
        assert knowledge_is_veridical(mc, Crashed("p3"), "p1")
        assert knowledge_is_veridical(mc, Diamond(Crashed("p3")), "p2")
