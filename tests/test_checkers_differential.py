"""Differential tests: the run checkers against History-based references.

``r5_violations``, ``Run.faulty``/``correct`` and the DC checkers read a
run's timelines directly; they used to build every process's prefix
``History`` chain and ask it ``received``/``did``/``crashed``.  The
History-based versions live on here as the reference, and every checker
must give the reference's verdicts and witness strings on the simulator
matrix of ``test_sim_digest`` plus the hand-built runs of
``test_model_run`` and ``test_core_properties``.
"""

from __future__ import annotations

import pytest

from repro.core.properties import (
    actions_in,
    dc1,
    dc2,
    dc2_prime,
    dc3,
    nudc_holds,
    udc_holds,
)
from repro.detectors.base import GroundTruthView
from repro.detectors.properties import PropertyVerdict
from repro.model.events import (
    CrashEvent,
    DoEvent,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
)
from repro.model.run import Run, r5_violations
from repro.workloads.generators import initiator_of
from tests.test_sim_digest import matrix_runs

# ---------------------------------------------------------------------------
# The reference: the History-based checkers
# ---------------------------------------------------------------------------


def ref_r5_violations(run, *, send_threshold=5):
    violations = []
    for p in run.processes:
        send_counts = {}
        for t, event in run.timeline(p):
            if isinstance(event, SendEvent):
                send_counts.setdefault((event.receiver, event.message), []).append(t)
        for (q, message), times in send_counts.items():
            if q not in run.processes or len(times) < send_threshold:
                continue
            if run.crash_time(q) is not None:
                continue
            if not run.final_history(q).received(p, message):
                violations.append((p, q, message, len(times)))
    return violations


def ref_faulty(run):
    return frozenset(p for p in run.processes if run.final_history(p).crashed)


def ref_correct(run):
    return frozenset(run.processes) - ref_faulty(run)


def _ref_init_time(run, action):
    for tick, event in run.timeline(initiator_of(action)):
        if isinstance(event, InitEvent) and event.action == action:
            return tick
    return None


def ref_dc1(run, action):
    p = initiator_of(action)
    if _ref_init_time(run, action) is None:
        return PropertyVerdict.ok()
    if run.final_history(p).did(action) or run.final_history(p).crashed:
        return PropertyVerdict.ok()
    return PropertyVerdict.fail(
        f"{p} initiated {action!r} but neither performed it nor crashed"
    )


def ref_dc2(run, action):
    performers = [q for q in run.processes if run.final_history(q).did(action)]
    if not performers:
        return PropertyVerdict.ok()
    for q2 in run.processes:
        h = run.final_history(q2)
        if not h.did(action) and not h.crashed:
            return PropertyVerdict.fail(
                f"{performers[0]} performed {action!r} but correct {q2} never did"
            )
    return PropertyVerdict.ok()


def ref_dc2_prime(run, action):
    correct_performers = [
        q
        for q in run.processes
        if run.final_history(q).did(action) and not run.final_history(q).crashed
    ]
    if not correct_performers:
        return PropertyVerdict.ok()
    for q2 in run.processes:
        h = run.final_history(q2)
        if not h.did(action) and not h.crashed:
            return PropertyVerdict.fail(
                f"correct {correct_performers[0]} performed {action!r} "
                f"but correct {q2} never did"
            )
    return PropertyVerdict.ok()


def _ref_each_action(run, action):
    if action is not None:
        return [action]
    performed = {
        e.action for p in run.processes for e in run.events(p) if isinstance(e, DoEvent)
    }
    return sorted(actions_in(run) | performed)


def _ref_holds(run, action, checks):
    for a in _ref_each_action(run, action):
        for check in checks:
            verdict = check(run, a)
            if not verdict:
                return verdict
    return PropertyVerdict.ok()


def ref_udc_holds(run, action=None):
    return _ref_holds(run, action, (ref_dc1, ref_dc2, dc3))


def ref_nudc_holds(run, action=None):
    return _ref_holds(run, action, (ref_dc1, ref_dc2_prime, dc3))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

P = ("p1", "p2", "p3")
A = ("p1", "a")
B = ("p2", "b")
M = Message("m")


def _hand_built() -> list[tuple[str, Run]]:
    """The hand-built runs of test_model_run and test_core_properties."""
    alpha = Message("alpha", "x")
    sends = [(i, SendEvent("p1", "p2", M)) for i in range(1, 7)]
    timelines = {
        "model/simple": (
            {
                "p1": [(1, InitEvent("p1", "x")), (2, SendEvent("p1", "p2", alpha)),
                       (3, DoEvent("p1", "x"))],
                "p2": [(4, ReceiveEvent("p2", "p1", alpha)), (5, DoEvent("p2", "x"))],
                "p3": [(3, CrashEvent("p3"))],
            },
            10,
        ),
        "model/r5-unreceived": ({"p1": sends, "p2": [], "p3": []}, 6),
        "model/r5-to-crashed": ({"p1": sends, "p2": [(1, CrashEvent("p2"))], "p3": []}, 6),
        "model/r5-one-receipt": (
            {"p1": sends, "p2": [(7, ReceiveEvent("p2", "p1", M))], "p3": []}, 7,
        ),
        "model/r5-below-threshold": ({"p1": sends[:3], "p2": [], "p3": []}, 4),
        "model/r5-stopped-early": (
            {"p1": sends[:5] + [(40, DoEvent("p1", "x"))], "p2": [], "p3": []}, 90,
        ),
        "props/empty": ({"p1": [], "p2": [], "p3": []}, 20),
        "props/full-udc": (
            {
                "p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A))],
                "p2": [(5, DoEvent("p2", A))],
                "p3": [(6, DoEvent("p3", A))],
            },
            20,
        ),
        "props/stalled-initiator": ({"p1": [(1, InitEvent("p1", A))], "p2": [], "p3": []}, 20),
        "props/initiator-crash": (
            {"p1": [(1, InitEvent("p1", A)), (2, CrashEvent("p1"))], "p2": [], "p3": []}, 20,
        ),
        "props/crash-discharges": (
            {
                "p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A))],
                "p2": [(5, DoEvent("p2", A))],
                "p3": [(4, CrashEvent("p3"))],
            },
            20,
        ),
        "props/faulty-performer": (
            {
                "p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A)), (4, CrashEvent("p1"))],
                "p2": [],
                "p3": [(9, DoEvent("p3", A))],
            },
            20,
        ),
        "props/faulty-performer-alone": (
            {
                "p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A)), (4, CrashEvent("p1"))],
                "p2": [],
                "p3": [],
            },
            20,
        ),
        "props/correct-performer-alone": (
            {"p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A))], "p2": [], "p3": []}, 20,
        ),
        "props/do-without-init": ({"p1": [], "p2": [(3, DoEvent("p2", A))], "p3": []}, 20),
        "props/do-before-init": (
            {"p1": [(5, InitEvent("p1", A))], "p2": [(3, DoEvent("p2", A))], "p3": []}, 20,
        ),
        "props/do-at-init-time": (
            {"p1": [(3, InitEvent("p1", A))], "p2": [(3, DoEvent("p2", A))], "p3": []}, 20,
        ),
        "props/two-actions": (
            {
                "p1": [(1, InitEvent("p1", A)), (3, DoEvent("p1", A))],
                "p2": [(2, InitEvent("p2", B)), (4, DoEvent("p2", A)), (5, DoEvent("p2", B))],
                "p3": [(6, DoEvent("p3", A))],
            },
            20,
        ),
    }
    return [(name, Run(P, tls, duration)) for name, (tls, duration) in timelines.items()]


CASES = list(matrix_runs()) + _hand_built()
IDS = [name for name, _ in CASES]
RUNS = [run for _, run in CASES]


def _actions(run):
    """Every action of the run, plus one nobody initiated or performed."""
    return _ref_each_action(run, None) + [("p1", "never")]


def _outcome(check, *args):
    """A checker's verdict, or the error it raises: actions that are not
    tagged by a process of the run (consensus decisions, bare strings)
    have no initiator timeline, and both sides must fail alike."""
    try:
        return check(*args)
    except KeyError as exc:
        return ("KeyError", exc.args)


# ---------------------------------------------------------------------------
# The differential checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("run", RUNS, ids=IDS)
def test_r5_violations_match_reference(run):
    for threshold in (1, 2, 3, 5, 6):
        assert r5_violations(run, send_threshold=threshold) == ref_r5_violations(
            run, send_threshold=threshold
        )


@pytest.mark.parametrize("run", RUNS, ids=IDS)
def test_faulty_and_correct_match_reference(run):
    assert run.faulty() == ref_faulty(run)
    assert run.correct() == ref_correct(run)


@pytest.mark.parametrize("run", RUNS, ids=IDS)
def test_dc_checkers_match_reference(run):
    pairs = [(dc1, ref_dc1), (dc2, ref_dc2), (dc2_prime, ref_dc2_prime),
             (udc_holds, ref_udc_holds), (nudc_holds, ref_nudc_holds)]
    for action in _actions(run):
        for check, reference in pairs:
            assert _outcome(check, run, action) == _outcome(reference, run, action)
    assert _outcome(udc_holds, run) == _outcome(ref_udc_holds, run)
    assert _outcome(nudc_holds, run) == _outcome(ref_nudc_holds, run)


def test_inputs_include_the_violations_that_matter():
    runs = dict(CASES)
    # R5: the unfair blackhole swallows every alpha-message to p3
    assert ref_r5_violations(runs["nudc/unfair-blackhole"], send_threshold=5)
    # DC2: NUDC's initiator performs, then crashes before any send lands
    assert not ref_dc2(runs["nudc/fair/initiator-crash/0"], ("p1", "a0"))
    # DC3: a do without an init
    assert not dc3(runs["props/do-without-init"], A)
    # DC1: an initiator that neither performs nor crashes
    assert not ref_dc1(runs["props/stalled-initiator"], A)


def test_crashed_by_excludes_a_crash_recorded_after_the_tick():
    crash_ticks = {"p2": 5}
    truth = GroundTruthView(P, frozenset({"p2", "p3"}), crash_ticks)
    assert truth.crashed_by(4) == frozenset()
    assert truth.crashed_by(5) == truth.crashed_by(9) == frozenset({"p2"})
    crash_ticks["p3"] = 8  # the executor records crashes as they land
    assert truth.crashed_by(7) == frozenset({"p2"})
    assert truth.crashed_by(8) == truth.crashed_by(30) == frozenset({"p2", "p3"})
    assert truth.crashed_by(4) == frozenset()
    assert truth.live_by(7) == frozenset({"p1", "p3"})
