"""Unit tests for runs, points, and the R1--R5 validator."""

import pytest

from repro.model.events import (
    CrashEvent,
    DoEvent,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
)
from repro.model.run import Point, Run, RunValidationError, r5_violations, validate_run

PROCS = ("p1", "p2", "p3")


def make_run(timelines, duration=10, meta=None):
    return Run(PROCS, timelines, duration, meta=meta)


def simple_run():
    msg = Message("alpha", "x")
    return make_run(
        {
            "p1": [
                (1, InitEvent("p1", "x")),
                (2, SendEvent("p1", "p2", msg)),
                (3, DoEvent("p1", "x")),
            ],
            "p2": [(4, ReceiveEvent("p2", "p1", msg)), (5, DoEvent("p2", "x"))],
            "p3": [(3, CrashEvent("p3"))],
        }
    )


class TestRunAsFunction:
    def test_r1_initial_cut_empty(self):
        r = simple_run()
        cut = r.cut(0)
        # R1: at time 0, every process's history is empty.
        for p in PROCS:
            assert len(cut[p]) == 0

    def test_history_grows_with_time(self):
        r = simple_run()
        assert len(r.history("p1", 0)) == 0
        assert len(r.history("p1", 1)) == 1
        assert len(r.history("p1", 2)) == 2
        assert len(r.history("p1", 3)) == 3
        assert len(r.history("p1", 9)) == 3

    def test_history_beyond_duration_is_final(self):
        r = simple_run()
        assert r.history("p1", 1000) == r.final_history("p1")

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            simple_run().history("p1", -1)

    def test_cut_collects_all_histories(self):
        r = simple_run()
        c = r.cut(5)
        assert c["p2"].received("p1")
        assert c["p3"].crashed

    def test_points_enumeration(self):
        r = simple_run()
        pts = list(r.points())
        assert len(pts) == r.duration + 1
        assert pts[0].time == 0

    def test_all_events_sorted(self):
        r = simple_run()
        times = [t for t, _ in r.all_events()]
        assert times == sorted(times)


class TestFailureQueries:
    def test_faulty_set(self):
        r = simple_run()
        assert r.faulty() == frozenset({"p3"})
        assert r.correct() == frozenset({"p1", "p2"})

    def test_crash_time(self):
        r = simple_run()
        assert r.crash_time("p3") == 3
        assert r.crash_time("p1") is None

    def test_crashed_by(self):
        r = simple_run()
        assert not r.crashed_by("p3", 2)
        assert r.crashed_by("p3", 3)
        assert r.crashed_by("p3", 100)
        assert not r.crashed_by("p1", 100)


class TestRunIdentity:
    def test_meta_excluded_from_equality(self):
        a = simple_run()
        b = simple_run()
        b.meta["seed"] = 42
        assert a == b
        assert hash(a) == hash(b)

    def test_different_durations_differ(self):
        msg = Message("m")
        t = {"p1": [(1, SendEvent("p1", "p2", msg))], "p2": [], "p3": []}
        assert make_run(t, duration=5) != make_run(t, duration=6)


class TestExtends:
    def test_run_extends_own_prefix(self):
        r = simple_run()
        assert r.extends(r, 3)

    def test_divergent_runs_do_not_extend(self):
        r1 = simple_run()
        r2 = make_run({"p1": [(1, InitEvent("p1", "y"))], "p2": [], "p3": []})
        # At time 0 all cuts are empty (R1), so the prefix relation holds
        # trivially; from time 1 on the runs diverge.
        assert r2.extends(r1, 0)
        assert not r2.extends(r1, 1)


class TestPoint:
    def test_indistinguishability_is_history_equality(self):
        r = simple_run()
        # p3 crashes at 3; before that p3's history is empty in any run.
        other = make_run({"p1": [], "p2": [], "p3": []})
        assert Point(r, 2).indistinguishable_to("p3", Point(other, 7))
        assert not Point(r, 3).indistinguishable_to("p3", Point(other, 7))

    def test_point_cut(self):
        r = simple_run()
        assert Point(r, 4).cut() == r.cut(4)


class TestValidation:
    def test_valid_run_passes(self):
        validate_run(simple_run())

    def test_event_in_wrong_history(self):
        r = make_run({"p1": [(1, DoEvent("p2", "a"))], "p2": [], "p3": []})
        with pytest.raises(RunValidationError, match="recorded in"):
            validate_run(r)

    def test_two_events_same_tick_rejected(self):
        r = make_run(
            {"p1": [(2, DoEvent("p1", "a")), (2, DoEvent("p1", "b"))], "p2": [], "p3": []}
        )
        with pytest.raises(RunValidationError, match="R2"):
            validate_run(r)

    def test_r3_receive_without_send(self):
        r = make_run(
            {"p1": [], "p2": [(1, ReceiveEvent("p2", "p1", Message("m")))], "p3": []}
        )
        with pytest.raises(RunValidationError, match="R3"):
            validate_run(r)

    def test_r3_receive_before_send(self):
        msg = Message("m")
        r = make_run(
            {
                "p1": [(6, SendEvent("p1", "p2", msg))],
                "p2": [(2, ReceiveEvent("p2", "p1", msg))],
                "p3": [],
            }
        )
        with pytest.raises(RunValidationError, match="R3"):
            validate_run(r)

    def test_r3_multiplicity(self):
        # Two receives need two sends.
        msg = Message("m")
        r = make_run(
            {
                "p1": [(1, SendEvent("p1", "p2", msg))],
                "p2": [
                    (2, ReceiveEvent("p2", "p1", msg)),
                    (3, ReceiveEvent("p2", "p1", msg)),
                ],
                "p3": [],
            }
        )
        with pytest.raises(RunValidationError, match="R3"):
            validate_run(r)

    def test_r4_enforced_by_history(self):
        # The Run constructor builds histories by appending, so an event
        # after a crash raises at construction time.
        with pytest.raises(ValueError):
            make_run(
                {
                    "p1": [(1, CrashEvent("p1")), (2, DoEvent("p1", "a"))],
                    "p2": [],
                    "p3": [],
                }
            )

    def test_init_twice_rejected(self):
        r = make_run(
            {
                "p1": [(1, InitEvent("p1", "x")), (2, InitEvent("p1", "x"))],
                "p2": [],
                "p3": [],
            }
        )
        with pytest.raises(RunValidationError, match="twice"):
            validate_run(r)

    def test_init_in_foreign_history_rejected(self):
        r = make_run({"p1": [(1, InitEvent("p1", "x"))], "p2": [], "p3": []})
        validate_run(r)  # sanity: the well-formed version passes
        bad = make_run({"p2": [(1, InitEvent("p1", "x"))], "p1": [], "p3": []})
        with pytest.raises(RunValidationError):
            validate_run(bad)


class TestR5:
    def test_persistent_unreceived_send_to_live_process_violates(self):
        msg = Message("m")
        sends = [(i, SendEvent("p1", "p2", msg)) for i in range(1, 7)]
        r = make_run({"p1": sends, "p2": [], "p3": []}, duration=6)
        assert r5_violations(r)
        with pytest.raises(RunValidationError, match="R5"):
            validate_run(r)

    def test_sends_to_crashed_process_exempt(self):
        msg = Message("m")
        sends = [(i, SendEvent("p1", "p2", msg)) for i in range(1, 7)]
        r = make_run(
            {"p1": sends, "p2": [(1, CrashEvent("p2"))], "p3": []}, duration=6
        )
        assert not r5_violations(r)

    def test_one_receipt_satisfies_finite_r5(self):
        msg = Message("m")
        sends = [(i, SendEvent("p1", "p2", msg)) for i in range(1, 7)]
        r = make_run(
            {
                "p1": sends,
                "p2": [(7, ReceiveEvent("p2", "p1", msg))],
                "p3": [],
            },
            duration=7,
        )
        assert not r5_violations(r)

    def test_sender_that_stopped_early_is_flagged(self):
        # No recency test: `threshold` unreceived copies to a live
        # receiver are a violation even when the sender stopped long
        # before the end of the run.
        msg = Message("m")
        sends = [(i, SendEvent("p1", "p2", msg)) for i in range(1, 6)]
        r = make_run(
            {"p1": sends + [(40, DoEvent("p1", "x"))], "p2": [], "p3": []},
            duration=90,
        )
        assert r5_violations(r, send_threshold=5) == [("p1", "p2", msg, 5)]
        with pytest.raises(RunValidationError, match="R5"):
            validate_run(r, r5_send_threshold=5)

    def test_below_threshold_not_flagged(self):
        msg = Message("m")
        sends = [(i, SendEvent("p1", "p2", msg)) for i in range(1, 4)]
        r = make_run({"p1": sends, "p2": [], "p3": []}, duration=4)
        assert not r5_violations(r, send_threshold=5)
