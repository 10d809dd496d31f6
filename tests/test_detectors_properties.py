"""Unit tests for the detector property checkers on hand-built runs.

Each checker gets a positive and a negative hand-crafted run, so the
checkers themselves are validated independently of the oracles."""

import random

from repro.detectors.properties import (
    PropertyVerdict,
    atd_accuracy,
    generalized_impermanent_strong_completeness,
    generalized_strong_accuracy,
    impermanent_strong_completeness,
    impermanent_weak_completeness,
    is_perfect,
    is_strong,
    is_t_useful,
    is_weak,
    strong_accuracy,
    strong_completeness,
    system_satisfies,
    weak_accuracy,
    weak_completeness,
)
from repro.model.events import (
    CrashEvent,
    GeneralizedSuspicion,
    StandardSuspicion,
    SuspectEvent,
)
from repro.model.run import Run
from repro.model.system import System

PROCS = ("p1", "p2", "p3")


def sus(p, suspects, derived=False):
    return SuspectEvent(p, StandardSuspicion(frozenset(suspects)), derived=derived)


def gsus(p, suspects, k):
    return SuspectEvent(p, GeneralizedSuspicion(frozenset(suspects), k))


def build(timelines, duration=20):
    return Run(PROCS, timelines, duration)


class TestStrongAccuracy:
    def test_holds_when_suspicions_follow_crashes(self):
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, sus("p1", {"p3"}))],
                "p2": [],
            }
        )
        assert strong_accuracy(r)

    def test_violated_by_premature_suspicion(self):
        r = build(
            {
                "p3": [(8, CrashEvent("p3"))],
                "p1": [(5, sus("p1", {"p3"}))],
                "p2": [],
            }
        )
        verdict = strong_accuracy(r)
        assert not verdict
        assert "p3" in verdict.witness

    def test_violated_by_suspecting_correct(self):
        r = build({"p1": [(5, sus("p1", {"p2"}))], "p2": [], "p3": []})
        assert not strong_accuracy(r)

    def test_derived_flag_separates_streams(self):
        r = build(
            {
                "p1": [(5, sus("p1", {"p2"})), (6, sus("p1", set(), derived=True))],
                "p2": [],
                "p3": [],
            }
        )
        assert not strong_accuracy(r)  # the original stream lies
        assert strong_accuracy(r, derived=True)  # the derived one is clean


class TestWeakAccuracy:
    def test_holds_with_unsuspected_correct(self):
        r = build({"p1": [(5, sus("p1", {"p2"}))], "p2": [], "p3": []})
        assert weak_accuracy(r)  # p1 and p3 never suspected

    def test_violated_when_all_correct_suspected(self):
        r = build(
            {
                "p1": [(5, sus("p1", {"p2", "p3"}))],
                "p2": [(6, sus("p2", {"p1"}))],
                "p3": [],
            }
        )
        assert not weak_accuracy(r)

    def test_vacuous_when_everyone_crashes(self):
        r = build(
            {
                "p1": [(1, sus("p1", {"p2", "p3", "p1"})), (3, CrashEvent("p1"))],
                "p2": [(2, CrashEvent("p2"))],
                "p3": [(2, CrashEvent("p3"))],
            }
        )
        assert weak_accuracy(r)


class TestCompleteness:
    def crashed_run(self, reports_p1, reports_p2=()):
        return build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": list(reports_p1),
                "p2": list(reports_p2),
            }
        )

    def test_strong_completeness_needs_all_correct(self):
        r = self.crashed_run([(5, sus("p1", {"p3"}))])
        assert not strong_completeness(r)  # p2 never suspects p3
        r2 = self.crashed_run(
            [(5, sus("p1", {"p3"}))], [(6, sus("p2", {"p3"}))]
        )
        assert strong_completeness(r2)

    def test_permanence_required(self):
        # Suspicion later retracted: not permanent.
        r = self.crashed_run(
            [(5, sus("p1", {"p3"})), (9, sus("p1", set()))],
            [(6, sus("p2", {"p3"}))],
        )
        assert not strong_completeness(r)
        assert impermanent_strong_completeness(r)

    def test_resuspicion_after_retraction_counts(self):
        r = self.crashed_run(
            [(5, sus("p1", {"p3"})), (9, sus("p1", set())), (12, sus("p1", {"p3"}))],
            [(6, sus("p2", {"p3"}))],
        )
        assert strong_completeness(r)

    def test_weak_completeness_one_witness_enough(self):
        r = self.crashed_run([(5, sus("p1", {"p3"}))])
        assert weak_completeness(r)

    def test_weak_completeness_fails_with_no_witness(self):
        r = self.crashed_run([])
        assert not weak_completeness(r)

    def test_impermanent_weak(self):
        r = self.crashed_run([(5, sus("p1", {"p3"})), (9, sus("p1", set()))])
        assert impermanent_weak_completeness(r)
        assert not weak_completeness(r)

    def test_all_crash_vacuous(self):
        r = build(
            {
                "p1": [(2, CrashEvent("p1"))],
                "p2": [(2, CrashEvent("p2"))],
                "p3": [(2, CrashEvent("p3"))],
            }
        )
        assert weak_completeness(r)
        assert impermanent_weak_completeness(r)


class TestDetectorClasses:
    def test_perfect_conjunction(self):
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, sus("p1", {"p3"}))],
                "p2": [(6, sus("p2", {"p3"}))],
            }
        )
        assert is_perfect(r)
        assert is_strong(r)
        assert is_weak(r)

    def test_strong_not_perfect(self):
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, sus("p1", {"p3", "p2"}))],  # false positive on p2
                "p2": [(6, sus("p2", {"p3"}))],
            }
        )
        assert not is_perfect(r)
        assert is_strong(r)


class TestGeneralized:
    def test_accuracy_backed_by_crashes(self):
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, gsus("p1", {"p3", "p2"}, 1))],
                "p2": [],
            }
        )
        assert generalized_strong_accuracy(r)

    def test_accuracy_violated_by_overcount(self):
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, gsus("p1", {"p3", "p2"}, 2))],
                "p2": [],
            }
        )
        assert not generalized_strong_accuracy(r)

    def test_t_useful_completeness(self):
        # n=3, t=1, F={p3}: (S={p3}, k=1) satisfies (a)-(c).
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, gsus("p1", {"p3"}, 1))],
                "p2": [(6, gsus("p2", {"p3"}, 1))],
            }
        )
        assert generalized_impermanent_strong_completeness(r, 1)
        assert is_t_useful(r, 1)

    def test_useless_report_fails_completeness(self):
        # (S, 0) with |S| = 2 and t = 1 fails n - |S| > t - k (1 > 1).
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, gsus("p1", {"p3", "p2"}, 0))],
                "p2": [(6, gsus("p2", {"p3", "p2"}, 0))],
            }
        )
        assert not generalized_impermanent_strong_completeness(r, 1)

    def test_subset_must_cover_faulty(self):
        # (S, k) useful only if F(r) is inside S.
        r = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, gsus("p1", {"p2"}, 0))],
                "p2": [(6, gsus("p2", {"p2"}, 0))],
            }
        )
        assert not generalized_impermanent_strong_completeness(r, 1)


class TestAtdAccuracy:
    def test_rotation_is_allowed(self):
        # p1 suspected in the first window, p2 in the second -- but at
        # every instant one of them is unsuspected.
        r = build(
            {
                "p1": [(14, sus("p1", {"p3"}))],
                "p2": [],
                "p3": [(2, sus("p3", {"p1"})), (10, sus("p3", {"p2"}))],
            }
        )
        assert atd_accuracy(r)
        assert not weak_accuracy(r)  # every correct process suspected sometime

    def test_simultaneous_total_suspicion_fails(self):
        r = build(
            {
                "p1": [(5, sus("p1", {"p2", "p3"}))],
                "p2": [(6, sus("p2", {"p1"}))],
                "p3": [],
            }
        )
        assert not atd_accuracy(r)

    def test_crashed_observer_reports_expire(self):
        # p3 suspects everyone and then crashes; from its crash on its
        # report no longer counts.
        r = build(
            {
                "p1": [],
                "p2": [],
                "p3": [(2, sus("p3", {"p1", "p2"})), (4, CrashEvent("p3"))],
            }
        )
        assert atd_accuracy(r) is not None
        verdict = atd_accuracy(r)
        # Between t=2 and t=4 all correct are suspected => violated.
        assert not verdict

    def test_vacuous_without_correct(self):
        r = build(
            {
                "p1": [(1, sus("p1", {"p2", "p3"})), (2, CrashEvent("p1"))],
                "p2": [(3, CrashEvent("p2"))],
                "p3": [(3, CrashEvent("p3"))],
            }
        )
        assert atd_accuracy(r)


def _atd_by_scan(run):
    """ATD accuracy by a per-time scan of the live suspected sets."""
    correct = run.correct()
    if not correct:
        return True
    last = max([run.duration] + [t for p in run.processes for t, _ in run.timeline(p)])
    for m in range(last + 1):
        suspected = set()
        for p in run.processes:
            crash = run.crash_time(p)
            if crash is not None and crash <= m:
                continue  # a crashed observer's reports no longer count
            reports = [
                e.report.suspects
                for t, e in run.timeline(p)
                if t <= m and isinstance(e, SuspectEvent)
            ]
            if reports:
                suspected |= reports[-1]
        if correct <= suspected:
            return False
    return True


class TestAtdAccuracyPerTick:
    """All of a tick's report and crash changes land before it is judged."""

    PROCS4 = ("p1", "p2", "p3", "p4")

    def _run(self, a, b):
        # a and b crash at 5; b suspects p3 at 1; at 2, a suspects p4
        # and b retracts.  Suspected: {p3} at 1, {p4} at 2, so some
        # correct process is always unsuspected.
        return Run(
            self.PROCS4,
            {
                a: [(2, sus(a, {"p4"})), (5, CrashEvent(a))],
                b: [(1, sus(b, {"p3"})), (2, sus(b, set())), (5, CrashEvent(b))],
            },
            10,
        )

    def test_simultaneous_changes(self):
        assert atd_accuracy(self._run("p1", "p2"))

    def test_simultaneous_changes_swapped(self):
        assert atd_accuracy(self._run("p2", "p1"))

    def test_matches_per_time_scan(self):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(400):
            procs = PROCS if rng.random() < 0.5 else self.PROCS4
            timelines = {}
            for p in procs:
                ticks = sorted(rng.sample(range(1, 9), rng.randint(0, 4)))
                crash = rng.choice([None, None, rng.randint(1, 9)])
                events = [
                    (t, sus(p, {q for q in procs if rng.random() < 0.4}))
                    for t in ticks
                    if crash is None or t < crash
                ]
                if crash is not None:
                    events.append((crash, CrashEvent(p)))
                timelines[p] = events
            run = Run(procs, timelines, rng.randint(4, 9))
            verdict = bool(atd_accuracy(run))
            assert verdict == _atd_by_scan(run), timelines
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSystemSatisfies:
    def test_all_runs_must_pass(self):
        good = build(
            {
                "p3": [(2, CrashEvent("p3"))],
                "p1": [(5, sus("p1", {"p3"}))],
                "p2": [],
            }
        )
        bad = build({"p1": [(5, sus("p1", {"p2"}))], "p2": [], "p3": []})
        assert system_satisfies(System([good]), strong_accuracy)
        verdict = system_satisfies(System([good, bad]), strong_accuracy)
        assert not verdict
        assert "run 1" in verdict.witness


class TestPropertyVerdict:
    def test_truthiness(self):
        assert PropertyVerdict.ok()
        assert not PropertyVerdict.fail("reason")

    def test_witness_carried(self):
        assert PropertyVerdict.fail("because").witness == "because"
