"""Unit tests for the epistemic kernel's class structure: ~_p
equivalence classes over the columnar class rows, crash bitmasks, the
point numbering, KernelStats, restrict/union answers, and the
foreign-run cache fix in the model checker."""

from repro.knowledge import Crashed, Knows, ModelChecker
from repro.knowledge.formulas import Atom
from repro.model.events import CrashEvent, Message, ReceiveEvent, SendEvent
from repro.model.run import Point, Run
from repro.model.synthetic import synthetic_system
from repro.model.system import System

PROCS = ("p1", "p2", "p3")


def run_with(timelines, duration=6):
    return Run(PROCS, timelines, duration)


def crash_run():
    msg = Message("p3-down")
    return run_with(
        {
            "p1": [(4, ReceiveEvent("p1", "p2", msg))],
            "p2": [(3, SendEvent("p2", "p1", msg))],
            "p3": [(2, CrashEvent("p3"))],
        }
    )


def no_crash_run():
    msg = Message("p3-down")
    return run_with(
        {
            "p1": [],
            "p2": [(3, SendEvent("p2", "p1", msg))],
            "p3": [],
        }
    )


def class_members(system, process):
    """Each ~_process class as its member points, in class-id order."""
    kernel = system.columnar_kernel()
    return [
        [system.point_at(pid) for pid in kernel.member_point_ids(cid)]
        for cid in kernel.class_ids(system.process_bit(process))
    ]


class TestCrashMasks:
    def test_masks_match_crashed_by(self):
        r = crash_run()
        masks = r.crash_masks()
        assert len(masks) == r.duration + 1
        for m in range(r.duration + 1):
            for i, p in enumerate(PROCS):
                assert bool((masks[m] >> i) & 1) == r.crashed_by(p, m)

    def test_masks_cached(self):
        r = crash_run()
        assert r.crash_masks() is r.crash_masks()


class TestEquivClasses:
    def test_classes_partition_points(self):
        s = System([crash_run(), no_crash_run()])
        for p in PROCS:
            classes = class_members(s, p)
            total = sum(len(members) for members in classes)
            assert total == s.point_count
            ids = [s.point_id(pt) for members in classes for pt in members]
            assert sorted(ids) == list(range(s.point_count))

    def test_class_of_consistency(self):
        s = System([crash_run(), no_crash_run()])
        kernel = s.columnar_kernel()
        for p in PROCS:
            for run in s.runs:
                for m in range(run.duration + 1):
                    pt = Point(run, m)
                    members = kernel.points_of_class(kernel.class_id_at(p, pt))
                    assert pt in members
                    assert all(q.history(p) == pt.history(p) for q in members)

    def test_known_crashed_mask_is_and_of_point_masks(self):
        s = System([crash_run(), no_crash_run()])
        kernel = s.columnar_kernel()
        for p in PROCS:
            for cid in kernel.class_ids(s.process_bit(p)):
                acc = -1
                for pt in kernel.points_of_class(cid):
                    acc &= pt.run.crash_masks()[pt.time]
                assert kernel.known_mask(cid) == acc

    def test_class_histories_are_canonical(self):
        s = System([crash_run(), no_crash_run()])
        kernel = s.columnar_kernel()
        for p in PROCS:
            j = s.process_bit(p)
            histories = [members[0].history(p) for members in class_members(s, p)]
            # one class per distinct history, and the trie walk of each
            # class's history lands back on that class
            assert len(set(histories)) == len(histories)
            for cid, history in zip(kernel.class_ids(j), histories):
                assert kernel.class_of_history(j, history) == cid

    def test_point_id_roundtrip(self):
        s = System([crash_run(), no_crash_run()])
        for i, run in enumerate(s.runs):
            for m in range(run.duration + 1):
                pid = s.point_id(Point(run, m))
                assert s.point_key(pid) == (i, m)
                assert s.point_at(pid) == Point(run, m)

    def test_point_id_clamps_beyond_duration(self):
        s = System([crash_run()])
        r = s.runs[0]
        assert s.point_id(Point(r, r.duration + 5)) == s.point_id(
            Point(r, r.duration)
        )

    def test_foreign_run_has_no_point_id(self):
        s = System([crash_run()])
        foreign = run_with({"p1": [], "p2": [], "p3": []}, duration=2)
        assert s.point_id(Point(foreign, 0)) is None


class TestVacuity:
    """A point whose history occurs nowhere in the system has an empty
    candidate set; K_p is then vacuously true.  Pinned here because the
    docs warn about it (see System.knows)."""

    def test_foreign_history_knows_everything(self):
        s = System([no_crash_run()])
        foreign_pt = Point(crash_run(), 4)  # p1 received: history not in s
        assert s.knows("p1", foreign_pt, lambda pt: False)
        assert s.knows_crashed("p1", foreign_pt, "p3")
        assert s.known_crashed_set("p1", foreign_pt) == frozenset(PROCS)
        assert s.known_crash_count("p1", foreign_pt, frozenset(PROCS)) == 0


class TestKernelStats:
    def test_checker_shares_system_stats(self):
        s = System([crash_run(), no_crash_run()])
        mc = ModelChecker(s)
        assert mc.stats is s.stats
        phi = Knows("p1", Crashed("p3"))
        mc.holds(phi, Point(s.runs[0], 4))
        assert mc.stats.knows_class_evals >= 1
        assert mc.stats.formula_set_misses >= 1
        mc.holds(phi, Point(s.runs[0], 4))
        assert mc.stats.formula_set_hits >= 1

    def test_as_dict_and_merge(self):
        s = System([crash_run()])
        s.columnar_kernel()
        d = s.stats.as_dict()
        assert d["arena_builds"] == 1
        other = System([no_crash_run()])
        other.columnar_kernel()
        classes = s.stats.arena_classes + other.stats.arena_classes
        merged = s.stats.merge(other.stats)
        assert merged.arena_builds == 2
        assert merged.arena_classes == classes


class TestRestrictInheritance:
    def test_restricted_knowledge_matches_fresh_system(self):
        parent = System([crash_run(), no_crash_run()])
        parent.columnar_kernel()
        kept = [r for r in parent.runs if r.faulty()]
        child = parent.restrict(lambda r: r.faulty())
        fresh = System(kept)
        for p in PROCS:
            for run in kept:
                for m in range(run.duration + 1):
                    pt = Point(run, m)
                    assert child.known_crashed_set(p, pt) == fresh.known_crashed_set(p, pt)
                    assert child.known_crash_count(
                        p, pt, frozenset(PROCS)
                    ) == fresh.known_crash_count(p, pt, frozenset(PROCS))

    def test_restrict_before_any_index_stays_lazy(self):
        parent = System([crash_run(), no_crash_run()])
        child = parent.restrict(lambda r: r.faulty())
        # Restricting builds nothing; the child builds its own kernel on
        # first use.
        assert child.stats.arena_builds == 0
        child.columnar_kernel()
        assert child.stats.arena_builds == 1
        assert parent.stats.arena_builds == 0


class TestUnionInheritance:
    def test_union_knowledge_matches_fresh_system(self):
        a = System([crash_run()])
        b = System([no_crash_run()])
        a.columnar_kernel()
        u = a.union(b)
        fresh = System([crash_run(), no_crash_run()])
        for p in PROCS:
            for run in fresh.runs:
                for m in range(run.duration + 1):
                    pt = Point(run, m)
                    assert u.known_crashed_set(p, pt) == fresh.known_crashed_set(p, pt)

    def test_union_still_dedupes(self):
        a = System([crash_run()])
        b = System([crash_run(), no_crash_run()])
        assert len(a.union(b)) == 2

    def test_union_point_order_matches_fresh_build(self):
        a = System([crash_run()])
        b = System([no_crash_run()])
        u = a.union(b)
        fresh = System([crash_run(), no_crash_run()])
        for p in PROCS:
            assert class_members(u, p) == class_members(fresh, p)


class TestForeignRunCacheFix:
    """Regression for the old ``-1 - (id(run) % (1 << 30))`` fallback:
    distinct foreign runs could collide (or a freed id could alias a new
    run), poisoning cached answers.  Foreign points are now evaluated
    one point at a time with nothing cached per run."""

    def _flag_formula(self):
        # Reads the run's meta, which run equality ignores.
        return Atom("meta-flag", lambda pt: bool(pt.run.meta.get("flag")))

    def test_foreign_cache_entries_do_not_alias(self):
        s = System([no_crash_run()])
        mc = ModelChecker(s)
        phi = self._flag_formula()
        flagged = Run(PROCS, {p: [] for p in PROCS}, 3, meta={"flag": True})
        plain = Run(PROCS, {p: [] for p in PROCS}, 3, meta={"flag": False})
        # Same timelines and duration (equal runs differ only in meta,
        # which equality ignores) -- but their answers must stay apart.
        assert mc.holds(phi, Point(flagged, 0)) is True
        assert mc.holds(phi, Point(plain, 0)) is False
        assert mc.holds(phi, Point(flagged, 0)) is True


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = synthetic_system(4, 6, seed=7)
        b = synthetic_system(4, 6, seed=7)
        assert a.runs == b.runs

    def test_histories_overlap_across_runs(self):
        s = synthetic_system(4, 12, seed=1)
        # The small alphabet must actually produce shared classes.
        assert any(
            len(members) > 1 for p in s.processes for members in class_members(s, p)
        )

    def test_crash_is_terminal(self):
        s = synthetic_system(5, 10, seed=3, crash_prob=0.8)
        for run in s.runs:
            for p in run.processes:
                events = list(run.events(p))
                for e in events[:-1]:
                    assert not isinstance(e, CrashEvent)
