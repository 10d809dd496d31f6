"""Tests for repro.explore: bounded exhaustive enumeration.

The load-bearing check is `TestReductionSoundness`: with partial-order
reduction and fingerprint pruning enabled, the explorer must produce the
*same run set* as the reductions-off exhaustive baseline, and the
epistemic kernel must give bit-identical answers (Knows, knows_crashed,
common-knowledge points) over the two systems.  That is what licenses
running the reductions by default.
"""

import warnings

import pytest

from repro import (
    ExploreSpec,
    IncompleteSystemWarning,
    UniformityMonitor,
    explore,
    make_process_ids,
    replay_exploration,
    uniform_protocol,
    validate_run,
)
from repro.core.protocols import NUDCProcess, ReliableUDCProcess
from repro.explore import PredicateMonitor
from repro.detectors.properties import PropertyVerdict
from repro.harness.__main__ import main as harness_main
from repro.knowledge import Crashed, GroupChecker, ModelChecker
from repro.model.context import ChannelSemantics
from repro.model.run import Point
from repro.runtime import EnsembleSpec, RunCache, run_ensemble
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig
from repro.workloads.generators import single_action

PROCS = make_process_ids(3)


def nudc_spec(**overrides):
    base = dict(
        processes=PROCS,
        protocol=uniform_protocol(NUDCProcess),
        horizon=4,
        max_failures=1,
        crash_ticks=(1,),
        workload=single_action("p1", tick=1),
    )
    base.update(overrides)
    return ExploreSpec(**base)


LOSSY = dict(
    horizon=6,
    crash_ticks=(1, 3, 5),
    lossy=True,
    max_consecutive_drops=1,
)


class TestExploreSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            nudc_spec(horizon=0)
        with pytest.raises(ValueError):
            nudc_spec(max_failures=4)
        with pytest.raises(ValueError):
            nudc_spec(crash_ticks=(0,))
        with pytest.raises(ValueError):
            nudc_spec(max_consecutive_drops=0)
        with pytest.raises(ValueError):
            nudc_spec(strategy="random")
        with pytest.raises(ValueError):
            nudc_spec(processes=())
        with pytest.raises(ValueError, match="p9"):
            nudc_spec(workload=single_action("p9", tick=1))

    def test_crash_plans_enumerate_bounded_adversary(self):
        plans = nudc_spec(crash_ticks=(1, 3)).crash_plans()
        # the empty plan + one per (process, tick) pair at t=1
        assert plans[0] == CrashPlan.none()
        assert len(plans) == 1 + 3 * 2
        assert len(set(plans)) == len(plans)

    def test_crash_plans_cover_subsets_at_t2(self):
        plans = nudc_spec(max_failures=2, crash_ticks=(2,)).crash_plans()
        sizes = sorted(len(p.faulty) for p in plans)
        assert sizes == [0, 1, 1, 1, 2, 2, 2]

    def test_digest_tracks_content(self):
        a, b = nudc_spec(), nudc_spec()
        assert a.digest() == b.digest()
        assert a.digest() != a.with_(horizon=5).digest()
        assert a.digest() != a.with_(reduction="none").digest()


class TestExploration:
    def test_exhaustive_and_complete(self):
        report = explore(nudc_spec(), cache=None)
        assert report.stats.exhaustive
        assert report.complete
        assert len(report) == report.stats.runs_unique > 0
        # every run passes the model axioms at the explorer's R5 bound
        for run in report.runs:
            validate_run(run)
            assert run.meta["explored"] is True

    def test_quiescence_flags_are_exact(self):
        report = explore(nudc_spec(), cache=None)
        by_plan = {}
        for run in report.runs:
            by_plan.setdefault(run.meta["crash_plan"], []).append(run)
        # p1 crashes at tick 1, before its own initiation: nothing ever
        # happens, and that empty run is a fixpoint.
        silenced = by_plan[CrashPlan.of({"p1": 1})]
        assert any(r.meta["quiescent"] for r in silenced)
        # the crash-free NUDC exchange is still mid-handshake at T=4
        assert not any(
            r.meta["quiescent"] for r in by_plan[CrashPlan.none()]
        )

    def test_bfs_and_dfs_agree_on_run_set(self):
        dfs = explore(nudc_spec(), cache=None)
        bfs = explore(nudc_spec(strategy="bfs"), cache=None)
        assert set(dfs.runs) == set(bfs.runs)

    def test_truncation_marks_incomplete(self):
        report = explore(nudc_spec(**LOSSY, max_executions=5), cache=None)
        assert report.stats.truncated
        assert not report.complete

    def test_replay_reproduces_enumerated_runs(self):
        spec = nudc_spec(**LOSSY)
        report = explore(spec, cache=None)
        for run in report.runs[:10]:
            replayed = replay_exploration(
                spec, run.meta["crash_plan"], run.meta["trace"]
            )
            assert replayed == run


class TestReductionSoundness:
    """DPOR must not change the run set or the knowledge."""

    @pytest.fixture(scope="class")
    def reports(self):
        spec = nudc_spec(**LOSSY)
        reduced = explore(spec, cache=None)
        baseline = explore(spec.with_(reduction="none"), cache=None)
        return reduced, baseline

    def test_run_sets_identical(self, reports):
        reduced, baseline = reports
        assert set(reduced.runs) == set(baseline.runs)
        assert reduced.stats.exhaustive and baseline.stats.exhaustive

    def test_knowledge_bit_identical(self, reports):
        reduced, baseline = reports
        fast, ref = reduced.system(), baseline.system()
        other = {run: run for run in ref.runs}
        for run in fast.runs:
            for time in range(run.duration + 1):
                pt, pt_ref = Point(run, time), Point(other[run], time)
                for p in PROCS:
                    for q in PROCS:
                        assert fast.knows_crashed(p, pt, q) == ref.knows_crashed(
                            p, pt_ref, q
                        ), (run.meta["trace"], time, p, q)
                    assert fast.known_crashed_set(p, pt) == ref.known_crashed_set(
                        p, pt_ref
                    )

    def test_common_knowledge_bit_identical(self, reports):
        reduced, baseline = reports
        group = tuple(PROCS)
        for phi in (Crashed("p1"), Crashed("p2")):
            fast = GroupChecker(ModelChecker(reduced.system()))
            ref = GroupChecker(ModelChecker(baseline.system()))
            assert fast.common_knowledge_points(group, phi) == (
                ref.common_knowledge_points(group, phi)
            )


class TestMonitors:
    def test_udc_violations_found_with_coordinates(self):
        spec = nudc_spec(**LOSSY)
        monitor = UniformityMonitor()
        report = explore(spec, monitors=[monitor], cache=None)
        assert report.violations
        for violation in report.violations:
            assert violation.monitor == "udc"
            replayed = replay_exploration(
                spec, violation.crash_plan, violation.trace
            )
            assert replayed == violation.run
            assert not monitor.check(replayed)

    def test_quiescent_variant_wins_dedup(self):
        # A run where both copies are *dropped* has the same timelines as
        # one where both are *still in flight* at T; only the former is a
        # fixpoint, and the liveness monitor must see it.
        spec = nudc_spec(**LOSSY)
        report = explore(spec, monitors=[UniformityMonitor()], cache=None)
        late = [v for v in report.violations if v.crash_plan.as_dict() == {"p1": 5}]
        assert late, "drop-based violation must survive run deduplication"
        assert all(v.run.meta["quiescent"] for v in late)

    def test_nudc_protocol_satisfies_nudc(self):
        report = explore(
            nudc_spec(**LOSSY),
            monitors=[UniformityMonitor(uniform=False)],
            cache=None,
        )
        assert not report.violations

    def test_reliable_protocol_satisfies_udc_without_crashes(self):
        report = explore(
            nudc_spec(
                protocol=uniform_protocol(ReliableUDCProcess),
                max_failures=0,
                horizon=6,
            ),
            monitors=[UniformityMonitor()],
            cache=None,
        )
        assert not report.violations

    def test_stop_on_violation_short_circuits(self):
        spec = nudc_spec(**LOSSY)
        report = explore(
            spec,
            monitors=[UniformityMonitor()],
            stop_on_violation=True,
            cache=None,
        )
        assert len(report.violations) == 1
        assert report.stats.stopped_on_violation
        assert not report.complete

    def test_predicate_monitor(self):
        flagged = []

        def never_two_crashes(run):
            crashes = sum(
                1 for p in run.processes if run.crashed_by(p, run.duration)
            )
            flagged.append(crashes)
            return (
                PropertyVerdict.ok()
                if crashes < 2
                else PropertyVerdict.fail("two crashes")
            )

        report = explore(
            nudc_spec(),
            monitors=[PredicateMonitor(never_two_crashes, label="pair")],
            cache=None,
        )
        assert flagged and not report.violations


class TestCaching:
    def test_exhaustive_exploration_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = nudc_spec()
        first = explore(spec, cache=cache)
        second = explore(spec, cache=cache)
        assert not first.cached and second.cached
        assert set(first.runs) == set(second.runs)

    def test_cache_survives_disk_round_trip(self, tmp_path):
        spec = nudc_spec(**LOSSY)
        first = explore(spec, cache=RunCache(tmp_path))
        second = explore(spec, cache=RunCache(tmp_path))  # fresh memory
        assert second.cached
        assert set(first.runs) == set(second.runs)
        # meta needed for replay survives serialization
        for run in second.runs:
            assert replay_exploration(
                spec, run.meta["crash_plan"], tuple(run.meta["trace"])
            ) == run

    def test_monitors_rerun_on_cache_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = nudc_spec(**LOSSY)
        explore(spec, cache=cache)
        hit = explore(spec, monitors=[UniformityMonitor()], cache=cache)
        assert hit.cached and hit.violations

    def test_truncated_exploration_not_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = nudc_spec(**LOSSY, max_executions=5)
        explore(spec, cache=cache)
        assert not explore(spec, cache=cache).cached


class TestCompleteness:
    """Satellite: the sound/sampled distinction surfaces on System."""

    def test_explorer_system_is_complete_and_silent(self):
        system = explore(nudc_spec(), cache=None).system()
        assert system.complete
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system.knows_crashed("p1", Point(system.runs[0], 0), "p2")

    def test_sampled_system_warns_once(self):
        spec = EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=1,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        )
        system = run_ensemble(spec, cache=None).system()
        assert not system.complete
        pt = Point(system.runs[0], 0)
        with pytest.warns(IncompleteSystemWarning):
            system.knows_crashed("p1", pt, "p2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second query: already warned
            system.knows_crashed("p1", pt, "p3")

    def test_restriction_preserves_completeness(self):
        system = explore(nudc_spec(), cache=None).system()
        assert system.restrict(lambda run: True).complete

    def test_truncated_exploration_yields_incomplete_system(self):
        report = explore(nudc_spec(**LOSSY, max_executions=5), cache=None)
        with pytest.warns(IncompleteSystemWarning):
            system = report.system()
            system.knows_crashed("p1", Point(system.runs[0], 0), "p2")


def horizon_cut(run, horizon):
    """Every process's timeline up to ``horizon``."""
    return tuple(
        tuple(entry for entry in run.timeline(p) if entry[0] <= horizon)
        for p in run.processes
    )


class TestSampledRunsExplored:
    """The explorer replaces the executor's rng with choices, so every run
    the seeded executor samples must be cut from some explored run."""

    SEEDS = range(200)

    @pytest.mark.parametrize(
        "protocol,budget",
        [
            (NUDCProcess, 1),
            (NUDCProcess, 2),
            (NUDCProcess, None),
            (ReliableUDCProcess, None),
        ],
        ids=["nudc-lossy-1", "nudc-lossy-2", "nudc-reliable", "reliable-udc"],
    )
    def test_every_sampled_cut_is_explored(self, protocol, budget):
        lossy = budget is not None
        spec = nudc_spec(
            protocol=uniform_protocol(protocol),
            horizon=6,
            crash_ticks=(1, 3),
            lossy=lossy,
            max_consecutive_drops=budget or 2,
        )
        explored = {
            horizon_cut(run, spec.horizon) for run in explore(spec, cache=None).runs
        }
        if lossy:
            channel = ChannelConfig(max_consecutive_drops=budget)
        else:
            channel = ChannelConfig(semantics=ChannelSemantics.RELIABLE)
        config = ExecutionConfig(channel=channel, activation_prob=1.0)
        missing = []
        plans = spec.crash_plans()
        for plan in plans:
            for seed in self.SEEDS:
                run = Executor(
                    spec.processes,
                    spec.protocol,
                    crash_plan=plan,
                    workload=spec.workload,
                    config=config,
                    seed=seed,
                ).run()
                if horizon_cut(run, spec.horizon) not in explored:
                    missing.append((plan, seed))
        sampled = len(plans) * len(self.SEEDS)
        assert not missing, f"{len(missing)} of {sampled} unexplored: {missing[:3]}"


class TestReportSurface:
    def test_summary_mentions_stats_and_violations(self):
        report = explore(
            nudc_spec(**LOSSY), monitors=[UniformityMonitor()], cache=None
        )
        text = report.summary()
        assert "explored n=3 t=1 T=6" in text
        assert "[complete]" in text
        assert "violations" in text
        assert "[reduction: dpor]" in text


class TestExploreCLI:
    def test_search_exits_zero_without_violations(self, capsys):
        assert harness_main(["explore", "--horizon", "4"]) == 0
        assert "[complete]" in capsys.readouterr().out

    def test_unknown_initiator_is_a_usage_error(self, capsys):
        assert harness_main(["explore", "--init", "p9:1"]) == 2
        assert "unknown processes ['p9']" in capsys.readouterr().out

    def test_workers_option_is_gone(self, capsys):
        assert harness_main(["explore", "--workers", "2"]) == 2
        assert "unknown explore option '--workers'" in capsys.readouterr().out
