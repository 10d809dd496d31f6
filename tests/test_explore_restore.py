"""The depth-first drain is invisible in what it explores.

A branch of the search may be resumed from a saved copy of its execution
instead of being re-simulated from tick 1.  ``replay`` re-simulates from
scratch and stays the reference: every leaf the drain produces must equal
``replay(spec, plan, trace)``.  The search itself is pinned too: the
``ExploreStats`` counters of the benchmark spec (BENCH_explore.json), and
the runs and violation of a budgeted and a short-circuited exploration.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro import ExploreSpec, UniformityMonitor, explore, make_process_ids
from repro.core.protocols import (
    AtdUDCProcess,
    GeneralizedFDUDCProcess,
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.explore.reduction import ExploreStats
from repro.explore.scheduler import _BoundedExecution, drain_frontier, replay
from repro.model.events import GeneralizedSuspicion, Message, StandardSuspicion
from repro.model.serialize import run_to_dict
from repro.sim.process import ProcessEnv, ProtocolProcess, uniform_protocol
from repro.workloads.generators import single_action

from tests.test_explore_reduction_api import DIFFERENTIAL_SPECS, spec_of
from tests.test_sim_executor import EchoProcess

STAT_FIELDS = (
    "executions",
    "states_expanded",
    "choice_points",
    "branches_scheduled",
    "deliveries_collapsed",
    "drops_elided",
    "runs_enumerated",
    "runs_unique",
    "max_frontier",
)

#: ExploreStats of the benchmark spec (NUDC, horizon 8, t=1, crash ticks
#: {1,3,5}, fair-lossy with a 1-drop budget), in STAT_FIELDS order.
#: deliveries_collapsed counts every fresh decision, the first of each
#: execution included.
PINNED_STATS = {
    (2, "dpor"): (35, 280, 27, 28, 12, 108, 35, 35, 7),
    (2, "none"): (173, 1384, 142, 166, 0, 0, 173, 35, 10),
    (3, "dpor"): (194, 1552, 166, 184, 50, 811, 194, 194, 12),
    (3, "none"): (1626, 13008, 1365, 1616, 0, 0, 1626, 194, 17),
    (4, "dpor"): (456, 3648, 442, 443, 108, 2268, 456, 456, 17),
    (4, "none"): (5716, 45728, 5255, 5703, 0, 0, 5716, 456, 22),
}


def bench_spec(n, **overrides):
    base = dict(
        processes=make_process_ids(n),
        protocol=uniform_protocol(NUDCProcess),
        horizon=8,
        max_failures=1,
        crash_ticks=(1, 3, 5),
        workload=single_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )
    base.update(overrides)
    return ExploreSpec(**base)


def stats_row(stats):
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


def leaf_key(run):
    """Everything a leaf shows: timelines plus the explorer's meta."""
    meta = run.meta
    return (
        tuple((p, run.timeline(p)) for p in run.processes),
        meta["quiescent"],
        meta["dropped"],
        meta["delivered"],
        tuple(meta["trace"]),
    )


def assert_leaves_replay(spec):
    """Every leaf of a full drain equals its from-scratch replay."""
    stats = ExploreStats()
    leaves = list(drain_frontier(spec, stats))
    assert len(leaves) == stats.executions > 0
    for plan, trace, run in leaves:
        assert tuple(run.meta["trace"]) == trace
        assert leaf_key(replay(spec, plan, trace)) == leaf_key(run), (plan, trace)
    return leaves


def run_list_digest(spec, runs):
    """sha256 of a run list in order: plan index, trace and the JSON run."""
    order = {plan: i for i, plan in enumerate(spec.crash_plans())}
    rows = [
        [order[run.meta["crash_plan"]], list(run.meta["trace"]), run_to_dict(run)]
        for run in runs
    ]
    payload = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


ECHO_SPEC = ExploreSpec(
    processes=make_process_ids(3),
    protocol=uniform_protocol(EchoProcess),
    horizon=5,
    max_failures=1,
    crash_ticks=(1, 3),
    workload=single_action("p1", tick=1),
    lossy=True,
    max_consecutive_drops=1,
)


class TestPinnedCounters:
    @pytest.mark.parametrize("n,reduction", sorted(PINNED_STATS))
    def test_bench_spec_counters(self, n, reduction):
        report = explore(bench_spec(n, reduction=reduction), cache=None)
        assert report.complete
        assert stats_row(report.stats) == PINNED_STATS[n, reduction]


class TestLeavesEqualReplay:
    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_drained_leaves(self, name, reduction):
        assert_leaves_replay(DIFFERENTIAL_SPECS[name].with_(reduction=reduction))

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_explored_runs(self, name, reduction):
        spec = DIFFERENTIAL_SPECS[name].with_(reduction=reduction)
        report = explore(spec, cache=None)
        for run in report.runs:
            again = replay(spec, run.meta["crash_plan"], run.meta["trace"])
            assert leaf_key(again) == leaf_key(run)

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_breadth_first_drain(self, reduction):
        spec = DIFFERENTIAL_SPECS["nudc-lossy"].with_(
            reduction=reduction, strategy="bfs"
        )
        leaves = assert_leaves_replay(spec)
        dfs = assert_leaves_replay(spec.with_(strategy="dfs"))
        assert Counter(leaf_key(run) for _, _, run in leaves) == Counter(
            leaf_key(run) for _, _, run in dfs
        )


class TestFallbacks:
    """Specs whose state cannot be saved still drain to the same leaves."""

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_protocol_without_opt_in(self, reduction):
        spec = ECHO_SPEC.with_(reduction=reduction)
        assert_leaves_replay(spec)
        report = explore(spec, cache=None)
        baseline = explore(ECHO_SPEC.with_(reduction="none"), cache=None)
        # the modes trace a run differently, so only the sets agree
        assert {leaf_key(r)[0] for r in report.runs} == {
            leaf_key(r)[0] for r in baseline.runs
        }

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_detector_spec(self, reduction):
        spec = DIFFERENTIAL_SPECS["fd-udc-detector"].with_(reduction=reduction)
        assert spec.detector is not None
        assert_leaves_replay(spec)


def count_restores(monkeypatch):
    """Record the tick of every snapshot the explorer restores."""
    ticks = []
    original = _BoundedExecution._restore

    def spy(self, snapshot):
        ticks.append(snapshot.tick)
        original(self, snapshot)

    monkeypatch.setattr(_BoundedExecution, "_restore", spy)
    return ticks


class TestWhatRestores:
    def test_depth_first_entries_restore(self, monkeypatch):
        ticks = count_restores(monkeypatch)
        report = explore(bench_spec(3), cache=None)
        # every entry but the crash-plan roots resumes from a snapshot
        assert len(ticks) == report.stats.branches_scheduled
        assert min(ticks) >= 1 and max(ticks) <= 8

    @pytest.mark.parametrize(
        "spec",
        [
            ECHO_SPEC,
            DIFFERENTIAL_SPECS["fd-udc-detector"],
            bench_spec(3, strategy="bfs"),
        ],
        ids=["no-opt-in", "detector", "bfs"],
    )
    def test_fallbacks_replay_from_tick_one(self, monkeypatch, spec):
        ticks = count_restores(monkeypatch)
        report = explore(spec, cache=None)
        assert report.complete and report.runs
        assert ticks == []


#: every protocol that captures its state, explored without a detector so
#: that its snapshots are used
CAPTURING = {
    "nudc": uniform_protocol(NUDCProcess),
    "reliable": uniform_protocol(ReliableUDCProcess),
    "strong-fd": uniform_protocol(StrongFDUDCProcess),
    "generalized": uniform_protocol(GeneralizedFDUDCProcess, t=1),
    "atd": uniform_protocol(AtdUDCProcess),
}


class TestProtocolState:
    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    @pytest.mark.parametrize("name", sorted(CAPTURING))
    def test_leaves_equal_replay(self, name, reduction):
        spec = spec_of(
            horizon=5, lossy=True, max_consecutive_drops=1, reduction=reduction
        ).with_(protocol=CAPTURING[name])
        assert_leaves_replay(spec)

    @pytest.mark.parametrize(
        "cls,kwargs,report",
        [
            (StrongFDUDCProcess, {}, StandardSuspicion(frozenset({"p3"}))),
            (AtdUDCProcess, {}, StandardSuspicion(frozenset({"p3"}))),
            (
                GeneralizedFDUDCProcess,
                {"t": 1},
                GeneralizedSuspicion(frozenset({"p3"}), 1),
            ),
        ],
        ids=["strong-fd", "atd", "generalized"],
    )
    def test_round_trip_shares_no_containers(self, cls, kwargs, report):
        procs = make_process_ids(3)
        process, fresh = (cls("p1", ProcessEnv("p1", procs), **kwargs) for _ in range(2))
        process.env.now = 4
        process.on_init(("p1", "a0"))
        process.on_receive("p2", Message("ack", ("p1", "a0")))
        process.on_suspect(report)
        state = process.snapshot()
        fresh.restore(state)
        assert fresh.snapshot() == state
        # mutating the restored copy leaves the original and the snapshot alone
        fresh.on_receive("p3", Message("ack", ("p1", "a0")))
        fresh.on_init(("p1", "a1"))
        assert process.snapshot() == state
        assert fresh.snapshot() != state

    def test_base_class_cannot_capture(self):
        process = ProtocolProcess("p1", ProcessEnv("p1", make_process_ids(2)))
        assert process.snapshot() is None
        with pytest.raises(NotImplementedError):
            process.restore(())


class TestEarlyStops:
    """Budgeted and short-circuited searches stop at the same leaf."""

    #: (stats row, run count, run-list digest) per reduction
    TRUNCATED = {
        "dpor": (
            (60, 480, 53, 56, 13, 209, 60, 60, 12),
            60,
            "8a9a9eb19e154354f4721ed8dac59c5230e2f7a4aabe06436cd61f9ae14731eb",
        ),
        "none": (
            (60, 480, 58, 64, 0, 0, 60, 13, 17),
            13,
            "78aa48573a71629b1f2a8a4be9cb11c6f65514b4d234ea47df2fb9c6374821ed",
        ),
    }

    #: (violation plan index, trace, stats row, run-list digest)
    STOPPED = {
        "dpor": (
            3,
            (1, 1, 1, 1, 1),
            (36, 216, 29, 29, 3, 73, 36, 36, 10),
            "8e95be2f7ba2c906dffd11be3d1e62c0e0abd4ebff859a739afa41be4146ba3e",
        ),
        "none": (
            3,
            (1, 1),
            (92, 552, 81, 85, 0, 0, 92, 36, 14),
            "c0ed44a3a585dbd7938d15d18dab06556ed82233b7479aad5f0ed51e040340a7",
        ),
    }

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_max_executions_truncation(self, reduction):
        spec = bench_spec(3, max_executions=60, reduction=reduction)
        report = explore(spec, cache=None)
        assert report.stats.truncated and not report.complete
        row, count, digest = self.TRUNCATED[reduction]
        assert stats_row(report.stats) == row
        assert len(report.runs) == count
        assert run_list_digest(spec, report.runs) == digest

    def test_budget_of_the_whole_search_leaves_it_complete(self):
        executions = PINNED_STATS[2, "dpor"][0]
        for budget, complete in ((executions - 1, False), (executions, True)):
            report = explore(bench_spec(2, max_executions=budget), cache=None)
            assert report.stats.executions == budget
            assert report.complete is complete

    @pytest.mark.parametrize("reduction", ["none", "dpor"])
    def test_stop_on_violation(self, reduction):
        spec = spec_of(
            lossy=True,
            max_consecutive_drops=1,
            horizon=6,
            crash_ticks=(1, 3, 5),
            reduction=reduction,
        )
        report = explore(
            spec, monitors=[UniformityMonitor()], stop_on_violation=True, cache=None
        )
        assert report.stats.stopped_on_violation
        (violation,) = report.violations
        order = {plan: i for i, plan in enumerate(spec.crash_plans())}
        plan_index, trace, row, digest = self.STOPPED[reduction]
        assert (order[violation.crash_plan], violation.trace) == (plan_index, trace)
        assert stats_row(report.stats) == row
        assert run_list_digest(spec, report.runs) == digest
