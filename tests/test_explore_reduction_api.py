"""Tests for the redesigned exploration API: reduction modes, symmetry,
sharding, incremental extension, and the deprecation shims.

The load-bearing checks are the differential ones: ``reduction="dpor"``
and ``reduction="dpor+symmetry"`` must produce the *same ordered run
list*, the same violation sets, and bit-identical ``Knows``/``C_G``
answers as the unreduced ``reduction="none"`` baseline — for any worker
count.  That is what licenses running the reductions by default.
"""

import pytest

from repro import (
    Explorer,
    ExploreSpec,
    ReductionConfig,
    UniformityMonitor,
    explore,
    make_process_ids,
    uniform_protocol,
)
from repro.core.protocols import (
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.detectors import PerfectOracle
from repro.explore.scheduler import replay
from repro.explore.spec import REDUCTION_MODES
from repro.explore.symmetry import run_respects_quotient, symmetric_spec
from repro.knowledge import Crashed, GroupChecker, ModelChecker
from repro.model.events import Message
from repro.model.run import Point
from repro.runtime import RunCache
from repro.sim.process import ProtocolProcess
from repro.workloads.generators import single_action


def spec_of(n=3, protocol=NUDCProcess, **overrides):
    base = dict(
        processes=make_process_ids(n),
        protocol=uniform_protocol(protocol),
        horizon=5,
        max_failures=1,
        crash_ticks=(1, 2),
        workload=single_action("p1", tick=1),
    )
    base.update(overrides)
    return ExploreSpec(**base)


def run_key(run):
    return (
        tuple((p, tuple(run.timeline(p))) for p in run.processes),
        run.meta["quiescent"],
    )


def ordered_keys(report):
    return [run_key(r) for r in report.runs]


#: the differential matrix: NUDC / reliable-UDC / detector-assisted UDC,
#: lossy and reliable channels, with and without workloads
DIFFERENTIAL_SPECS = {
    "nudc-lossy": spec_of(
        lossy=True, max_consecutive_drops=1, horizon=6, crash_ticks=(1, 3, 5)
    ),
    "reliable-udc": spec_of(protocol=ReliableUDCProcess),
    "fd-udc-detector": spec_of(
        protocol=StrongFDUDCProcess, detector=PerfectOracle(), horizon=4
    ),
    "symmetric-crash-only": spec_of(
        n=4, workload=(), max_failures=2, horizon=5
    ),
}


class ChattyProcess(ProtocolProcess):
    """Passes the *static* symmetry gate (no workload, no detector,
    uniform, pid-free kwargs) but broadcasts — so only the *dynamic*
    asymmetry detector can catch that renaming is unsound for it."""

    def __init__(self, pid, env):
        super().__init__(pid, env)
        self.sent = False

    def on_tick(self):
        if not self.sent:
            self.sent = True
            self.env.broadcast(Message("hello", None))

    def wants_to_act(self):
        return not self.sent


class TestReductionConfig:
    def test_modes_are_the_documented_literals(self):
        assert REDUCTION_MODES == ("none", "dpor", "dpor+symmetry")
        for mode in REDUCTION_MODES:
            assert spec_of(reduction=mode).reduction == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            spec_of(reduction="por")

    def test_reduction_config_validated(self):
        with pytest.raises(ValueError):
            ReductionConfig(symmetry="sometimes")
        cfg = ReductionConfig(drop_elision=False, incremental=False)
        assert spec_of(reduction_config=cfg).reduction_config is cfg

    def test_digest_tracks_reduction(self):
        a = spec_of()
        assert a.digest() != a.with_(reduction="none").digest()
        assert (
            a.digest()
            != a.with_(
                reduction_config=ReductionConfig(drop_elision=False)
            ).digest()
        )

    def test_fingerprint_surface_is_gone(self):
        with pytest.raises(ImportError):
            from repro.explore.reduction import FingerprintSet  # noqa: F401


class TestDifferential:
    """dpor and dpor+symmetry must be invisible in the results."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_run_lists_identical_across_modes(self, name):
        spec = DIFFERENTIAL_SPECS[name]
        baseline = explore(spec.with_(reduction="none"), cache=None)
        assert baseline.stats.exhaustive
        for mode in ("dpor", "dpor+symmetry"):
            report = explore(spec.with_(reduction=mode), cache=None)
            assert report.stats.exhaustive
            assert ordered_keys(report) == ordered_keys(baseline), (
                name,
                mode,
            )

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_violation_sets_identical_across_modes(self, name):
        spec = DIFFERENTIAL_SPECS[name]
        reports = {
            mode: explore(
                spec.with_(reduction=mode),
                monitors=[UniformityMonitor()],
                cache=None,
            )
            for mode in REDUCTION_MODES
        }
        reference = {
            (v.monitor, run_key(v.run))
            for v in reports["none"].violations
        }
        for mode in ("dpor", "dpor+symmetry"):
            got = {
                (v.monitor, run_key(v.run))
                for v in reports[mode].violations
            }
            assert got == reference, (name, mode)

    def test_knowledge_bit_identical_under_symmetry(self):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"]
        baseline = explore(spec.with_(reduction="none"), cache=None)
        reduced = explore(spec.with_(reduction="dpor+symmetry"), cache=None)
        assert reduced.stats.symmetry_active
        fast, ref = reduced.system(), baseline.system()
        other = {run: run for run in ref.runs}
        procs = spec.processes
        for run in fast.runs:
            for time in range(run.duration + 1):
                pt, pt_ref = Point(run, time), Point(other[run], time)
                for p in procs:
                    assert fast.known_crashed_set(p, pt) == (
                        ref.known_crashed_set(p, pt_ref)
                    )
        for phi in (Crashed("p1"), Crashed("p4")):
            fast_ck = GroupChecker(ModelChecker(fast))
            ref_ck = GroupChecker(ModelChecker(ref))
            assert fast_ck.common_knowledge_points(procs, phi) == (
                ref_ck.common_knowledge_points(procs, phi)
            )


class TestSymmetry:
    def test_static_gate(self):
        assert symmetric_spec(DIFFERENTIAL_SPECS["symmetric-crash-only"])
        assert not symmetric_spec(spec_of())  # workload pins p1
        assert not symmetric_spec(
            DIFFERENTIAL_SPECS["fd-udc-detector"]
        )  # detector observes identities

    def test_folds_crash_only_orbits(self):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"]
        report = explore(spec.with_(reduction="dpor+symmetry"), cache=None)
        assert report.stats.symmetry_active
        assert report.stats.symmetry_plans_folded > 0
        assert report.stats.symmetry_runs_mirrored > 0
        # folding must actually save executions
        baseline = explore(spec.with_(reduction="dpor"), cache=None)
        assert report.stats.executions < baseline.stats.executions

    def test_auto_disables_on_pinned_specs(self):
        report = explore(
            spec_of(reduction="dpor+symmetry"), cache=None
        )
        assert not report.stats.symmetry_active
        assert report.stats.symmetry_plans_folded == 0
        assert "symmetry auto-disabled" in report.stats.render()

    def test_dynamic_disable_refolds_safely(self):
        """A protocol that passes the static gate but sends traffic must
        be caught at run time and explored unquotiented."""
        spec = ExploreSpec(
            processes=make_process_ids(3),
            protocol=uniform_protocol(ChattyProcess),
            horizon=4,
            max_failures=1,
            crash_ticks=(1, 2),
        )
        assert symmetric_spec(spec)  # the static gate is fooled
        baseline = explore(spec.with_(reduction="none"), cache=None)
        report = explore(spec.with_(reduction="dpor+symmetry"), cache=None)
        assert not report.stats.symmetry_active
        assert ordered_keys(report) == ordered_keys(baseline)

    def test_mirrored_runs_replay_from_coordinates(self):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"].with_(
            reduction="dpor+symmetry"
        )
        report = explore(spec, cache=None)
        mirrored = [r for r in report.runs if r.meta.get("renaming")]
        assert mirrored
        for run in mirrored:
            again = replay(
                spec,
                run.meta["crash_plan"],
                run.meta["trace"],
                renaming=tuple(run.meta["renaming"]),
            )
            assert run_key(again) == run_key(run)
            assert again.meta["renaming"] == run.meta["renaming"]

    def test_run_respects_quotient_flags_traffic(self):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"]
        report = explore(spec.with_(reduction="none"), cache=None)
        movable = frozenset(spec.processes)
        # crash-only runs have no traffic at all: every process movable
        assert all(
            run_respects_quotient(run, movable) for run in report.runs
        )
        chatty = explore(
            ExploreSpec(
                processes=make_process_ids(2),
                protocol=uniform_protocol(ChattyProcess),
                horizon=3,
            ),
            cache=None,
        )
        assert not any(
            run_respects_quotient(run, frozenset(["p1", "p2"]))
            for run in chatty.runs
        )


class TestSharding:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invisible_in_results(self, workers):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"].with_(
            reduction="dpor"
        )
        serial = explore(spec, cache=None, workers=1)
        sharded = explore(spec, cache=None, workers=workers)
        assert ordered_keys(sharded) == ordered_keys(serial)
        assert sharded.stats.runs_unique == serial.stats.runs_unique
        assert sharded.stats.workers == workers

    def test_budgeted_search_forces_serial(self):
        report = explore(
            spec_of(max_executions=5, reduction="dpor"),
            cache=None,
            workers=4,
        )
        assert report.stats.workers == 1
        assert report.stats.truncated


class TestIncremental:
    def test_extension_matches_fresh_exploration(self, tmp_path):
        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"].with_(
            reduction="dpor"
        )
        cache = RunCache(tmp_path)
        explore(spec.with_(horizon=4), cache=cache)
        extended = explore(spec.with_(horizon=5), cache=cache)
        fresh = explore(spec.with_(horizon=5), cache=None)
        assert ordered_keys(extended) == ordered_keys(fresh)
        assert extended.stats.seeded_from_horizon == 4
        assert (
            extended.stats.fixpoint_leaves_reused
            + extended.stats.executions
            > 0
        )
        # a quiescent fixpoint leaf must not be re-executed
        assert extended.stats.executions < fresh.stats.executions

    def test_lossy_extension_matches_fresh(self, tmp_path):
        spec = DIFFERENTIAL_SPECS["nudc-lossy"].with_(reduction="dpor")
        cache = RunCache(tmp_path)
        explore(spec.with_(horizon=4), cache=cache)
        extended = explore(spec.with_(horizon=5), cache=cache)
        fresh = explore(spec.with_(horizon=5), cache=None)
        assert ordered_keys(extended) == ordered_keys(fresh)

    def test_cache_round_trip_preserves_leaves(self, tmp_path):
        spec = spec_of(reduction="dpor")
        cache = RunCache(tmp_path)
        first = explore(spec, cache=cache)
        # a *fresh* cache object re-reads the v3 entry from disk
        reloaded = RunCache(tmp_path)
        entry = reloaded.get_exploration_entry(spec.digest())
        assert entry is not None and entry.leaves
        for plan, trace, fixpoint, run_index in entry.leaves:
            assert 0 <= run_index < len(entry.runs)
            assert isinstance(fixpoint, bool)
        hit = explore(spec, cache=reloaded)
        assert ordered_keys(hit) == ordered_keys(first)


class TestExplorerFacade:
    def test_from_spec_run_and_replay(self):
        spec = DIFFERENTIAL_SPECS["nudc-lossy"]
        explorer = Explorer.from_spec(
            spec, monitors=(UniformityMonitor(),)
        ).with_(cache=None)
        report = explorer.run()
        assert report.violations
        violation = report.violations[0]
        assert run_key(explorer.replay(violation.run)) == run_key(
            violation.run
        )

    def test_exported_from_top_level(self):
        import repro

        assert repro.Explorer is Explorer
        assert repro.ExploreSpec is ExploreSpec
        assert repro.ReductionConfig is ReductionConfig


class TestDeprecations:
    def test_unknown_runtime_attribute_still_raises(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.NoSuchThing

    def test_legacy_por_kwarg_maps_and_warns(self):
        with pytest.warns(DeprecationWarning, match="por"):
            legacy = spec_of(por=False)
        assert legacy.reduction == "none"
        with pytest.warns(DeprecationWarning, match="por"):
            assert spec_of(por=True).reduction == "dpor"

    def test_legacy_fingerprints_kwarg_ignored_with_warning(self):
        with pytest.warns(DeprecationWarning, match="fingerprint"):
            legacy = spec_of(fingerprints=True)
        assert legacy.reduction == "dpor"

    def test_with_accepts_legacy_kwargs(self):
        spec = spec_of()
        with pytest.warns(DeprecationWarning):
            assert spec.with_(por=False).reduction == "none"


class TestSerialization:
    def test_renaming_meta_survives_json_round_trip(self):
        from repro.model.serialize import run_from_dict, run_to_dict

        spec = DIFFERENTIAL_SPECS["symmetric-crash-only"].with_(
            reduction="dpor+symmetry"
        )
        report = explore(spec, cache=None)
        mirrored = next(
            r for r in report.runs if r.meta.get("renaming")
        )
        again = run_from_dict(run_to_dict(mirrored))
        assert again.meta["renaming"] == mirrored.meta["renaming"]
        assert tuple(again.meta["trace"]) == tuple(mirrored.meta["trace"])
