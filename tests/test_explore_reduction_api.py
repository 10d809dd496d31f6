"""Tests for the exploration API: the two reduction modes and the v4
cache round trip.

The load-bearing checks are the differential ones: ``reduction="dpor"``
must produce the *same ordered run list*, the same violation sets, and
bit-identical ``Knows``/``C_G`` answers as the unreduced
``reduction="none"`` baseline.  That is what licenses running the
reduction by default.
"""

import hashlib
import json

import pytest

from repro import (
    ExploreSpec,
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
from repro.knowledge import Crashed, GroupChecker, ModelChecker
from repro.model.run import Point
from repro.runtime import RunCache
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
#: lossy and reliable channels, with and without workloads ("crash" has
#: no workload at all: only the crash plans vary, at n=4 and t=2)
DIFFERENTIAL_SPECS = {
    "nudc-lossy": spec_of(
        lossy=True, max_consecutive_drops=1, horizon=6, crash_ticks=(1, 3, 5)
    ),
    "reliable-udc": spec_of(protocol=ReliableUDCProcess),
    "fd-udc-detector": spec_of(
        protocol=StrongFDUDCProcess, detector=PerfectOracle(), horizon=4
    ),
    "crash": spec_of(n=4, workload=(), max_failures=2, horizon=5),
}


class TestReductionModes:
    def test_modes_are_the_documented_literals(self):
        assert REDUCTION_MODES == ("none", "dpor")
        for mode in REDUCTION_MODES:
            assert spec_of(reduction=mode).reduction == mode

    def test_unknown_mode_rejected(self):
        for mode in ("por", "dpor+sym"):
            with pytest.raises(ValueError):
                spec_of(reduction=mode)

    def test_digest_tracks_reduction(self):
        a = spec_of()
        assert a.digest() != a.with_(reduction="none").digest()
        assert a.digest() == spec_of().digest()

    def test_fingerprint_surface_is_gone(self):
        with pytest.raises(ImportError):
            from repro.explore.reduction import FingerprintSet  # noqa: F401


class TestDifferential:
    """dpor must be invisible in the results."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_run_lists_identical_across_modes(self, name):
        spec = DIFFERENTIAL_SPECS[name]
        baseline = explore(spec.with_(reduction="none"), cache=None)
        report = explore(spec.with_(reduction="dpor"), cache=None)
        assert baseline.stats.exhaustive and report.stats.exhaustive
        assert ordered_keys(report) == ordered_keys(baseline), name

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
    def test_violation_sets_identical_across_modes(self, name):
        spec = DIFFERENTIAL_SPECS[name]

        def violations(mode):
            report = explore(
                spec.with_(reduction=mode),
                monitors=[UniformityMonitor()],
                cache=None,
            )
            return {(v.monitor, run_key(v.run)) for v in report.violations}

        assert violations("dpor") == violations("none"), name

    def test_knowledge_bit_identical_dpor_vs_none(self):
        spec = DIFFERENTIAL_SPECS["nudc-lossy"]
        baseline = explore(spec.with_(reduction="none"), cache=None)
        reduced = explore(spec.with_(reduction="dpor"), cache=None)
        # the reduction must actually have pruned something here
        assert reduced.stats.executions < baseline.stats.executions
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
        for phi in (Crashed(procs[0]), Crashed(procs[-1])):
            fast_ck = GroupChecker(ModelChecker(fast))
            ref_ck = GroupChecker(ModelChecker(ref))
            assert fast_ck.common_knowledge_points(procs, phi) == (
                ref_ck.common_knowledge_points(procs, phi)
            )

    def test_violations_replay_from_coordinates(self):
        spec = DIFFERENTIAL_SPECS["nudc-lossy"]
        report = explore(spec, monitors=[UniformityMonitor()], cache=None)
        assert report.violations
        for violation in report.violations:
            again = replay(spec, violation.crash_plan, violation.trace)
            assert run_key(again) == run_key(violation.run)


def _entry_path(tmp_path, spec):
    return tmp_path / f"explore-{spec.digest()}.json"


def _write_signed(path, payload):
    """Write an edited cache entry back with its body digest recomputed."""
    canonical = json.dumps(payload["body"], sort_keys=True, separators=(",", ":"))
    payload["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload))


class TestCacheRoundTrip:
    def test_v4_disk_round_trip(self, tmp_path):
        spec = spec_of(reduction="dpor")
        first = explore(spec, cache=RunCache(tmp_path))
        assert not first.cached
        payload = json.loads(_entry_path(tmp_path, spec).read_text())
        assert payload["format"] == "repro-exploration-v4"
        assert set(payload["body"]) == {"stats", "arena"}
        # a *fresh* cache object re-reads the v4 entry from disk
        reloaded = RunCache(tmp_path)
        hit = explore(spec, cache=reloaded)
        assert hit.cached
        assert reloaded.quarantined == []
        assert ordered_keys(hit) == ordered_keys(first)
        assert [r.meta["trace"] for r in hit.runs] == [
            r.meta["trace"] for r in first.runs
        ]
        assert hit.stats.runs_unique == first.stats.runs_unique

    def test_v4_entry_with_leaf_records_still_loads(self, tmp_path):
        """Older v4 writers also stored a ``leaves`` list; the loader
        ignores it rather than quarantining the entry."""
        spec = spec_of(reduction="dpor")
        first = explore(spec, cache=RunCache(tmp_path))
        path = _entry_path(tmp_path, spec)
        payload = json.loads(path.read_text())
        payload["body"]["leaves"] = [[[], [], True, 0]]
        _write_signed(path, payload)
        reloaded = RunCache(tmp_path)
        hit = explore(spec, cache=reloaded)
        assert hit.cached
        assert reloaded.quarantined == []
        assert ordered_keys(hit) == ordered_keys(first)

    def test_v4_entry_with_a_retired_stats_key_still_loads(self, tmp_path):
        """Entries written while the frontier could be sharded carry a
        ``workers`` counter; the loader drops stats keys it does not know."""
        spec = spec_of(reduction="dpor")
        first = explore(spec, cache=RunCache(tmp_path))
        path = _entry_path(tmp_path, spec)
        payload = json.loads(path.read_text())
        payload["body"]["stats"]["workers"] = 1
        _write_signed(path, payload)
        reloaded = RunCache(tmp_path)
        hit = explore(spec, cache=reloaded)
        assert hit.cached
        assert reloaded.quarantined == []
        assert hit.stats == first.stats
        assert ordered_keys(hit) == ordered_keys(first)


class TestTopLevelExports:
    def test_exported_from_top_level(self):
        import repro

        assert repro.ExploreSpec is ExploreSpec
        assert repro.explore is explore
        assert repro.replay_exploration is replay
        assert not hasattr(repro, "Explorer")


class TestDeprecations:
    def test_unknown_runtime_attribute_still_raises(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.NoSuchThing

    def test_retired_toggles_are_gone(self):
        for retired in ("por", "fingerprints"):
            with pytest.raises(TypeError):
                spec_of(**{retired: False})
            with pytest.raises(TypeError):
                spec_of().with_(**{retired: False})
