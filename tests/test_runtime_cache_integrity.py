"""Tests for RunCache disk integrity: atomic writes, checksummed
entries, quarantine of corrupt files, and regeneration."""

import hashlib
import json

import pytest

from repro.columnar import encode_runs
from repro.columnar.jsonio import arena_to_jsonable
from repro.core.protocols import NUDCProcess
from repro.faults.infra import corrupt_cache_entry
from repro.model.context import make_process_ids
from repro.runtime import RunCache, RunSpec, run_ensemble
from repro.sim.executor import Executor
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action
from tests.test_columnar_roundtrip import PROBES, tampered_payload

PROCS = make_process_ids(3)


def make_spec(seed=0):
    return RunSpec(
        processes=PROCS,
        protocol=uniform_protocol(NUDCProcess),
        workload=single_action("p1", tick=1),
        seed=seed,
    )


def make_run(spec):
    return Executor.from_spec(spec).run()


def sha256_of(body):
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_sealed(path, payload):
    """Write an edited entry back with its body sha256 recomputed."""
    payload["sha256"] = sha256_of(payload["body"])
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestAtomicCheckedWrites:
    def test_put_is_atomic_and_checksummed(self, tmp_path):
        spec = make_spec()
        RunCache(tmp_path).put(spec, make_run(spec))
        assert not list(tmp_path.glob("*.tmp"))  # temp file was renamed away
        payload = json.loads(
            (tmp_path / f"{spec.digest()}.json").read_text(encoding="utf-8")
        )
        assert payload["format"] == "repro-run-entry-v4"
        assert len(payload["sha256"]) == 64
        assert set(payload["body"]) == {"arena"}

    def test_round_trip_through_disk(self, tmp_path):
        spec = make_spec()
        run = make_run(spec)
        RunCache(tmp_path).put(spec, run)
        fresh = RunCache(tmp_path)
        assert fresh.get(spec) == run
        assert fresh.quarantined == []


class TestQuarantine:
    def test_garbage_entry_quarantined_and_read_as_miss(self, tmp_path):
        spec = make_spec()
        RunCache(tmp_path).put(spec, make_run(spec))
        corrupt_cache_entry(tmp_path, spec.digest())

        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None
        (entry,) = fresh.quarantined
        assert entry[0] == spec.digest()
        assert not (tmp_path / f"{spec.digest()}.json").exists()
        assert (tmp_path / f"{spec.digest()}.corrupt").exists()

        # Regeneration heals the entry for every later reader.
        fresh.put(spec, make_run(spec))
        assert RunCache(tmp_path).get(spec) is not None

    def test_tampered_body_fails_the_digest_check(self, tmp_path):
        spec = make_spec()
        RunCache(tmp_path).put(spec, make_run(spec))
        path = tmp_path / f"{spec.digest()}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["body"]["arena"]["n_runs"] += 1
        path.write_text(json.dumps(payload), encoding="utf-8")

        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None
        (entry,) = fresh.quarantined
        assert "digest mismatch" in entry[1]

    def test_unchecksummed_entry_is_quarantined(self, tmp_path):
        """A bare run dict (no sealed v3 envelope) is not a format
        the cache reads: it quarantines, reads as a miss, and the next
        put heals it."""
        from repro.model.serialize import run_to_dict

        spec = make_spec()
        run = make_run(spec)
        path = tmp_path / f"{spec.digest()}.json"
        path.write_text(json.dumps(run_to_dict(run)), encoding="utf-8")
        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None
        (entry,) = fresh.quarantined
        assert entry[0] == spec.digest()
        assert "unrecognized cache entry format" in entry[1]
        assert (tmp_path / f"{spec.digest()}.corrupt").exists()

        fresh.put(spec, run)
        assert RunCache(tmp_path).get(spec) == run

    def test_old_exploration_formats_quarantined(self, tmp_path):
        """Exploration entries older than v4 are misses, not errors."""
        for fmt in ("repro-exploration-v1", "repro-exploration-v3"):
            path = tmp_path / f"explore-{fmt}.json"
            path.write_text(
                json.dumps({"format": fmt, "runs": [], "stats": {}}),
                encoding="utf-8",
            )
            fresh = RunCache(tmp_path)
            assert fresh.get_exploration(fmt) is None
            (entry,) = fresh.quarantined
            assert "unrecognized cache entry format" in entry[1]
            assert path.with_name(f"explore-{fmt}.corrupt").exists()

    def test_v2_run_entry_is_quarantined_and_healed(self, tmp_path):
        """Older run entries read as a miss and the next put rewrites
        them as v4: v2 held a per-run event tree, and v3, the same sealed
        arena as v4, was written while rotating-coordinator consensus
        started its timestamps at round 0."""
        from repro.model.serialize import run_to_dict

        spec = make_spec()
        run = make_run(spec)
        tree = run_to_dict(run)
        arena = {"arena": arena_to_jsonable(encode_runs((run,)))}
        older = [
            {"format": "repro-run-entry-v2", "sha256": sha256_of(tree), "run": tree},
            {"format": "repro-run-entry-v3", "sha256": sha256_of(arena), "body": arena},
        ]
        path = tmp_path / f"{spec.digest()}.json"
        for payload in older:
            path.write_text(json.dumps(payload), encoding="utf-8")
            fresh = RunCache(tmp_path)
            assert fresh.get(spec) is None
            (entry,) = fresh.quarantined
            fmt = payload["format"]
            assert f"unrecognized cache entry format '{fmt}'" in entry[1]

            fresh.put(spec, run)
            assert RunCache(tmp_path).get(spec) == run

    @pytest.mark.parametrize("probe", PROBES)
    def test_resealed_arena_the_decoder_refuses_is_quarantined(self, tmp_path, probe):
        """A run entry whose arena was edited and resealed passes the
        sha256 check; the arena decoder's checks must still refuse it."""
        spec = make_spec()
        run = make_run(spec)
        RunCache(tmp_path).put(spec, run)
        path = tmp_path / f"{spec.digest()}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["body"]["arena"] = tampered_payload((run,), probe)
        write_sealed(path, payload)

        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None
        (entry,) = fresh.quarantined
        assert entry[0] == spec.digest()
        assert "arena" in entry[1]
        assert (tmp_path / f"{spec.digest()}.corrupt").exists()

        fresh.put(spec, run)
        assert RunCache(tmp_path).get(spec) == run

    def test_run_entry_must_hold_one_run(self, tmp_path):
        spec = make_spec()
        run = make_run(spec)
        RunCache(tmp_path).put(spec, run)
        path = tmp_path / f"{spec.digest()}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        other = make_run(make_spec(seed=1))
        payload["body"]["arena"] = arena_to_jsonable(encode_runs((run, other)))
        write_sealed(path, payload)

        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None
        (entry,) = fresh.quarantined
        assert "holds 2 runs" in entry[1]

    def test_run_ensemble_surfaces_cache_corruption_as_recovery(self, tmp_path):
        spec = make_spec()
        run_ensemble([spec], backend="serial", cache=RunCache(tmp_path))
        corrupt_cache_entry(tmp_path, spec.digest())

        report = run_ensemble([spec], backend="serial", cache=RunCache(tmp_path))
        assert report.complete  # the run was regenerated
        assert len(report.runs) == 1
        (recovery,) = report.recoveries
        assert recovery.kind == "cache-corrupt"
        assert recovery.recovered
        # The regenerated entry is healthy again.
        assert RunCache(tmp_path).get(spec) is not None


class TestExplorationIntegrity:
    def test_corrupt_exploration_entry_quarantined(self, tmp_path):
        from repro.explore.reduction import ExploreStats

        run = make_run(make_spec())
        cache = RunCache(tmp_path)
        cache.put_exploration("deadbeef", (run,), ExploreStats(runs_unique=1))
        path = tmp_path / "explore-deadbeef.json"
        assert not list(tmp_path.glob("*.tmp"))
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")

        fresh = RunCache(tmp_path)
        assert fresh.get_exploration("deadbeef") is None
        assert any(d == "explore-deadbeef" for d, _ in fresh.quarantined)
        assert path.with_name("explore-deadbeef.corrupt").exists()

    def test_exploration_round_trip_checksummed(self, tmp_path):
        from repro.explore.reduction import ExploreStats

        run = make_run(make_spec())
        RunCache(tmp_path).put_exploration(
            "cafe", (run,), ExploreStats(runs_unique=1)
        )
        payload = json.loads(
            (tmp_path / "explore-cafe.json").read_text(encoding="utf-8")
        )
        assert payload["format"] == "repro-exploration-v4"
        assert "arena" in payload["body"]
        hit = RunCache(tmp_path).get_exploration("cafe")
        assert hit is not None
        runs, stats = hit
        assert runs == (run,)
        assert stats.runs_unique == 1


class TestClear:
    def test_clear_resets_quarantine_log(self, tmp_path):
        spec = make_spec()
        RunCache(tmp_path).put(spec, make_run(spec))
        corrupt_cache_entry(tmp_path, spec.digest())
        cache = RunCache(tmp_path)
        cache.get(spec)
        assert cache.quarantined
        cache.clear()
        assert cache.quarantined == []
        assert cache.hits == cache.misses == 0
