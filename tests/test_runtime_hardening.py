"""Tests for the hardened runtime: deadlines, retries with backoff,
pool respawn after worker death, and graceful ensemble degradation."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core.protocols import NUDCProcess
from repro.faults.infra import InfraFaultPlan, use_infra_faults
from repro.model.context import make_process_ids
from repro.model.run import Point, Run
from repro.model.system import IncompleteSystemWarning, System
from repro.runtime import (
    FailedRun,
    ProcessPoolBackend,
    RetryPolicy,
    RunSpec,
    SerialBackend,
    run_ensemble,
)
from repro.sim.executor import ExecutionConfig
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

PROCS = make_process_ids(3)


def make_spec(seed=0, config=None):
    return RunSpec(
        processes=PROCS,
        protocol=uniform_protocol(NUDCProcess),
        workload=single_action("p1", tick=1),
        config=config,
        seed=seed,
    )


def doomed_spec(seed=7):
    """A spec whose zero-second deadline trips on the first tick."""
    return make_spec(seed=seed, config=ExecutionConfig(deadline=0.0))


class FlakyFactory:
    """Protocol factory that fails the first ``fails`` builds, then works.

    State lives in marker files under ``state_dir`` so the flakiness is
    observable across retry attempts (and would be across processes).
    """

    def __init__(self, state_dir, fails):
        self.state_dir = str(state_dir)
        self.fails = fails
        self.inner = uniform_protocol(NUDCProcess)

    def __call__(self, pid, env):
        markers = list(Path(self.state_dir).glob("fail-*"))
        if len(markers) < self.fails:
            (Path(self.state_dir) / f"fail-{len(markers)}").touch()
            raise RuntimeError(f"transient failure #{len(markers) + 1}")
        return self.inner(pid, env)


class TestRetryPolicy:
    def test_exponential_backoff_is_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, max_backoff=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)
        assert policy.delay(9) == pytest.approx(0.3)

    def test_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestDeadlines:
    def test_deadline_becomes_a_structured_failure_not_a_retry(self):
        batch = SerialBackend().run_all_safe(
            [doomed_spec()], RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        (outcome,) = batch.outcomes
        assert isinstance(outcome, FailedRun)
        assert outcome.kind == "deadline"
        assert outcome.attempts == 1  # deterministic slowness: no retry
        assert not outcome.recovered
        assert "deadline" in outcome.error

    def test_unset_deadline_costs_nothing(self):
        batch = SerialBackend().run_all_safe([make_spec()])
        (outcome,) = batch.outcomes
        assert not isinstance(outcome, FailedRun)


class TestSerialRetries:
    def test_transient_exception_recovers_with_a_record(self, tmp_path):
        spec = make_spec().with_(protocol=FlakyFactory(tmp_path, fails=1))
        batch = SerialBackend().run_all_safe(
            [spec], RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        (outcome,) = batch.outcomes
        assert not isinstance(outcome, FailedRun)
        (recovery,) = batch.recoveries
        assert recovery.recovered
        assert recovery.kind == "exception"
        assert recovery.attempts == 2
        assert "transient failure" in recovery.error

    def test_exhausted_retries_fail_with_attempt_count(self, tmp_path):
        spec = make_spec().with_(protocol=FlakyFactory(tmp_path, fails=10))
        batch = SerialBackend().run_all_safe(
            [spec], RetryPolicy(max_attempts=2, backoff_base=0.0)
        )
        (outcome,) = batch.outcomes
        assert isinstance(outcome, FailedRun)
        assert outcome.kind == "exception"
        assert outcome.attempts == 2


class TestPoolHardening:
    def test_pool_survives_a_killed_worker(self, tmp_path):
        specs = [make_spec(seed=s) for s in range(4)]
        plan = InfraFaultPlan(state_dir=str(tmp_path), kill_worker_seeds=(2,))
        with use_infra_faults(plan):
            report = run_ensemble(
                specs,
                backend=ProcessPoolBackend(max_workers=2),
                cache=None,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            )
        assert plan.kill_marker(2).exists()  # the kill actually fired
        assert report.complete
        assert any(
            r.kind == "worker-crash" and r.recovered for r in report.recoveries
        )
        # Recovered results are still bitwise what serial produces.
        serial = run_ensemble(specs, backend=SerialBackend(), cache=None)
        assert list(report.runs) == list(serial.runs)

    def test_worker_count_types_validated(self):
        with pytest.raises(TypeError, match="max_workers must be an int"):
            ProcessPoolBackend(max_workers=2.5)
        with pytest.raises(TypeError, match="max_workers must be an int"):
            ProcessPoolBackend(max_workers=True)
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)


class TestGracefulDegradation:
    def test_failures_degrade_the_report_instead_of_raising(self):
        specs = [make_spec(seed=0), doomed_spec(seed=7)]
        with pytest.warns(UserWarning, match="degraded: 1 of 2"):
            report = run_ensemble(specs, backend=SerialBackend(), cache=None)
        assert not report.complete
        assert len(report.runs) == 1
        (failure,) = report.failures
        assert failure.index == 1 and failure.seed == 7
        assert failure.kind == "deadline"
        assert "DEGRADED" in report.summary()
        system = report.system()
        assert not system.complete
        assert system.missing_runs == 1

    def test_all_runs_lost_still_returns_a_report(self):
        with pytest.warns(UserWarning, match="degraded"):
            report = run_ensemble(
                [doomed_spec(seed=1)], backend=SerialBackend(), cache=None
            )
        assert len(report.runs) == 0
        with pytest.raises(ValueError, match="zero surviving runs"):
            report.system()


class TestIncompleteSystemWarning:
    def _system(self, missing):
        run = Run(("p1",), {"p1": []}, 1)
        return System([run], missing_runs=missing), Point(run, 0)

    def test_warning_counts_missing_runs(self):
        system, point = self._system(missing=2)
        with pytest.warns(
            IncompleteSystemWarning, match="2 planned runs missing or failed"
        ):
            system.knows("p1", point, lambda pt: True)

    def test_fires_once_per_system_not_once_per_process(self):
        sys_a, point = self._system(missing=1)
        with pytest.warns(IncompleteSystemWarning):
            sys_a.knows("p1", point, lambda pt: True)
        # Same system again: silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_a.knows("p1", point, lambda pt: True)
        # A *different* incomplete system warns again, even though the
        # warning is raised from the very same file/line.
        sys_b, point_b = self._system(missing=1)
        with pytest.warns(IncompleteSystemWarning):
            sys_b.knows("p1", point_b, lambda pt: True)


def test_importing_the_runtime_leaves_asyncio_unloaded():
    """The backends import repro.faults.infra, which runs the package's
    __init__; that must not pull in the chaos proxy and asyncio."""
    code = "import sys, repro.runtime; print('asyncio' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
