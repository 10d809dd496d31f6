"""Tests for the execution backends.

The load-bearing property: runs are pure functions of their specs, so
every backend must return field-for-field identical results in spec
order.  The pool tests run with 2 workers so they exercise real
cross-process dispatch even on small CI machines.
"""

import pytest

from repro.core.protocols import GeneralizedFDUDCProcess
from repro.detectors.generalized import GeneralizedOracle
from repro.model.context import make_process_ids
from repro.runtime import (
    EnsembleSpec,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_name,
    get_default_backend,
    run_ensemble,
    set_default_backend,
)
from repro.sim.executor import ExecutionConfig
from repro.sim.network import ChannelConfig
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

PROCS = make_process_ids(4)


def e07_style_spec(t=2, seeds=(0, 1, 2), procs=PROCS):
    """A t-useful detector sweep, as in E07 -- crash plans x seeds."""
    return EnsembleSpec.a5t(
        procs,
        uniform_protocol(GeneralizedFDUDCProcess, t=t),
        t=t,
        workload=single_action("p1", tick=1) + single_action("p3", tick=10, name="c0"),
        detector=GeneralizedOracle(t, padding=1),
        seeds=seeds,
    )


class TestSerialPoolEquivalence:
    def test_pool_matches_serial_field_for_field(self):
        spec = e07_style_spec()
        serial = run_ensemble(spec, backend=SerialBackend(), cache=None)
        pooled = run_ensemble(
            spec, backend=ProcessPoolBackend(max_workers=2), cache=None
        )
        assert len(serial) == len(pooled) == len(spec)
        for a, b in zip(serial.runs, pooled.runs):
            assert a.processes == b.processes
            assert a.duration == b.duration
            assert a.meta == b.meta
            for p in a.processes:
                assert a.timeline(p) == b.timeline(p)
            assert a == b

    def test_batch_spanning_two_process_tuples(self):
        """n=4 and n=3 specs in one batch, one chunk holding both."""
        specs = [
            *e07_style_spec(seeds=(0,)).expand(),
            *e07_style_spec(t=1, seeds=(0, 1), procs=make_process_ids(3)).expand(),
        ]
        assert [len(s.processes) for s in specs] == [4] * 11 + [3] * 8
        serial = run_ensemble(specs, backend=SerialBackend(), cache=None)
        pooled = run_ensemble(
            specs, backend=ProcessPoolBackend(max_workers=2), cache=None
        )
        assert list(pooled.runs) == list(serial.runs)

    def test_order_is_spec_order_not_completion_order(self):
        spec = e07_style_spec(seeds=(5, 3, 1))
        report = run_ensemble(
            spec, backend=ProcessPoolBackend(max_workers=2), cache=None
        )
        assert [m.seed for m in report.metrics] == [s.seed for s in spec.expand()]

    def test_single_spec_falls_back_to_serial(self):
        specs = e07_style_spec(seeds=(0,)).expand()[:1]
        report = run_ensemble(
            specs, backend=ProcessPoolBackend(max_workers=2), cache=None
        )
        assert len(report) == 1


class TestPoolValidation:
    def test_unpicklable_spec_is_rejected_with_guidance(self):
        spec = e07_style_spec(seeds=(0, 1)).expand()
        bad = spec[0].with_(
            config=ExecutionConfig(
                channel=ChannelConfig(blackhole=lambda s, r, m: False)
            )
        )
        with pytest.raises(ValueError, match="not picklable"):
            ProcessPoolBackend(max_workers=2).run_all([bad, spec[1]])

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)


class TestBackendSelection:
    def test_backend_from_name(self):
        assert isinstance(backend_from_name("serial"), SerialBackend)
        assert isinstance(backend_from_name("process"), ProcessPoolBackend)
        assert backend_from_name("process:3").max_workers == 3
        for name in ("gpu", "process:x", "process:", "process:2.5"):
            with pytest.raises(ValueError, match="unknown backend.*'process:N'"):
                backend_from_name(name)
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            backend_from_name("process:0")

    def test_run_ensemble_accepts_backend_names(self):
        spec = e07_style_spec(seeds=(0,))
        report = run_ensemble(spec, backend="serial", cache=None)
        assert report.backend == "serial"

    def test_default_backend_round_trip(self):
        try:
            set_default_backend("process:2")
            backend = get_default_backend()
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.max_workers == 2
        finally:
            set_default_backend("serial")


class TestEnsembleReport:
    def test_metrics_and_aggregates(self):
        spec = e07_style_spec(seeds=(0, 1))
        report = run_ensemble(spec, backend=SerialBackend(), cache=None)
        assert report.cache_hits == 0
        assert report.executed == len(spec)
        assert report.total_ticks == sum(r.duration for r in report.runs)
        assert all(m.ticks == r.duration for m, r in zip(report.metrics, report.runs))
        assert all(m.events > 0 for m in report.metrics)
        assert report.run_wall_time > 0

    def test_summary_renders(self):
        report = run_ensemble(
            e07_style_spec(seeds=(0,)), backend=SerialBackend(), cache=None
        )
        text = report.summary()
        assert "serial" in text
        assert f"{len(report)} runs" in text
