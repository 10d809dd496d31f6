"""Tests for the experiment harness: every experiment passes at reduced
scale, results render, and Table 1 reproduces the paper's shape."""

import pytest

from repro.core.protocols import NUDCProcess
from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment
from repro.harness.results import ExperimentResult, render_result, render_results
from repro.harness.table1 import REGIMES, build_table1, render_table1, run_e09
from repro.model.context import make_process_ids
from repro.runtime import EnsembleSpec, RunCache, SerialBackend, set_default_backend
from repro.runtime.cache import default_run_cache, set_default_run_cache
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action


class TestResults:
    def test_require_accumulates(self):
        r = ExperimentResult("X", "t", "c", passed=True)
        assert r.require(True, "ok")
        assert r.passed
        assert not r.require(False, "bad")
        assert not r.passed

    def test_render_contains_rows(self):
        r = ExperimentResult("X", "title", "claim", passed=True)
        r.row("metric", 42)
        text = render_result(r)
        assert "[X] title ... PASS" in text
        assert "metric" in text and "42" in text

    def test_render_results_summary(self):
        a = ExperimentResult("A", "t", "c", passed=True)
        b = ExperimentResult("B", "t", "c", passed=False)
        text = render_results([a, b])
        assert "1/2 experiments passed" in text


class TestExperimentRegistry:
    def test_known_ids(self):
        assert set(ALL_EXPERIMENTS) == {
            "E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
            "E10", "E11", "E12", "E13", "A13", "A14", "A15", "A16", "A17",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("E99")

    def test_lookup_case_insensitive(self):
        result = run_experiment("a14")
        assert result.exp_id == "A14"


class RecordingBackend(SerialBackend):
    """The serial backend, remembering every spec it executes."""

    name = "recording"

    def __init__(self):
        self.batch_sizes = []
        self.specs = []

    def run_all_safe(self, specs, policy=None):
        self.batch_sizes.append(len(specs))
        self.specs.extend(specs)
        return super().run_all_safe(specs, policy)


class TestBackendSelection:
    def test_ensemble_sweeps_follow_the_default_backend(self):
        """``--backend`` installs the process-wide default backend; an
        experiment's A5_t sweep must run on it, not on a serial backend
        chosen behind the caller's back."""
        backend = RecordingBackend()
        set_default_backend(backend)
        try:
            result = run_experiment("E12")
        finally:
            set_default_backend(None)
        assert result.passed, render_result(result)
        assert backend.batch_sizes, "E12's sweep bypassed the default backend"


class TestSharedRuns:
    """A17 rebuilds E06's ensemble and E13 the t=1 part of E01's: those
    ensembles go through the default run cache, so each shared run is
    simulated once."""

    @pytest.fixture
    def backend(self):
        previous = default_run_cache()
        set_default_run_cache(RunCache())
        backend = RecordingBackend()
        set_default_backend(backend)
        try:
            yield backend
        finally:
            set_default_backend(None)
            set_default_run_cache(previous)

    def _executed(self, backend, exp_id):
        before = len(backend.specs)
        result = run_experiment(exp_id)
        assert result.passed, render_result(result)
        return backend.specs[before:]

    def test_a17_simulates_only_the_runs_e06_lacks(self, backend):
        # E06: 15 crash plans x seeds 0-1.  A17 asks for seeds 0, 0-1
        # and 0-2: only seed 2 is new (90 specs without the cache).
        assert len(self._executed(backend, "E06")) == 30
        assert len(self._executed(backend, "A17")) == 15

    def test_e13_takes_its_plain_with_action_runs_from_e01(self, backend):
        self._executed(backend, "E01")
        shared = EnsembleSpec.a5t(
            make_process_ids(4),
            uniform_protocol(NUDCProcess),
            t=1,
            workload=single_action("p1", tick=1),
            seeds=(0, 1),
        ).expand()
        hits = default_run_cache().hits
        executed = self._executed(backend, "E13")
        assert not set(shared) & set(executed)
        assert default_run_cache().hits - hits == len(shared) == 10


class TestCLI:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_and_exits_zero(self, flag, capsys):
        from repro.harness.__main__ import main

        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:\n    python -m repro.harness [--list]")
        assert "unknown experiment ids" not in out

    def test_top_level_help_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["--help"]) == 0
        assert "experiments [IDs...]" in capsys.readouterr().out
        assert main(["experiments", "--help"]) == 0
        assert main(["bogus"]) == 2

    def test_unknown_experiment_id_exits_two(self, capsys):
        from repro.harness.__main__ import main

        assert main(["E99"]) == 2
        assert "unknown experiment ids: E99" in capsys.readouterr().out

    def test_bad_repro_backend_exits_two_before_any_experiment(
        self, monkeypatch, capsys
    ):
        from repro.harness.__main__ import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        set_default_backend(None)
        try:
            assert main(["E01"]) == 2
        finally:
            set_default_backend(None)
        out = capsys.readouterr().out
        assert out == (
            "unknown backend 'bogus'; expected 'serial', 'process', or "
            "'process:N'\n"
        )

    def test_bad_backend_flag_exits_two(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--backend", "process:x", "E01"]) == 2
        assert "unknown backend 'process:x'" in capsys.readouterr().out


# One test per experiment, so failures localize.  These run the real
# experiment functions (at their default, already-modest scale).


@pytest.mark.parametrize("exp_id", sorted(ALL_EXPERIMENTS))
def test_experiment_passes(exp_id):
    result = ALL_EXPERIMENTS[exp_id]()
    assert result.passed, render_result(result)


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table1(n=5, seeds=(0,))

    def test_all_cells_present(self, table):
        assert len(table.cells) == 12  # 2 channels x 2 problems x 3 regimes
        for channel in ("Reliable", "Unreliable"):
            for problem in ("UDC", "consensus"):
                for regime in REGIMES:
                    assert any(
                        c.channel == channel
                        and c.problem == problem
                        and c.regime == regime
                        for c in table.cells
                    )

    def test_shape_matches_paper(self, table):
        failing = [c for c in table.cells if not c.matches_paper]
        assert not failing, [
            (c.channel, c.problem, c.regime, c.verdict) for c in failing
        ]

    def test_udc_unreliable_needs_detector_beyond_half(self, table):
        cell = next(
            c
            for c in table.cells
            if c.channel == "Unreliable"
            and c.problem == "UDC"
            and c.regime == "n/2 <= t < n-1"
        )
        assert cell.claimed == "t-useful"
        assert cell.weaker_fails

    def test_reliable_udc_needs_nothing(self, table):
        for regime in REGIMES:
            cell = next(
                c
                for c in table.cells
                if c.channel == "Reliable" and c.problem == "UDC" and c.regime == regime
            )
            assert cell.claimed == "no FD"
            assert cell.sufficient_ok

    def test_render(self, table):
        text = render_table1(table)
        assert "Table 1" in text
        assert "shape matches paper: YES" in text
        assert "t-useful" in text

    def test_e09_wrapper(self):
        result = run_e09(n=5, seeds=(0,))
        assert result.exp_id == "E09"
        assert result.passed
