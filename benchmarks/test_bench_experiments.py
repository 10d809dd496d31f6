"""Bench every registered experiment: E01-E13 (E09 is Table 1) and A13-A17.

Each experiment runs once through its registry runner, must PASS, and
prints its measured rows (the experiment rows of DESIGN.md Section 4)
alongside the timing.
"""

import pytest

from repro.harness.registry import experiment_ids, get

from conftest import bench_experiment


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_bench_experiment(benchmark, exp_id):
    bench_experiment(benchmark, get(exp_id).runner)
