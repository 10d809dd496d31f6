"""Bench S01 (supplementary figure): protocol message cost vs system size.

The paper reports no measurements; this series characterises the
implementation: messages per coordinated action for each UDC protocol
as n grows, under the default fair-lossy channel, beside the
rotating-coordinator consensus of Table 1's baseline.  Expected shape:
linear-ish in n for the one-shot reliable protocol, a constant factor
higher for the retransmitting protocols, and consensus well above all
of them (it pays for rounds of majority quorums).
"""

from repro.core.consensus import RotatingCoordinatorConsensus, consensus_factory
from repro.core.protocols import (
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.detectors.standard import EventuallyWeakOracle, StrongOracle
from repro.harness.stats import SeriesPoint, messages_per_action, render_series
from repro.model.context import ChannelSemantics, make_process_ids
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

SIZES = (3, 4, 5, 6)
SEEDS = (0, 1, 2)

RELIABLE = ExecutionConfig(channel=ChannelConfig(semantics=ChannelSemantics.RELIABLE))


def proposals(n):
    """A distinct proposal per process, so consensus has a choice to make."""
    return {p: f"v{i}" for i, p in enumerate(make_process_ids(n))}


def cost_series(factory_for, *, detector_for=lambda n: None, config=None):
    points = []
    for n in SIZES:
        procs = make_process_ids(n)
        samples = []
        for seed in SEEDS:
            run = Executor(
                procs,
                factory_for(n),
                crash_plan=CrashPlan.none(),
                workload=single_action("p1", tick=1),
                detector=detector_for(n),
                config=config,
                seed=seed,
            ).run()
            samples.append(messages_per_action(run))
        points.append(SeriesPoint.of(n, samples))
    return points


def test_bench_s01_cost_scaling(benchmark):
    def sweep():
        return {
            "nUDC (Prop 2.3)": cost_series(
                lambda n: uniform_protocol(NUDCProcess)
            ),
            "UDC reliable (Prop 2.4)": cost_series(
                lambda n: uniform_protocol(ReliableUDCProcess), config=RELIABLE
            ),
            "UDC strong-FD (Prop 3.1)": cost_series(
                lambda n: uniform_protocol(StrongFDUDCProcess),
                detector_for=lambda n: StrongOracle(),
            ),
            "consensus (rotating coordinator)": cost_series(
                lambda n: consensus_factory(RotatingCoordinatorConsensus, proposals(n)),
                detector_for=lambda n: EventuallyWeakOracle(stabilization_tick=20),
            ),
        }

    series = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for title, points in series.items():
        print(render_series(title, "n", "messages/action", points))
        print()

    # Shape assertions: reliable one-shot is the cheapest UDC; consensus
    # is the most expensive at every size.
    for i, n in enumerate(SIZES):
        reliable = series["UDC reliable (Prop 2.4)"][i].mean
        strong = series["UDC strong-FD (Prop 3.1)"][i].mean
        consensus = series["consensus (rotating coordinator)"][i].mean
        assert reliable <= strong <= consensus
    # Costs grow with n for every protocol.
    for points in series.values():
        assert points[-1].mean > points[0].mean
