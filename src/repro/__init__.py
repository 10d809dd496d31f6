"""repro: Uniform Distributed Coordination and failure detectors.

A from-scratch reproduction of Halpern & Ricciardi, "A Knowledge-
Theoretic Analysis of Uniform Distributed Coordination and Failure
Detectors" (PODC 1999; arXiv cs/0402012).

The package is organised bottom-up:

* :mod:`repro.model`     -- the paper's formal model: events, histories,
  runs (R1-R5), systems, contexts.
* :mod:`repro.sim`       -- a deterministic seeded simulator that
  executes joint protocols in a context and produces runs.
* :mod:`repro.detectors` -- failure-detector oracles (perfect / strong /
  weak / impermanent / eventually-weak / generalized (S, k) / ATD),
  property checkers, and the conversion theorems.
* :mod:`repro.knowledge` -- the epistemic-temporal logic of Section 2.3
  with an exact finite-system model checker.
* :mod:`repro.core`      -- the UDC protocols (Props 2.3, 2.4, 3.1, 4.1;
  Section 5), the DC1-DC3 checkers, the knowledge-based run
  transformations f and f' (Theorems 3.6, 4.3), and the Chandra-Toueg
  consensus baselines.
* :mod:`repro.workloads` -- action-initiation schedules.
* :mod:`repro.harness`   -- one executable experiment per claim of the
  paper, including the Table 1 grid (``python -m repro.harness``).

Quickstart::

    from repro import (
        Executor, CrashPlan, StrongFDUDCProcess, StrongOracle,
        make_process_ids, single_action, udc_holds, uniform_protocol,
    )

    processes = make_process_ids(5)
    run = Executor(
        processes,
        uniform_protocol(StrongFDUDCProcess),
        crash_plan=CrashPlan.of({"p3": 8}),
        workload=single_action("p1", tick=1),
        detector=StrongOracle(),
        seed=42,
    ).run()
    assert udc_holds(run)
"""

from repro.core.properties import nudc_holds, udc_holds
from repro.core.protocols import (
    AtdUDCProcess,
    GeneralizedFDUDCProcess,
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.core.simulation_theorem import (
    simulate_generalized_detectors,
    simulate_perfect_detectors,
    transform_run_f,
    transform_run_f_prime,
)
from repro.detectors.generalized import GeneralizedOracle, TrivialSubsetOracle
from repro.detectors.standard import (
    EventuallyWeakOracle,
    PerfectOracle,
    StrongOracle,
    WeakOracle,
)
from repro.explore import (
    ExploreSpec,
    ShrinkResult,
    UniformityMonitor,
    Violation,
    explore,
    shrink_violation,
)
from repro.explore import replay as replay_exploration
from repro.explore.reduction import ExploreStats
from repro.knowledge import Knows, ModelChecker
from repro.model.context import ChannelSemantics, Context, make_process_ids
from repro.model.run import Point, Run, validate_run
from repro.model.system import IncompleteSystemWarning, System
from repro.runtime import (
    EnsembleReport,
    EnsembleSpec,
    ExploreReport,
    ProcessPoolBackend,
    RunCache,
    RunSpec,
    SerialBackend,
    run_ensemble,
    run_spec,
)
from repro.sim.executor import ExecutionConfig, Executor, execute
from repro.sim.failures import CrashPlan
from repro.sim.process import ProtocolProcess, uniform_protocol
from repro.workloads.generators import action_id, single_action

__version__ = "1.0.0"

__all__ = [
    "AtdUDCProcess",
    "ChannelSemantics",
    "Context",
    "CrashPlan",
    "EnsembleReport",
    "EnsembleSpec",
    "EventuallyWeakOracle",
    "ExecutionConfig",
    "Executor",
    "ExploreReport",
    "ExploreSpec",
    "ExploreStats",
    "GeneralizedFDUDCProcess",
    "GeneralizedOracle",
    "IncompleteSystemWarning",
    "Knows",
    "ModelChecker",
    "NUDCProcess",
    "PerfectOracle",
    "Point",
    "ProcessPoolBackend",
    "ProtocolProcess",
    "ReliableUDCProcess",
    "Run",
    "RunCache",
    "RunSpec",
    "SerialBackend",
    "ShrinkResult",
    "StrongFDUDCProcess",
    "StrongOracle",
    "System",
    "TrivialSubsetOracle",
    "UniformityMonitor",
    "Violation",
    "WeakOracle",
    "action_id",
    "execute",
    "explore",
    "replay_exploration",
    "run_ensemble",
    "run_spec",
    "make_process_ids",
    "nudc_holds",
    "shrink_violation",
    "simulate_generalized_detectors",
    "simulate_perfect_detectors",
    "single_action",
    "transform_run_f",
    "transform_run_f_prime",
    "udc_holds",
    "uniform_protocol",
    "validate_run",
]
