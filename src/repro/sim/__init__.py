"""Discrete-event simulation substrate.

This package executes joint protocols in a context (Section 2.1) and
produces :class:`repro.model.run.Run` objects:

* :mod:`repro.sim.network`  -- channels: reliable, fair-lossy (R5 via a
  fairness budget), and deliberately unfair (for the A14 ablation).
* :mod:`repro.sim.failures` -- crash plans and samplers (A1 / A5_t).
* :mod:`repro.sim.process`  -- the protocol interface and environment.
* :mod:`repro.sim.executor` -- the deterministic seeded scheduler that
  turns (protocol, context, adversary seed) into a run.

Systems (sets of runs) are built one layer up:
:func:`repro.runtime.run_ensemble` sweeps an
:class:`~repro.runtime.EnsembleSpec` over seeds and crash plans, and
:func:`repro.explore.explore` enumerates every run up to a horizon.
"""

from repro.sim.executor import ExecutionConfig, Executor, execute
from repro.sim.failures import CrashPlan, all_crash_plans, sample_crash_plan
from repro.sim.network import (
    Envelope,
    FairLossyChannel,
    NetworkChannel,
    ReliableChannel,
    UnfairChannel,
    make_channel,
)
from repro.sim.process import ProcessEnv, ProtocolProcess

__all__ = [
    "CrashPlan",
    "Envelope",
    "ExecutionConfig",
    "Executor",
    "FairLossyChannel",
    "NetworkChannel",
    "ProcessEnv",
    "ProtocolProcess",
    "ReliableChannel",
    "UnfairChannel",
    "all_crash_plans",
    "execute",
    "make_channel",
    "sample_crash_plan",
]
