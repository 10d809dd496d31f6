"""The exploration specification: what to enumerate, and how to reduce it.

:class:`ExploreSpec` names the whole bounded nondeterminism space of a
context.  Its ``reduction`` field picks one of two modes:

* ``reduction="none"`` -- the unreduced reference semantics: one branch
  per deliverable copy, one drop/accept branch per lossy submission.
  This is the baseline the differential tests compare against.
* ``reduction="dpor"`` (default) -- dynamic partial-order reduction
  over the delivery-choice independence relation: interchangeable
  in-flight copies collapse into one branch (persistent/source sets),
  and drop/accept branches are *elided* entirely -- every dropped-copy
  run is observationally reproduced by an accept-and-defer schedule, so
  the drop branch sleeps (sleep sets from observed conflicts), and
  quiescence is recovered by synthesizing an R5-feasible drop schedule
  for the copies left in flight (see DESIGN.md section 12).

Both modes enumerate the same run set; ``dpor`` just executes fewer
branches to get there.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from dataclasses import dataclass, replace

from repro.detectors.base import DetectorOracle
from repro.model.context import Context
from repro.model.events import ActionId, ProcessId
from repro.sim.executor import ProtocolFactory
from repro.sim.failures import CrashPlan

__all__ = ["ExploreSpec", "REDUCTION_MODES"]

#: The legal ``ExploreSpec.reduction`` values.
REDUCTION_MODES = ("none", "dpor")


@dataclass(frozen=True)
class ExploreSpec:
    """A bounded exhaustive exploration, declaratively.

    Where :class:`repro.runtime.EnsembleSpec` *samples* adversary
    schedules through seeds, an ``ExploreSpec`` names the whole
    nondeterminism space and asks :func:`repro.explore.explore` to
    enumerate it: every crash pattern with at most ``max_failures``
    crashes at ticks drawn from ``crash_ticks``, and -- per reachable
    configuration -- every delivery/defer choice (message
    reordering/delay) plus, when ``lossy`` is set, every drop/accept
    behaviour the R5 fairness budget permits.  The result is the
    *complete* set of horizon-``T`` runs of the context, which is what
    makes the epistemic kernel's answers sound.

    ``reduction`` selects the state-space reduction mode (see module
    docstring).  ``max_executions`` is a safety valve: when hit,
    exploration stops early and the resulting system is marked
    *incomplete* (``ExploreStats.truncated``).
    """

    processes: tuple[ProcessId, ...]
    protocol: ProtocolFactory
    horizon: int = 4
    max_failures: int = 0
    crash_ticks: tuple[int, ...] = (1,)
    workload: tuple[tuple[int, ProcessId, ActionId], ...] = ()
    detector: DetectorOracle | None = None
    lossy: bool = False
    max_consecutive_drops: int = 2
    reduction: str = "dpor"
    strategy: str = "dfs"
    max_executions: int | None = None
    context: Context | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "crash_ticks", tuple(self.crash_ticks))
        object.__setattr__(self, "workload", tuple(sorted(self.workload)))
        if not self.processes:
            raise ValueError("an ExploreSpec needs at least one process")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.max_failures <= len(self.processes):
            raise ValueError("max_failures must be in [0, n]")
        if any(t < 1 for t in self.crash_ticks):
            raise ValueError("crash ticks must be >= 1")
        if self.max_consecutive_drops < 1:
            raise ValueError("max_consecutive_drops must be >= 1 (R5)")
        if self.reduction not in REDUCTION_MODES:
            raise ValueError(
                f"reduction must be one of {REDUCTION_MODES}, "
                f"got {self.reduction!r}"
            )
        if self.strategy not in ("dfs", "bfs"):
            raise ValueError("strategy must be 'dfs' or 'bfs'")

    def with_(self, **changes: object) -> "ExploreSpec":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def crash_plans(self) -> tuple[CrashPlan, ...]:
        """Every crash pattern of the bounded adversary, in a fixed order.

        One plan per (subset S with \\|S\\| <= max_failures, assignment of a
        crash tick from ``crash_ticks`` to each member of S); plans whose
        every crash lands past the horizon collapse onto already-listed
        plans at exploration time (runs are deduplicated by value).
        """
        plans: list[CrashPlan] = [CrashPlan.none()]
        seen = {plans[0]}
        ticks = tuple(dict.fromkeys(self.crash_ticks))
        for size in range(1, self.max_failures + 1):
            for subset in itertools.combinations(self.processes, size):
                for assignment in itertools.product(ticks, repeat=size):
                    plan = CrashPlan.of(dict(zip(subset, assignment)))
                    if plan not in seen:
                        seen.add(plan)
                        plans.append(plan)
        return tuple(plans)

    def digest(self) -> str | None:
        """Stable content hash, or None when the spec is not picklable."""
        try:
            payload = pickle.dumps(
                (
                    "explore-v2",
                    self.processes,
                    self.protocol,
                    self.horizon,
                    self.max_failures,
                    self.crash_ticks,
                    self.workload,
                    self.detector,
                    self.lossy,
                    self.max_consecutive_drops,
                    self.reduction,
                    self.strategy,
                    self.max_executions,
                    self.context,
                ),
                protocol=4,
            )
        except Exception:
            return None
        return hashlib.sha256(payload).hexdigest()
