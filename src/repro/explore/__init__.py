"""Bounded exhaustive run exploration (model checking the contexts).

``repro.explore`` closes the soundness gap of sampled ensembles: it
enumerates *every* run of a protocol+context up to a horizon T over the
sim's modeled nondeterminism (crash timing, message delay/reordering,
fair-lossy drops), so the :class:`~repro.model.system.System` it builds
is complete and the epistemic kernel's ``Knows``/``C_G`` answers over it
are sound by construction rather than sample-dependent.

Entry points:

* :class:`ExploreSpec` -- what to enumerate, and whether to reduce it
  (``reduction="dpor"``, the default, or the unreduced reference
  ``reduction="none"``; both yield the same run set);
* :func:`explore` -- enumerate a spec into an
  :class:`~repro.runtime.report.ExploreReport`, depth-first (resuming
  branches from tick-start snapshots) or breadth-first;
* :func:`replay` -- re-execute one branch from its
  ``(crash_plan, trace)`` coordinates;
* :mod:`~repro.explore.monitors` -- per-run property monitors
  (UDC/uniformity, arbitrary predicates) that can short-circuit the
  search;
* :func:`~repro.explore.shrink.shrink_violation` -- delta-debugging
  minimization of a violating run.
"""

from repro.explore.monitors import (
    PredicateMonitor,
    RunMonitor,
    UniformityMonitor,
    Violation,
    is_quiescent,
)
from repro.explore.reduction import ExploreStats
from repro.explore.scheduler import ExecutionResult, explore, replay
from repro.explore.shrink import ShrinkResult, shrink_violation
from repro.explore.spec import REDUCTION_MODES, ExploreSpec

__all__ = [
    "ExecutionResult",
    "ExploreSpec",
    "ExploreStats",
    "PredicateMonitor",
    "REDUCTION_MODES",
    "RunMonitor",
    "ShrinkResult",
    "UniformityMonitor",
    "Violation",
    "explore",
    "is_quiescent",
    "replay",
    "shrink_violation",
]
