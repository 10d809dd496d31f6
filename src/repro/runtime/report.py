"""Per-run metrics and the ensemble-level report.

Every ``run_ensemble`` call returns an :class:`EnsembleReport`: the runs
(in spec order), one :class:`RunMetrics` per run, and batch-level
figures (backend, total wall time, cache hits).  ``report.system()``
lifts the runs into the :class:`repro.model.system.System` the knowledge
machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.model.run import Run
from repro.model.system import KernelStats, System
from repro.sim.failures import CrashPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.monitors import Violation
    from repro.explore.reduction import ExploreStats
    from repro.explore.spec import ExploreSpec
    from repro.model.context import Context
    from repro.runtime.spec import RunSpec


@dataclass(frozen=True)
class FailedRun:
    """One spec the runtime could not (or at first could not) execute.

    ``kind`` classifies the fault:

    * ``"deadline"``     -- the run overran ``ExecutionConfig.deadline``;
    * ``"worker-crash"`` -- a pool worker died (``BrokenProcessPool``);
    * ``"exception"``    -- the executor raised;
    * ``"cache-corrupt"``-- a disk cache entry failed its integrity
      check and was quarantined.

    ``recovered=True`` marks a *recovery* record: a later attempt (or a
    regeneration, for cache corruption) succeeded, so the run is present
    in the report and this record only documents the bumpy road.
    """

    index: int  # position in the expanded spec list
    seed: int
    kind: str
    attempts: int = 1
    error: str = ""
    crash_plan: CrashPlan | None = None
    recovered: bool = False

    def describe(self) -> str:
        crashes = (
            dict(self.crash_plan.crashes)
            if self.crash_plan is not None and self.crash_plan.faulty
            else "none"
        )
        status = "recovered" if self.recovered else "failed"
        detail = f": {self.error}" if self.error else ""
        return (
            f"spec {self.index} (seed={self.seed}, crashes={crashes}) "
            f"{status} [{self.kind}] after {self.attempts} attempt(s){detail}"
        )


@dataclass(frozen=True)
class RunMetrics:
    """What one run cost and produced."""

    index: int  # position in the expanded spec list
    seed: int
    wall_time: float  # seconds; 0.0 for cache hits
    ticks: int  # run.duration
    events: int  # total appended history events
    delivered: int  # messages delivered by the channel
    dropped: int  # messages dropped by the channel
    cached: bool  # served from the run cache
    points: int = 0  # duration + 1: the run's share of the kernel's point space


def metrics_for(index: int, spec: "RunSpec", run: Run, wall_time: float, cached: bool) -> RunMetrics:
    """Assemble the metrics row for one executed (or cached) run."""
    return RunMetrics(
        index=index,
        seed=spec.seed,
        wall_time=wall_time,
        ticks=run.duration,
        events=sum(len(run.timeline(p)) for p in run.processes),
        delivered=int(run.meta.get("delivered", 0)),
        dropped=int(run.meta.get("dropped", 0)),
        cached=cached,
        points=run.duration + 1,
    )


@dataclass(frozen=True)
class EnsembleReport:
    """The outcome of one ``run_ensemble`` call.

    ``runs``/``metrics`` cover the *surviving* specs only; when the
    hardened runtime degraded (deadline, worker crash, exhausted
    retries) the casualties are in ``failures`` and the bumps survived
    along the way (retried exceptions, respawned pools, quarantined
    cache entries) in ``recoveries``.  ``complete`` is True iff nothing
    was lost; ``specs`` always lists the full plan, and
    ``metrics[i].index`` points back into it.
    """

    specs: tuple["RunSpec", ...]
    runs: tuple[Run, ...]
    metrics: tuple[RunMetrics, ...]
    backend: str
    wall_time: float  # whole-batch wall time, seconds
    cache_hits: int
    context: "Context | None" = None
    failures: tuple[FailedRun, ...] = ()
    recoveries: tuple[FailedRun, ...] = ()

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def complete(self) -> bool:
        """Did every planned spec yield a run?"""
        return not self.failures

    def system(self) -> System:
        """The runs as a System (the knowledge machinery's input).

        Memoized: repeated calls return the same System, so the
        epistemic kernel is built once per report and its
        :class:`~repro.model.system.KernelStats` accumulate where
        :attr:`kernel_stats` can surface them.

        A degraded report builds the System over the surviving runs;
        the System carries ``missing_runs=len(failures)`` and its
        :class:`~repro.model.system.IncompleteSystemWarning` says how
        incomplete the sample is.
        """
        if not self.runs:
            raise ValueError(
                "ensemble degraded to zero surviving runs; see report.failures"
            )
        cached = getattr(self, "_system", None)
        if cached is None:
            cached = System(
                self.runs,
                context=self.context,
                missing_runs=len(self.failures),
            )
            # audited memoisation: fills a write-once cache slot on a
            # frozen report; the System itself is freshly constructed
            object.__setattr__(self, "_system", cached)  # repro: lint-ok[INV003]
        return cached

    @property
    def kernel_stats(self) -> "KernelStats | None":
        """Kernel counters of the memoized system, or None before
        ``system()`` has ever been called (no kernel work happened)."""
        cached = getattr(self, "_system", None)
        return cached.stats if cached is not None else None

    # -- aggregates ---------------------------------------------------------

    @property
    def executed(self) -> int:
        return len(self.runs) - self.cache_hits

    @property
    def total_ticks(self) -> int:
        return sum(m.ticks for m in self.metrics)

    @property
    def total_delivered(self) -> int:
        return sum(m.delivered for m in self.metrics)

    @property
    def total_dropped(self) -> int:
        return sum(m.dropped for m in self.metrics)

    @property
    def run_wall_time(self) -> float:
        """Summed per-run execution time (> wall_time under parallelism)."""
        return sum(m.wall_time for m in self.metrics)

    def summary(self) -> str:
        """One readable paragraph of batch statistics."""
        n = len(self.runs)
        mean_ticks = self.total_ticks / n if n else 0.0
        planned = len(self.specs)
        headline = f"ensemble of {n} runs via {self.backend} backend in {self.wall_time:.3f}s"
        if self.failures:
            headline += f" [DEGRADED: {len(self.failures)}/{planned} failed]"
        lines = [
            headline,
            f"    executed {self.executed}, cache hits {self.cache_hits}",
            f"    ticks total {self.total_ticks} (mean {mean_ticks:.1f}); "
            f"messages delivered {self.total_delivered}, dropped {self.total_dropped}",
        ]
        for failed in self.failures:
            lines.append(f"    FAILED {failed.describe()}")
        for recovery in self.recoveries:
            lines.append(f"    recovered {recovery.describe()}")
        if self.executed:
            lines.append(
                f"    per-run wall time sum {self.run_wall_time:.3f}s "
                f"(speedup x{self.run_wall_time / self.wall_time:.2f})"
                if self.wall_time > 0
                else f"    per-run wall time sum {self.run_wall_time:.3f}s"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ExploreReport:
    """The outcome of one :func:`repro.explore.explore` call.

    The exhaustive sibling of :class:`EnsembleReport`: ``runs`` is the
    *complete* horizon-bounded run set of the spec's context (when
    ``stats.exhaustive``), ``stats`` carries the
    :class:`~repro.explore.reduction.ExploreStats` counters, and
    ``violations`` whatever the attached monitors flagged.
    """

    spec: "ExploreSpec"
    runs: tuple[Run, ...]
    stats: "ExploreStats"
    violations: tuple["Violation", ...] = ()
    wall_time: float = 0.0
    cached: bool = False
    context: "Context | None" = None

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def complete(self) -> bool:
        """Did exploration cover the whole bounded space?"""
        return self.stats.exhaustive

    def system(self) -> System:
        """The explored runs as a System.

        Memoized like :meth:`EnsembleReport.system`; the system carries
        ``complete=True`` exactly when exploration was exhaustive, which
        is what silences the kernel's
        :class:`~repro.model.system.IncompleteSystemWarning`.
        """
        if not self.runs:
            raise ValueError("exploration produced no runs")
        cached = getattr(self, "_system", None)
        if cached is None:
            cached = System(
                self.runs, context=self.context, complete=self.complete
            )
            # audited memoisation: fills a write-once cache slot on a
            # frozen report; the System itself is freshly constructed
            object.__setattr__(self, "_system", cached)  # repro: lint-ok[INV003]
        return cached

    @property
    def kernel_stats(self) -> "KernelStats | None":
        """Kernel counters of the memoized system (None before use)."""
        cached = getattr(self, "_system", None)
        return cached.stats if cached is not None else None

    def summary(self) -> str:
        """One readable paragraph: exploration and violations."""
        spec = self.spec
        source = "cache" if self.cached else "search"
        lines = [
            f"explored n={len(spec.processes)} t={spec.max_failures} "
            f"T={spec.horizon} ({'lossy' if spec.lossy else 'reliable'} "
            f"channel) via {source} in {self.wall_time:.3f}s -> "
            f"{len(self.runs)} runs "
            f"[{'complete' if self.complete else 'INCOMPLETE'}]",
            f"    {self.stats.render()}",
        ]
        if self.violations:
            lines.append(f"    violations: {len(self.violations)}")
            for violation in self.violations[:3]:
                lines.append(f"      {violation.describe()}")
            if len(self.violations) > 3:
                lines.append(
                    f"      ... and {len(self.violations) - 3} more"
                )
        return "\n".join(lines)
