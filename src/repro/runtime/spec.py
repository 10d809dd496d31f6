"""Declarative run and ensemble specifications.

A :class:`RunSpec` is everything the executor needs to produce one run,
frozen into a hashable value: runs become pure functions of their specs.
That purity is what the rest of the runtime trades on --

* backends (:mod:`repro.runtime.backends`) may execute specs anywhere,
  in any order, and the results are independent of placement;
* the cache (:mod:`repro.runtime.cache`) may return a previously
  computed run for an identical spec;
* reports (:mod:`repro.runtime.report`) can attribute every metric to
  the spec that produced it.

An :class:`EnsembleSpec` is the declarative grid form of the paper's
systems: one protocol swept over crash plans and adversary seeds
(DESIGN.md substitution 3).  ``expand()`` lowers it to the concrete
``RunSpec`` list, plan-major / seed-minor -- the same order the legacy
:func:`repro.sim.ensembles.build_ensemble` used, so migrated callers see
identical systems.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from repro.detectors.base import DetectorOracle
from repro.model.context import Context
from repro.model.events import ActionId, ProcessId
from repro.sim.executor import ExecutionConfig, InitSchedule, ProtocolFactory
from repro.sim.failures import CrashPlan, all_crash_plans

#: Workloads may depend on the crash plan (e.g. post-crash initiations).
WorkloadFor = Callable[[CrashPlan], InitSchedule]


@dataclass(frozen=True)
class RunSpec:
    """One run, declaratively: ``Executor.from_spec(spec).run()``.

    Frozen and hashable; the workload is normalized to a sorted tuple so
    two specs describing the same run compare (and digest) equal.
    """

    processes: tuple[ProcessId, ...]
    protocol: ProtocolFactory
    crash_plan: CrashPlan = field(default_factory=CrashPlan.none)
    workload: tuple[tuple[int, ProcessId, ActionId], ...] = ()
    detector: DetectorOracle | None = None
    config: ExecutionConfig | None = None
    seed: int = 0
    context: Context | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "workload", tuple(sorted(self.workload)))
        if not self.processes:
            raise ValueError("a RunSpec needs at least one process")
        unknown = self.crash_plan.faulty - set(self.processes)
        if unknown:
            raise ValueError(
                f"crash plan names unknown processes {sorted(unknown)}"
            )

    def with_(self, **changes: object) -> "RunSpec":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def digest(self) -> str | None:
        """Stable content hash, or None when the spec is not picklable."""
        return spec_digest(self)


def spec_digest(spec: RunSpec) -> str | None:
    """The content-address of a spec: sha256 over its pickled fields.

    Returns ``None`` when any component resists pickling (e.g. a lambda
    ``blackhole`` in the channel config); such specs are executable but
    not cacheable, and the cache skips them.  Digests are exact within a
    process; across processes, frozensets inside payloads may pickle in
    a different iteration order under hash randomization, which can only
    cause a cache *miss*, never a false hit.
    """
    try:
        payload = pickle.dumps(
            (
                spec.processes,
                spec.protocol,
                spec.crash_plan,
                spec.workload,
                spec.detector,
                spec.config or ExecutionConfig(),
                spec.seed,
                spec.context,
            ),
            protocol=4,
        )
    except Exception:
        return None
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class EnsembleSpec:
    """A declarative run grid: one protocol x crash plans x seeds.

    The finite stand-in for the paper's systems.  ``workload`` is either
    a concrete init schedule or a callable from crash plan to schedule
    (the theorems' "initiations continue past every crash").
    """

    processes: tuple[ProcessId, ...]
    protocol: ProtocolFactory
    crash_plans: tuple[CrashPlan, ...] = (CrashPlan.none(),)
    workload: InitSchedule | WorkloadFor = ()
    detector: DetectorOracle | None = None
    seeds: tuple[int, ...] = (0, 1)
    config: ExecutionConfig | None = None
    context: Context | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "crash_plans", tuple(self.crash_plans))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not callable(self.workload):
            object.__setattr__(self, "workload", tuple(self.workload))

    @classmethod
    def a5t(
        cls,
        processes: Sequence[ProcessId],
        protocol: ProtocolFactory,
        *,
        t: int,
        workload: InitSchedule | WorkloadFor = (),
        detector: DetectorOracle | None = None,
        seeds: Sequence[int] = (0, 1),
        crash_tick: int = 10,
        config: ExecutionConfig | None = None,
        context: Context | None = None,
    ) -> "EnsembleSpec":
        """The A5_t grid: one crash plan per subset S with ``|S| <= t``."""
        plans = tuple(
            all_crash_plans(processes, max_failures=t, crash_tick=crash_tick)
        )
        return cls(
            processes=tuple(processes),
            protocol=protocol,
            crash_plans=plans,
            workload=workload,
            detector=detector,
            seeds=tuple(seeds),
            config=config,
            context=context,
        )

    def __len__(self) -> int:
        return len(self.crash_plans) * len(self.seeds)

    def expand(self) -> tuple[RunSpec, ...]:
        """Lower to concrete RunSpecs, plan-major / seed-minor."""
        return tuple(self._iter_specs())

    def _iter_specs(self) -> Iterator[RunSpec]:
        for plan in self.crash_plans:
            schedule = (
                self.workload(plan) if callable(self.workload) else self.workload
            )
            for seed in self.seeds:
                yield RunSpec(
                    processes=self.processes,
                    protocol=self.protocol,
                    crash_plan=plan,
                    workload=tuple(schedule),
                    detector=self.detector,
                    config=self.config,
                    seed=seed,
                    context=self.context,
                )
