"""repro.runtime: the parallel ensemble runtime.

Declarative specs (:class:`RunSpec`, :class:`EnsembleSpec`), pluggable
execution backends (:class:`SerialBackend`, :class:`ProcessPoolBackend`),
a content-addressed run cache (:class:`RunCache`), and per-run metrics
rolled into an :class:`EnsembleReport` -- all behind one entry point,
:func:`run_ensemble`.

Quickstart::

    from repro import NUDCProcess, make_process_ids, single_action, uniform_protocol
    from repro.runtime import EnsembleSpec, ProcessPoolBackend, run_ensemble

    spec = EnsembleSpec.a5t(
        make_process_ids(4),
        uniform_protocol(NUDCProcess),
        t=2,
        workload=single_action("p1", tick=1),
        seeds=(0, 1, 2),
    )
    report = run_ensemble(spec, backend=ProcessPoolBackend(max_workers=4))
    system = report.system()          # same System the legacy builders returned
    print(report.summary())
"""

from repro.runtime.api import run_ensemble, run_spec
from repro.runtime.backends import (
    BatchResult,
    Deadline,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    backend_from_name,
    get_default_backend,
    set_default_backend,
)
from repro.runtime.cache import (
    CacheIntegrityError,
    RunCache,
    default_run_cache,
    set_default_run_cache,
)
from repro.runtime.report import (
    EnsembleReport,
    ExploreReport,
    FailedRun,
    RunMetrics,
)
from repro.runtime.spec import EnsembleSpec, RunSpec, spec_digest

__all__ = [
    "BatchResult",
    "CacheIntegrityError",
    "Deadline",
    "EnsembleReport",
    "EnsembleSpec",
    "ExecutionBackend",
    "ExploreReport",
    "FailedRun",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunCache",
    "RunMetrics",
    "RunSpec",
    "SerialBackend",
    "backend_from_name",
    "default_run_cache",
    "get_default_backend",
    "run_ensemble",
    "run_spec",
    "set_default_backend",
    "set_default_run_cache",
    "spec_digest",
]
