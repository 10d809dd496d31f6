"""Execution backends: where and how a batch of RunSpecs is executed.

All backends satisfy the same contract: ``run_all_safe(specs)`` returns
a :class:`BatchResult` with one outcome per spec, **in spec order** --
either a ``(run, wall_time)`` pair or a structured
:class:`~repro.runtime.report.FailedRun` -- and every run is bitwise
what ``Executor.from_spec(spec).run()`` produces: executions are
deterministic functions of their specs, so placement (this process, a
worker pool, eventually a remote fleet) is invisible in the results.

Every backend runs the same attempt loop (``_run_rounds``) and differs
only in how one round of chunks executes: :class:`SerialBackend` runs
them in process, :class:`ProcessPoolBackend` on a worker pool.  The
loop's hardening semantics:

* transient failures (executor exceptions, dead pool workers) are
  retried per :class:`RetryPolicy`, round by round, with one
  exponential backoff sleep per round;
* deadline overruns (:class:`~repro.sim.executor.RunDeadlineExceeded`)
  are **not** retried -- a spec that overran its wall-clock budget once
  is presumed slow, not unlucky;
* a spec that succeeds after earlier failed attempts contributes a
  *recovery* record (``FailedRun(recovered=True)``) so degraded-path
  behaviour stays observable;
* after the first round every requeued spec runs in a chunk of its own,
  isolating any poison spec; :class:`ProcessPoolBackend` respawns its
  pool after a worker dies (``BrokenProcessPool``).

The module-level default backend is what ``run_ensemble`` uses when no
backend is passed; it is ``serial`` unless overridden by
``set_default_backend`` or the ``REPRO_BACKEND`` environment variable
(``serial``, ``process``, or ``process:N`` for N workers).
"""

from __future__ import annotations

import os
import pickle
import random
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, cast

from repro.faults.infra import active_infra_faults
from repro.model.run import Run
from repro.runtime.report import FailedRun
from repro.runtime.spec import RunSpec
from repro.sim.executor import Executor, RunDeadlineExceeded

#: One successful backend result: the run plus its wall time in seconds.
TimedRun = tuple[Run, float]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff (and optional jitter).

    ``delay(attempt)`` is the sleep *after* failed attempt number
    ``attempt`` (1-based): base, base*factor, base*factor^2, ... capped
    at ``max_backoff``.  When ``jitter`` is nonzero and a seeded
    ``random.Random`` is supplied, up to ``jitter`` times the computed
    delay is added uniformly -- desynchronizing retry storms from many
    clients without sacrificing replayability (the caller owns the rng
    and its seed).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.max_backoff < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: "random.Random | None" = None) -> float:
        base = min(
            self.max_backoff,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if rng is not None and self.jitter > 0:
            base += base * self.jitter * rng.random()
        return base


class Deadline:
    """A cooperative wall-clock budget on the monotonic clock.

    Mirrors ``ExecutionConfig.deadline`` semantics for long-running
    *service* work: the holder polls :attr:`expired` at safe points
    (between queries of a batch, between soak rounds) and sheds the
    remainder with a structured error instead of being interrupted
    mid-computation.  ``Deadline.after(None)`` never expires, so call
    sites need no conditional wiring.
    """

    __slots__ = ("_at",)

    def __init__(self, at: float | None) -> None:
        self._at = at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        if seconds is None:
            return cls(None)
        if seconds < 0:
            raise ValueError("deadline seconds must be non-negative")
        return cls(time.monotonic() + seconds)

    @property
    def expired(self) -> bool:
        return self._at is not None and time.monotonic() >= self._at

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or None for the infinite deadline."""
        if self._at is None:
            return None
        return max(0.0, self._at - time.monotonic())


@dataclass(frozen=True)
class BatchResult:
    """What a hardened backend returns: per-spec outcomes plus recoveries."""

    #: element i corresponds to specs[i]: a TimedRun or a FailedRun
    outcomes: tuple["TimedRun | FailedRun", ...]
    #: recovered=True records for specs that failed first, then succeeded
    recoveries: tuple[FailedRun, ...] = ()


def _execute_spec(spec: RunSpec) -> TimedRun:
    start = time.perf_counter()
    infra = active_infra_faults()
    if infra is not None:
        infra.on_execute(spec)
    run = Executor.from_spec(spec).run()
    elapsed = time.perf_counter() - start
    # Post-hoc deadline check: catches time burned before/around the tick
    # loop (e.g. an injected hang) that the executor's cooperative
    # mid-run check cannot see.
    config = spec.config
    if (
        config is not None
        and config.deadline is not None
        and elapsed > config.deadline
    ):
        raise RunDeadlineExceeded(
            f"run (seed={spec.seed}) took {elapsed:.3f}s, over its "
            f"{config.deadline:.3f}s deadline"
        )
    return run, elapsed


#: Tagged per-spec outcome of one execution (must pickle: workers return it).
_WireOutcome = tuple[str, object]
#: Specs tagged with their batch index, as one worker task receives them.
_Chunk = list[tuple[int, RunSpec]]
#: A chunk's tagged outcomes, or the reason its worker died.
_ChunkResult = list[tuple[int, _WireOutcome]] | str


def _execute_chunk_safe(chunk: _Chunk) -> list[tuple[int, _WireOutcome]]:
    """Execute an indexed chunk, never raise (also the pool's worker entry point)."""
    out: list[tuple[int, _WireOutcome]] = []
    for index, spec in chunk:
        try:
            timed = _execute_spec(spec)
        except RunDeadlineExceeded as exc:
            out.append((index, ("deadline", str(exc))))
        except Exception as exc:
            out.append(
                (
                    index,
                    (
                        "error",
                        f"{type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(limit=8),
                    ),
                )
            )
        else:
            out.append((index, ("ok", timed)))
    return out


def _failed(
    index: int,
    spec: RunSpec,
    kind: str,
    attempts: int,
    error: str,
    *,
    recovered: bool = False,
) -> FailedRun:
    return FailedRun(
        index=index,
        seed=spec.seed,
        kind=kind,
        attempts=attempts,
        error=error,
        crash_plan=spec.crash_plan,
        recovered=recovered,
    )


def _run_rounds(
    specs: Sequence[RunSpec],
    policy: RetryPolicy,
    chunksize: int,
    run_round: Callable[[list[_Chunk]], list[_ChunkResult]],
) -> BatchResult:
    """The attempt loop of every backend.

    Each round hands ``run_round`` the queued specs in chunks of
    ``chunksize`` (one spec per chunk after the first round, so a
    poison spec only takes itself down on the retry) and gets back, per
    chunk, its tagged outcomes or why its worker died.  Failed specs
    are requeued until ``policy.max_attempts``, with one backoff sleep
    per round; a deadline is never retried.
    """
    done: dict[int, TimedRun | FailedRun] = {}
    attempts = [0] * len(specs)
    last_error = [""] * len(specs)
    last_kind = [""] * len(specs)
    recoveries: list[FailedRun] = []
    queue = list(range(len(specs)))
    while queue:
        chunks = [
            [(i, specs[i]) for i in queue[k : k + chunksize]]
            for k in range(0, len(queue), chunksize)
        ]
        retry: list[int] = []
        for chunk, result in zip(chunks, run_round(chunks)):
            if isinstance(result, str):
                for i, _ in chunk:
                    attempts[i] += 1
                    last_error[i] = result
                    last_kind[i] = "worker-crash"
                    retry.append(i)
                continue
            for i, (tag, payload) in result:
                attempts[i] += 1
                if tag == "ok":
                    done[i] = cast(TimedRun, payload)
                    if last_kind[i]:
                        recoveries.append(
                            _failed(
                                i,
                                specs[i],
                                last_kind[i],
                                attempts[i],
                                last_error[i],
                                recovered=True,
                            )
                        )
                elif tag == "deadline":
                    # Deadlines are deterministic slowness, not
                    # transient failure: no retry.
                    done[i] = _failed(i, specs[i], "deadline", attempts[i], str(payload))
                else:
                    last_error[i] = str(payload)
                    last_kind[i] = "exception"
                    retry.append(i)
        queue = []
        for i in sorted(retry):
            if attempts[i] >= policy.max_attempts:
                done[i] = _failed(i, specs[i], last_kind[i], attempts[i], last_error[i])
            else:
                queue.append(i)
        if queue:
            time.sleep(policy.delay(max(attempts[i] for i in queue)))
        chunksize = 1
    return BatchResult(tuple(done[i] for i in range(len(specs))), tuple(recoveries))


class ExecutionBackend(ABC):
    """Executes batches of RunSpecs; results are ordered by spec index."""

    #: short name recorded in EnsembleReport.backend
    name: str = "backend"

    @abstractmethod
    def run_all_safe(
        self, specs: Sequence[RunSpec], policy: RetryPolicy | None = None
    ) -> BatchResult:
        """Execute every spec; outcome i corresponds to specs[i].

        Never raises for per-run faults (deadline, executor exception,
        worker death): those become FailedRun outcomes.  Batch-level
        misconfiguration (unpicklable specs on a process pool) still
        raises eagerly, before any execution.
        """


class SerialBackend(ExecutionBackend):
    """In-process sequential execution (the default)."""

    name = "serial"

    def run_all_safe(
        self, specs: Sequence[RunSpec], policy: RetryPolicy | None = None
    ) -> BatchResult:
        return _run_rounds(
            specs,
            policy or RetryPolicy(),
            1,
            lambda chunks: [_execute_chunk_safe(chunk) for chunk in chunks],
        )


class ProcessPoolBackend(ExecutionBackend):
    """Parallel execution over a worker-process pool.

    Specs are dispatched in contiguous chunks (amortizing pickling and
    task overhead); workers return their outcomes pickled (``Run``
    pickles as its constructor arguments) and results are re-assembled
    by index, so the output order is deterministic regardless of which
    worker finished first.
    A dead worker breaks the whole pool (``BrokenProcessPool``); this
    backend respawns it and the attempt loop requeues the affected
    specs individually, bounded by the retry policy.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None:
            if isinstance(max_workers, bool) or not isinstance(max_workers, int):
                raise TypeError(
                    f"max_workers must be an int or None, got "
                    f"{type(max_workers).__name__} ({max_workers!r})"
                )
            if max_workers < 1:
                raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)

    def _check_picklable(self, specs: Sequence[RunSpec]) -> None:
        for i, spec in enumerate(specs):
            try:
                pickle.dumps(spec, protocol=4)
            except Exception as exc:
                raise ValueError(
                    f"spec {i} (seed={spec.seed}) is not picklable and cannot "
                    f"cross process boundaries: {exc!r}; use SerialBackend or "
                    "replace closures/lambdas in the spec with the picklable "
                    "factory classes (e.g. repro.sim.process.UniformProtocol)"
                ) from exc

    def run_all_safe(
        self, specs: Sequence[RunSpec], policy: RetryPolicy | None = None
    ) -> BatchResult:
        # Checked before the serial shortcut, so whether a batch is
        # refused never depends on its size or on cache hits.
        self._check_picklable(specs)
        if len(specs) <= 1 or self.max_workers == 1:
            return SerialBackend().run_all_safe(specs, policy)
        pool = ProcessPoolExecutor(max_workers=self.max_workers)

        def run_round(chunks: list[_Chunk]) -> list[_ChunkResult]:
            nonlocal pool
            submitted: list[Future[list[tuple[int, _WireOutcome]]] | str] = []
            for chunk in chunks:
                try:
                    submitted.append(pool.submit(_execute_chunk_safe, chunk))
                except BrokenExecutor:
                    submitted.append("process pool broken before dispatch")
            results: list[_ChunkResult] = []
            for future in submitted:
                try:
                    results.append(
                        future if isinstance(future, str) else future.result()
                    )
                except BrokenExecutor as exc:
                    results.append(
                        f"worker process died: {type(exc).__name__}: {exc}"
                    )
            if any(isinstance(result, str) for result in results):
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return results

        chunksize = max(1, -(-len(specs) // (self.max_workers * 4)))
        try:
            return _run_rounds(specs, policy or RetryPolicy(), chunksize, run_round)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


_default_backend: ExecutionBackend | None = None


def backend_from_name(name: str) -> ExecutionBackend:
    """Resolve ``serial`` / ``process`` / ``process:N`` to a backend."""
    name = name.strip().lower()
    if name in ("", "serial"):
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend()
    if name.startswith("process:"):
        try:
            max_workers = int(name.split(":", 1)[1])
        except ValueError:
            pass  # not a worker count: an unknown backend, reported below
        else:
            return ProcessPoolBackend(max_workers=max_workers)
    raise ValueError(
        f"unknown backend {name!r}; expected 'serial', 'process', or 'process:N'"
    )


def get_default_backend() -> ExecutionBackend:
    """The backend ``run_ensemble`` uses when none is given."""
    # driver-side singleton: only the dispatching process consults it
    global _default_backend  # repro: lint-ok[POOL002]
    if _default_backend is None:
        _default_backend = backend_from_name(os.environ.get("REPRO_BACKEND", "serial"))
    return _default_backend


def set_default_backend(backend: ExecutionBackend | str | None) -> None:
    """Override the process-wide default backend (None resets to env/serial)."""
    # driver-side singleton: only the dispatching process consults it
    global _default_backend  # repro: lint-ok[POOL002]
    if isinstance(backend, str):
        backend = backend_from_name(backend)
    _default_backend = backend
