"""Execution backends: where and how a batch of RunSpecs is executed.

All backends satisfy the same contract: ``run_all_safe(specs)`` returns
a :class:`BatchResult` with one outcome per spec, **in spec order** --
either a ``(run, wall_time)`` pair or a structured
:class:`~repro.runtime.report.FailedRun` -- and every run is bitwise
what ``Executor.from_spec(spec).run()`` produces: executions are
deterministic functions of their specs, so placement (this process, a
worker pool, eventually a remote fleet) is invisible in the results.

Hardening semantics, shared by all backends:

* transient failures (executor exceptions, dead pool workers) are
  retried per :class:`RetryPolicy` with exponential backoff;
* deadline overruns (:class:`~repro.sim.executor.RunDeadlineExceeded`)
  are **not** retried -- a spec that overran its wall-clock budget once
  is presumed slow, not unlucky;
* a spec that succeeds after earlier failed attempts contributes a
  *recovery* record (``FailedRun(recovered=True)``) so degraded-path
  behaviour stays observable;
* :class:`ProcessPoolBackend` survives ``BrokenProcessPool``: the pool
  is respawned, the specs of the broken chunks are requeued (chunk size
  1, isolating any poison spec), bounded by the same retry policy.

``run_all(specs)`` is the strict wrapper: any surviving failure raises
``RuntimeError`` naming the lost seeds and crash plans.

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
from typing import Sequence

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

    @property
    def failures(self) -> tuple[FailedRun, ...]:
        return tuple(o for o in self.outcomes if isinstance(o, FailedRun))


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


#: Tagged per-spec outcome shipped back from workers (must pickle).
_WireOutcome = tuple[str, object]

def _execute_chunk_safe(
    chunk: list[tuple[int, RunSpec]],
) -> list[tuple[int, _WireOutcome]]:
    """Worker entry point: execute an indexed chunk, never raise."""
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


def _execute_chunk_shipped(chunk: list[tuple[int, RunSpec]]) -> object:
    """Worker entry point with arena transfer.

    Executes the chunk, then parks the successful runs in one shared
    memory arena (:func:`repro.columnar.ship_runs`) so only a small
    header -- not the pickled run graph -- crosses the result pipe.
    Falls back to the plain pickled form when the chunk's runs span
    distinct process tuples or when shared memory is unavailable; the
    driver detects the form, so the fallback is invisible to the retry
    machinery.
    """
    results = _execute_chunk_safe(chunk)
    ok_slots = [
        (pos, index) for pos, (index, (tag, _)) in enumerate(results) if tag == "ok"
    ]
    if not ok_slots:
        return results
    runs: list[Run] = []
    for pos, _ in ok_slots:
        run, _elapsed = results[pos][1][1]  # type: ignore[index]
        runs.append(run)
    procs = runs[0].processes
    if any(run.processes != procs for run in runs):
        return results
    try:
        from repro.columnar.transfer import ship_runs

        shipped = ship_runs(runs)
    except Exception:  # pragma: no cover - environmental
        return results
    stripped = list(results)
    for slot, (pos, index) in enumerate(ok_slots):
        _run, elapsed = results[pos][1][1]  # type: ignore[index]
        stripped[pos] = (index, ("ok-shipped", (slot, elapsed)))
    return ("shipped", stripped, shipped)


def _unship_chunk(raw: object) -> list[tuple[int, _WireOutcome]]:
    """Driver side: normalize a chunk result back to the plain form.

    Shipped chunks have their runs pulled out of shared memory and
    spliced back into ``("ok", (run, elapsed))`` outcomes; a transfer
    failure downgrades just those entries to retryable errors (the
    block is unlinked either way).
    """
    if not (isinstance(raw, tuple) and len(raw) == 3 and raw[0] == "shipped"):
        return raw  # type: ignore[return-value]
    _tag, results, shipped = raw
    try:
        from repro.columnar.transfer import receive_runs

        runs = receive_runs(shipped)
    except Exception as exc:
        return [
            (
                (index, ("error", f"arena transfer failed: {exc!r}"))
                if tag == "ok-shipped"
                else (index, (tag, payload))
            )
            for index, (tag, payload) in results
        ]
    out: list[tuple[int, _WireOutcome]] = []
    for index, (tag, payload) in results:
        if tag == "ok-shipped":
            slot, elapsed = payload  # type: ignore[misc]
            out.append((index, ("ok", (runs[slot], elapsed))))
        else:
            out.append((index, (tag, payload)))
    return out


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

    def run_all(self, specs: Sequence[RunSpec]) -> list[TimedRun]:
        """The strict contract: every spec's TimedRun, or RuntimeError.

        The error message names each lost spec's seed and crash plan so
        a failed batch is diagnosable without re-running it.
        """
        batch = self.run_all_safe(specs)
        results: list[TimedRun] = []
        lost: list[FailedRun] = []
        for outcome in batch.outcomes:
            if isinstance(outcome, FailedRun):
                lost.append(outcome)
            else:
                results.append(outcome)
        if lost:
            detail = "; ".join(f.describe() for f in lost)
            raise RuntimeError(
                f"backend lost results for {len(lost)} of {len(specs)} "
                f"specs: {detail}"
            )
        return results


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


class SerialBackend(ExecutionBackend):
    """In-process sequential execution (the default)."""

    name = "serial"

    def run_all_safe(
        self, specs: Sequence[RunSpec], policy: RetryPolicy | None = None
    ) -> BatchResult:
        policy = policy or RetryPolicy()
        outcomes: list[TimedRun | FailedRun] = []
        recoveries: list[FailedRun] = []
        for index, spec in enumerate(specs):
            last_error = ""
            for attempt in range(1, policy.max_attempts + 1):
                try:
                    timed = _execute_spec(spec)
                except RunDeadlineExceeded as exc:
                    outcomes.append(
                        _failed(index, spec, "deadline", attempt, str(exc))
                    )
                    break
                except Exception as exc:
                    last_error = f"{type(exc).__name__}: {exc}"
                    if attempt >= policy.max_attempts:
                        outcomes.append(
                            _failed(index, spec, "exception", attempt, last_error)
                        )
                        break
                    time.sleep(policy.delay(attempt))
                else:
                    outcomes.append(timed)
                    if attempt > 1:
                        recoveries.append(
                            _failed(
                                index,
                                spec,
                                "exception",
                                attempt,
                                last_error,
                                recovered=True,
                            )
                        )
                    break
        return BatchResult(tuple(outcomes), tuple(recoveries))


class ProcessPoolBackend(ExecutionBackend):
    """Parallel execution over a worker-process pool.

    Specs are dispatched in contiguous chunks (amortizing pickling and
    task overhead) and results are re-assembled by index, so the output
    order is deterministic regardless of which worker finished first.
    A dead worker breaks the whole pool (``BrokenProcessPool``); this
    backend respawns it and requeues the affected specs individually,
    bounded by the retry policy.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None, chunksize: int | None = None):
        if max_workers is not None:
            if isinstance(max_workers, bool) or not isinstance(max_workers, int):
                raise TypeError(
                    f"max_workers must be an int or None, got "
                    f"{type(max_workers).__name__} ({max_workers!r})"
                )
            if max_workers < 1:
                raise ValueError("max_workers must be >= 1")
        if chunksize is not None:
            if isinstance(chunksize, bool) or not isinstance(chunksize, int):
                raise TypeError(
                    f"chunksize must be an int or None, got "
                    f"{type(chunksize).__name__} ({chunksize!r})"
                )
            if chunksize < 1:
                raise ValueError("chunksize must be >= 1")
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self.chunksize = chunksize

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
        policy = policy or RetryPolicy()
        n = len(specs)
        if n == 0:
            return BatchResult(())
        if n == 1 or self.max_workers == 1:
            return SerialBackend().run_all_safe(specs, policy)
        self._check_picklable(specs)
        chunksize = self.chunksize or max(1, -(-n // (self.max_workers * 4)))

        outcomes: list[TimedRun | FailedRun | None] = [None] * n
        attempts = [0] * n
        last_error = [""] * n
        last_kind = [""] * n
        recoveries: list[FailedRun] = []
        queue = list(range(n))
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        first_round = True
        try:
            while queue:
                # After any failure, fall back to chunk size 1: a poison
                # spec then only takes itself down on the retry.
                csize = chunksize if first_round else 1
                chunks = [queue[i : i + csize] for i in range(0, len(queue), csize)]
                futures: list[tuple[Future[object], list[int]]] = []
                pool_broken = False
                for chunk in chunks:
                    try:
                        future = pool.submit(
                            _execute_chunk_shipped, [(i, specs[i]) for i in chunk]
                        )
                    except BrokenExecutor:
                        pool_broken = True
                        for i in chunk:
                            attempts[i] += 1
                            last_error[i] = "process pool broken before dispatch"
                            last_kind[i] = "worker-crash"
                        continue
                    futures.append((future, chunk))

                retry: list[int] = []
                for future, chunk in futures:
                    try:
                        results = _unship_chunk(future.result())
                    except BrokenExecutor as exc:
                        pool_broken = True
                        for i in chunk:
                            attempts[i] += 1
                            last_error[i] = (
                                f"worker process died: {type(exc).__name__}: {exc}"
                            )
                            last_kind[i] = "worker-crash"
                            retry.append(i)
                        continue
                    for index, (tag, payload) in results:
                        attempts[index] += 1
                        if tag == "ok":
                            outcomes[index] = payload  # type: ignore[assignment]
                            if last_kind[index]:
                                recoveries.append(
                                    _failed(
                                        index,
                                        specs[index],
                                        last_kind[index],
                                        attempts[index],
                                        last_error[index],
                                        recovered=True,
                                    )
                                )
                        elif tag == "deadline":
                            # Deadlines are deterministic slowness, not
                            # transient failure: no retry.
                            outcomes[index] = _failed(
                                index,
                                specs[index],
                                "deadline",
                                attempts[index],
                                str(payload),
                            )
                        else:
                            last_error[index] = str(payload)
                            last_kind[index] = "exception"
                            retry.append(index)

                # Pool-broken chunks never produced results; requeue them.
                retry.extend(
                    i
                    for i in queue
                    if outcomes[i] is None and i not in retry
                )
                if pool_broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.max_workers)

                queue = []
                for i in sorted(set(retry)):
                    if attempts[i] >= policy.max_attempts:
                        outcomes[i] = _failed(
                            i,
                            specs[i],
                            last_kind[i] or "lost",
                            attempts[i],
                            last_error[i],
                        )
                    else:
                        queue.append(i)
                if queue:
                    time.sleep(policy.delay(max(attempts[i] for i in queue)))
                first_round = False
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        for i, outcome in enumerate(outcomes):
            if outcome is None:  # pragma: no cover - defensive
                outcomes[i] = _failed(
                    i, specs[i], "lost", attempts[i], "no result returned"
                )
        return BatchResult(
            tuple(o for o in outcomes if o is not None), tuple(recoveries)
        )


_default_backend: ExecutionBackend | None = None


def backend_from_name(name: str) -> ExecutionBackend:
    """Resolve ``serial`` / ``process`` / ``process:N`` to a backend."""
    name = name.strip().lower()
    if name in ("", "serial"):
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend()
    if name.startswith("process:"):
        return ProcessPoolBackend(max_workers=int(name.split(":", 1)[1]))
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
