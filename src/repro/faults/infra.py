"""Infrastructure chaos: worker death, hung runs, and cache corruption.

The simulated world has only the paper's faults (crashes and fair-lossy
channels); this module injects faults into the machinery that executes
it -- the fault classes the hardened runtime (retry/backoff, deadlines,
cache quarantine, degraded reports) exists to survive.  Everything here
is test/CI scaffolding: nothing in the runtime imports it except the
execution hook below.

An :class:`InfraFaultPlan` is *installed* process-wide (module global)
rather than attached to specs, deliberately: these faults must be
invisible to the spec digest -- an ensemble run under chaos must hit the
same cache entries and produce the same runs as a clean one.  Pool
workers inherit the installed plan through ``fork`` (the Linux default
start method), so a plan installed before ``run_ensemble`` is live in
every worker.

Kill faults fire **once** per (state_dir, seed): the first worker to
execute the victim spec claims a marker file with ``open(path, "x")``
(atomic on POSIX) and dies with ``os._exit(1)``; after the pool is
respawned and the spec requeued, the marker makes the retry succeed.
Hang faults are **persistent** -- every attempt sleeps -- modelling a
spec that is genuinely slow, so deadline enforcement (not retry) is what
catches it.  Kills are suppressed in the parent process: a serial
backend must never take the whole interpreter down.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.spec import RunSpec

__all__ = [
    "InfraFaultPlan",
    "active_infra_faults",
    "corrupt_cache_entry",
    "install_infra_faults",
    "use_infra_faults",
]


@dataclass(frozen=True)
class InfraFaultPlan:
    """Which specs (by adversary seed) suffer which infrastructure fault.

    ``state_dir`` holds the once-only kill markers and must be shared by
    parent and workers (any writable directory; a pytest ``tmp_path``
    works).
    """

    state_dir: str
    kill_worker_seeds: tuple[int, ...] = ()
    #: (seed, seconds): every execution attempt of that seed sleeps first
    hangs: tuple[tuple[int, float], ...] = ()

    def kill_marker(self, seed: int) -> Path:
        return Path(self.state_dir) / f"killed-seed-{seed}"

    def on_execute(self, spec: "RunSpec") -> None:
        """The execution hook: called by the backends before each run."""
        for seed, seconds in self.hangs:
            if spec.seed == seed:
                time.sleep(seconds)
        if spec.seed in self.kill_worker_seeds:
            self._maybe_die(spec.seed)

    def _maybe_die(self, seed: int) -> None:
        if multiprocessing.parent_process() is None:
            return  # never kill the parent interpreter
        try:
            fd = os.open(
                self.kill_marker(seed), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return  # this seed already claimed its kill
        os.close(fd)
        os._exit(1)  # simulate a hard worker crash (no unwinding, no cleanup)


_ACTIVE: InfraFaultPlan | None = None


def install_infra_faults(plan: InfraFaultPlan | None) -> None:
    """Install (or clear, with None) the process-wide infra fault plan."""
    # parent-side singleton: pool workers inherit the installed plan
    # through fork (module docstring); no worker path calls this
    global _ACTIVE  # repro: lint-ok[POOL002]
    _ACTIVE = plan


def active_infra_faults() -> InfraFaultPlan | None:
    """The currently installed plan, if any (consulted by the backends)."""
    return _ACTIVE


@contextmanager
def use_infra_faults(plan: InfraFaultPlan) -> Iterator[InfraFaultPlan]:
    """Scope an installed plan to a ``with`` block."""
    install_infra_faults(plan)
    try:
        yield plan
    finally:
        install_infra_faults(None)


def corrupt_cache_entry(directory: str | Path, digest: str) -> Path:
    """Cut a disk cache entry to its first half (torn-write simulation).

    Returns the path written.  The hardened :class:`repro.runtime.RunCache`
    must quarantine the entry on its next read and regenerate the run.
    """
    path = Path(directory) / f"{digest}.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    return path
