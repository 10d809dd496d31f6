"""The host's current speed, measured in the timed process itself.

Shared hosts change speed under a running benchmark.  On the 2-vCPU VM
this benchmark was built on, the same fixed work ran up to 2x slower in
some phases than in others, each phase lasting from seconds to minutes,
and the workloads slowed with it.  So the timed process also times one
chunk of fixed work (about 3 ms) at least every SPEED_EVERY_S between
its operations, and every timing is divided by the speed factor of the
chunks around it:

    factor = median(neighbouring chunk seconds) / REFERENCE_CHUNK_S

A metric then reads in seconds at the reference speed.  On that VM, in
a noisy hour, this cut the spread (quartile distance over median) of
the end-to-end times over ten seeds from 7-37% to 3-16%.  The unscaled
values are printed beside them and kept in the result files.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator

CHUNK_ITERATIONS = 20_000
#: Scanned by the second half of a chunk (it fits in L2 on that VM).
SCAN = bytes(4 << 20)
#: One chunk on the reference host (2-vCPU Xeon VM, Python 3.11) at its
#: faster speed; only the ratio to it matters.
REFERENCE_CHUNK_S = 0.0013
#: Least time between two chunks.
SPEED_EVERY_S = 0.1


def chunk_seconds() -> float:
    """CPU time of one fixed chunk of work in this thread.

    The geometric mean of two timings: an interpreter loop and a C loop
    over SCAN.  In the slow phases of that VM the two slowed by different
    amounts, and the program's operations followed their mean more
    closely than either: normalized by the loop alone, a small
    exploration's time still spread by 5-9% (quartile distance over
    median) across 10-second windows; by the mean, by 3%.

    CPU time, so that waiting for the interpreter lock (the serve load
    generator's ingest thread) or for the core does not count.
    """
    start = time.thread_time()
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i * i
    middle = time.thread_time()
    SCAN.count(b"\x01")
    return math.sqrt((middle - start) * (time.thread_time() - middle))


def factor(chunks: list[float]) -> float:
    """How much slower than the reference the chunks ran (1.0 = reference)."""
    return statistics.median(chunks) / REFERENCE_CHUNK_S


class Meter:
    """Times operations and, every SPEED_EVERY_S during them, the host's speed.

    A SIGALRM timer interrupts the timed code to time one chunk, so a
    long operation is scaled by the speed during it.  Chunk time is taken
    out of every operation it interrupts and counted in ``chunk_s``.
    """

    def __init__(self, span: Callable[[], ContextManager[None]] = nullcontext) -> None:
        self.latencies: list[float] = []
        self._ops: list[tuple[float, float]] = []
        self.chunks: list[tuple[float, float]] = []  # (when, seconds)
        self.chunk_s = 0.0
        self._span = span

    def tick(self, *_: object) -> None:
        start = time.perf_counter()
        with self._span():
            seconds = chunk_seconds()
        self.chunks.append((start, seconds))
        self.chunk_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def op(self) -> Iterator[None]:
        chunk_s, start = self.chunk_s, time.perf_counter()
        yield
        end = time.perf_counter()
        self.latencies.append(end - start - (self.chunk_s - chunk_s))
        self._ops.append((start, end))

    def factor(self) -> float:
        return factor([seconds for _, seconds in self.chunks])

    def factor_of(self, op: int) -> float:
        """The factor of the chunks timed during operation ``op`` and
        within SPEED_EVERY_S of it (at least the nearest chunk)."""
        start, end = self._ops[op]
        near = [s for t, s in self.chunks if start - SPEED_EVERY_S <= t <= end + SPEED_EVERY_S]
        if not near:
            near = [min(self.chunks, key=lambda c: abs(c[0] - start))[1]]
        return factor(near)

    def scaled(self) -> list[float]:
        """Every latency divided by its factor."""
        return [v / self.factor_of(op) for op, v in enumerate(self.latencies)]
