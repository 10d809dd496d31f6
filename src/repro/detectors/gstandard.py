"""g-standard failure detectors (Section 2.2).

A detector is *g-standard* when a function g maps each of its reports to
a subset of Proc, read as "the processes in g(x) are faulty".  The
paper's example: a detector that reports "the processes in Proc - S are
correct" is g-standard with g(report) = S.

:class:`GStandardOracle` wraps any standard oracle and re-encodes its
reports through an encoding/decoding pair; :func:`g_suspects_at` is the
g-standard generalisation of ``Suspects_p(r, m)``.  The paper notes all
its results carry over to g-standard detectors unchanged; the tests
exercise the accuracy/completeness checkers through this wrapper to
demonstrate that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.detectors.base import DetectorOracle, GroundTruthView
from repro.model.events import ProcessId, StandardSuspicion, Suspicion
from repro.model.history import History


@dataclass(frozen=True, slots=True)
class CorrectReport:
    """The paper's example report: "the processes in ``correct`` are correct"."""

    correct: frozenset[ProcessId]
    universe: frozenset[ProcessId]

    def __post_init__(self) -> None:
        if not isinstance(self.correct, frozenset):
            object.__setattr__(self, "correct", frozenset(self.correct))
        if not isinstance(self.universe, frozenset):
            object.__setattr__(self, "universe", frozenset(self.universe))


def g_complement(report: CorrectReport) -> frozenset[ProcessId]:
    """g("the processes in Proc - S are correct") = S."""
    return report.universe - report.correct


class GStandardOracle(DetectorOracle):
    """Wrap a standard oracle: emit the g-image of a non-standard encoding.

    ``encode`` turns the inner oracle's suspicion set into the raw
    report; ``g`` maps it back.  The composition is the identity, which
    is exactly what makes the wrapped detector g-standard: its
    histories record reports whose g-image reproduces the inner
    suspicions, so every accuracy/completeness property transfers.
    """

    def __init__(
        self,
        inner: DetectorOracle,
        *,
        encode: Callable[[frozenset[ProcessId], tuple[ProcessId, ...]], object],
        g: Callable[[object], frozenset[ProcessId]],
    ) -> None:
        self.inner = inner
        self.encode = encode
        self.g = g
        self.name = f"g-standard({inner.name})"

    def fresh(self) -> "GStandardOracle":
        return GStandardOracle(self.inner.fresh(), encode=self.encode, g=self.g)

    def poll(
        self,
        pid: ProcessId,
        tick: int,
        truth: GroundTruthView,
        rng: random.Random,
    ) -> Suspicion | None:
        report = self.inner.poll(pid, tick, truth, rng)
        if report is None or not isinstance(report, StandardSuspicion):
            return report
        raw = self.encode(report.suspects, truth.processes)
        mapped = self.g(raw)
        if mapped != report.suspects:
            raise ValueError(
                "g o encode must be the identity on suspicion sets; got "
                f"{sorted(mapped)} for {sorted(report.suspects)}"
            )
        return StandardSuspicion(mapped)


def complement_gstandard(inner: DetectorOracle) -> GStandardOracle:
    """The paper's example: report correct sets, read back via complement."""
    return GStandardOracle(
        inner,
        encode=lambda suspects, procs: CorrectReport(
            frozenset(procs) - suspects, frozenset(procs)
        ),
        g=g_complement,
    )


def g_suspects_at(
    history: History, g: Callable[[object], frozenset[ProcessId]]
) -> frozenset[ProcessId]:
    """Suspects_p(r, m) for a g-standard detector: g of the latest report."""
    event = history.latest_suspicion()
    if event is None:
        return frozenset()
    report = event.report
    if isinstance(report, StandardSuspicion):
        return report.suspects
    return g(report)
