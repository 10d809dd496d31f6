"""Checkers for the failure-detector properties of Sections 2.2 and 4.

Each checker takes a :class:`~repro.model.run.Run` (or a
:class:`~repro.model.system.System`, which must satisfy the property in
every run) and decides the property *exactly* under the finite-horizon
convention that the final cut repeats forever:

* "eventually" (impermanent completeness) -> at some time <= duration;
* "eventually permanently" (strong/weak completeness) -> from some time
  on through the duration, and still holding at the duration.

``derived=True`` switches all checkers to the ``suspect'`` events of the
P3 / P3' run transformations (Theorems 3.6 and 4.3), which coexist in
transformed runs with the original oracle's events.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator

from repro.detectors.base import (
    ever_suspected,
    permanently_suspected_from,
    suspicion_history,
)
from repro.detectors.generalized import is_t_useful_event
from repro.model.events import GeneralizedSuspicion, ProcessId, StandardSuspicion
from repro.model.run import Run
from repro.model.system import System


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a property check, with the first counterexample found."""

    holds: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def ok(cls) -> "PropertyVerdict":
        return cls(True)

    @classmethod
    def fail(cls, witness: str) -> "PropertyVerdict":
        return cls(False, witness)


def _standard_reports(
    run: Run, pid: ProcessId, derived: bool
) -> Iterator[tuple[int, StandardSuspicion]]:
    for tick, report in suspicion_history(run, pid, derived=derived):
        if isinstance(report, StandardSuspicion):
            yield tick, report


def _generalized_reports(
    run: Run, pid: ProcessId, derived: bool
) -> Iterator[tuple[int, GeneralizedSuspicion]]:
    for tick, report in suspicion_history(run, pid, derived=derived):
        if isinstance(report, GeneralizedSuspicion):
            yield tick, report


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------


def strong_accuracy(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """No process is suspected before it crashes."""
    for p in run.processes:
        for tick, report in _standard_reports(run, p, derived):
            for q in report.suspects:
                if not run.crashed_by(q, tick):
                    return PropertyVerdict.fail(
                        f"{p} suspects {q} at time {tick} but {q} has not crashed"
                    )
    return PropertyVerdict.ok()


def weak_accuracy(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """If some process is correct, some correct process is never suspected."""
    correct = run.correct()
    if not correct:
        return PropertyVerdict.ok()  # F(r) = Proc: vacuous
    for q in sorted(correct):
        if not any(
            ever_suspected(run, p, q, derived=derived) for p in run.processes
        ):
            return PropertyVerdict.ok()
    return PropertyVerdict.fail(
        "every correct process is suspected at some point"
    )


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def strong_completeness(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """All faulty processes eventually permanently suspected by all correct."""
    for q in sorted(run.faulty()):
        for p in sorted(run.correct()):
            if permanently_suspected_from(run, p, q, derived=derived) is None:
                return PropertyVerdict.fail(
                    f"faulty {q} is not permanently suspected by correct {p}"
                )
    return PropertyVerdict.ok()


def weak_completeness(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Each faulty process eventually permanently suspected by some correct."""
    if not run.correct():
        return PropertyVerdict.ok()  # F(r) = Proc: vacuous
    for q in sorted(run.faulty()):
        if not any(
            permanently_suspected_from(run, p, q, derived=derived) is not None
            for p in run.correct()
        ):
            return PropertyVerdict.fail(
                f"faulty {q} is not permanently suspected by any correct process"
            )
    return PropertyVerdict.ok()


def impermanent_strong_completeness(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """All faulty processes eventually suspected (not necessarily permanently)
    by all correct processes."""
    for q in sorted(run.faulty()):
        for p in sorted(run.correct()):
            if not ever_suspected(run, p, q, derived=derived):
                return PropertyVerdict.fail(
                    f"faulty {q} is never suspected by correct {p}"
                )
    return PropertyVerdict.ok()


def impermanent_weak_completeness(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Each faulty process eventually suspected by some correct process."""
    if not run.correct():
        return PropertyVerdict.ok()
    for q in sorted(run.faulty()):
        if not any(ever_suspected(run, p, q, derived=derived) for p in run.correct()):
            return PropertyVerdict.fail(
                f"faulty {q} is never suspected by any correct process"
            )
    return PropertyVerdict.ok()


# ---------------------------------------------------------------------------
# Detector classes (conjunctions)
# ---------------------------------------------------------------------------


def is_perfect(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Strong completeness + strong accuracy."""
    verdict = strong_completeness(run, derived=derived)
    if not verdict:
        return verdict
    return strong_accuracy(run, derived=derived)


def is_strong(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Strong completeness + weak accuracy."""
    verdict = strong_completeness(run, derived=derived)
    if not verdict:
        return verdict
    return weak_accuracy(run, derived=derived)


def is_weak(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Weak completeness + weak accuracy."""
    verdict = weak_completeness(run, derived=derived)
    if not verdict:
        return verdict
    return weak_accuracy(run, derived=derived)


# ---------------------------------------------------------------------------
# Generalized detector properties (Section 4)
# ---------------------------------------------------------------------------


def generalized_strong_accuracy(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Every (S, k) report is backed by k actual crashes inside S at report time."""
    for p in run.processes:
        for tick, report in _generalized_reports(run, p, derived):
            actually = sum(1 for q in report.suspects if run.crashed_by(q, tick))
            if actually < report.count:
                return PropertyVerdict.fail(
                    f"{p}'s report ({sorted(report.suspects)}, {report.count}) "
                    f"at time {tick} is backed by only {actually} crashes"
                )
    return PropertyVerdict.ok()


def generalized_impermanent_strong_completeness(
    run: Run, t: int, *, derived: bool = False
) -> PropertyVerdict:
    """Every correct process eventually gets a t-useful event for this run."""
    n = len(run.processes)
    faulty = run.faulty()
    for p in sorted(run.correct()):
        useful = any(
            is_t_useful_event(report, faulty, n, t)
            for _, report in _generalized_reports(run, p, derived)
        )
        if not useful:
            return PropertyVerdict.fail(
                f"correct {p} never receives a {t}-useful event "
                f"(F(r) = {sorted(faulty)})"
            )
    return PropertyVerdict.ok()


def is_t_useful(run: Run, t: int, *, derived: bool = False) -> PropertyVerdict:
    """Generalized strong accuracy + t-useful completeness (Section 4)."""
    verdict = generalized_strong_accuracy(run, derived=derived)
    if not verdict:
        return verdict
    return generalized_impermanent_strong_completeness(run, t, derived=derived)


# ---------------------------------------------------------------------------
# ATD99 accuracy (Section 5)
# ---------------------------------------------------------------------------


def atd_accuracy(run: Run, *, derived: bool = False) -> PropertyVerdict:
    """Aguilera-Toueg-Deianov accuracy: if some process is correct then at
    every time, some correct process is not currently suspected by any
    live process (possibly a different one at different times).

    Suspicions of crashed observers are disregarded from their crash
    time on: a crashed process's detector module no longer emits and its
    last report is not a live suspicion.
    """
    correct = run.correct()
    if not correct:
        return PropertyVerdict.ok()
    # Event stream affecting the live-suspicion union: reports (set the
    # observer's current suspicions) and observer crashes (clear them).
    current: dict[ProcessId, frozenset[ProcessId]] = {
        p: frozenset() for p in run.processes
    }
    changes: list[tuple[int, ProcessId, frozenset[ProcessId] | None]] = []
    for p in run.processes:
        for tick, report in _standard_reports(run, p, derived):
            changes.append((tick, p, report.suspects))
        crash_tick = run.crash_time(p)
        if crash_tick is not None:
            changes.append((crash_tick, p, None))
    changes.sort(key=itemgetter(0))

    def some_correct_unsuspected() -> bool:
        union: set[ProcessId] = set()
        for suspects in current.values():
            union |= suspects
        return any(q not in union for q in correct)

    if not some_correct_unsuspected():
        return PropertyVerdict.fail("all correct processes suspected at time 0")
    # Judge each time once all of its changes have landed: a state
    # halfway through one tick's changes is in no cut of the run.
    for tick, at_tick in groupby(changes, key=itemgetter(0)):
        for _, p, suspects in at_tick:
            current[p] = frozenset() if suspects is None else suspects
        if not some_correct_unsuspected():
            return PropertyVerdict.fail(
                f"at time {tick} every correct process is suspected by someone"
            )
    return PropertyVerdict.ok()


# ---------------------------------------------------------------------------
# System-level checks
# ---------------------------------------------------------------------------


def system_satisfies(
    system: System,
    checker: Callable[..., PropertyVerdict],
    /,
    *args: object,
    **kwargs: object,
) -> PropertyVerdict:
    """A system satisfies a property iff every run does."""
    for i, run in enumerate(system):
        verdict = checker(run, *args, **kwargs)
        if not verdict:
            return PropertyVerdict.fail(f"run {i}: {verdict.witness}")
    return PropertyVerdict.ok()
