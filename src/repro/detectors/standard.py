"""Standard failure detectors (Section 2.2).

Oracles here emit :class:`~repro.model.events.StandardSuspicion` reports
("the processes in S are faulty").  Each class realises one of the
paper's detector classes:

==========================  ===============================  =======================
class                       completeness                     accuracy
==========================  ===============================  =======================
:class:`PerfectOracle`      strong                           strong
:class:`StrongOracle`       strong                           weak
:class:`WeakOracle`         weak                             weak
:class:`ImpermanentStrongOracle`  impermanent strong         weak
:class:`ImpermanentWeakOracle`    impermanent weak           weak
:class:`EventuallyWeakOracle`     eventual strong            eventual weak (CT's <>S;
                                                             <>W is equivalent by the
                                                             standard conversion)
:class:`NoisyStrongOracle`  strong                           *violated* at rate eps
                                                             (ablation A13)
:class:`LyingOracle`        none                             none (negative control)
==========================  ===============================  =======================

Reports are emitted *on change*: an oracle stays silent while its
suspicion set is unchanged, which matches the paper's most-recent-report
semantics of ``Suspects_p(r, m)`` and lets runs reach quiescence.

Weak accuracy requires a correct process that is *never* suspected; the
oracles realise it by designating an immune process -- the planned-
correct process with the smallest identifier.  (If every process is
planned to crash, weak accuracy is vacuous and no process is immune.)
"""

from __future__ import annotations

import copy
import random

from repro.detectors.base import GroundTruthView, IntervalOracle
from repro.model.events import ProcessId, StandardSuspicion, Suspicion


#: The suspicion set before a process's first report.
_NO_SUSPECTS: frozenset[ProcessId] = frozenset()


def _immune_process(truth: GroundTruthView) -> ProcessId | None:
    """The designated never-suspected correct process (weak accuracy)."""
    correct = truth.planned_correct()
    return min(correct) if correct else None


class ChangeOracle(IntervalOracle):
    """Base class: emit the desired standard set whenever it changes."""

    def __init__(self, *, interval: int = 3, start_tick: int = 1) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        self._last_emitted: dict[ProcessId, frozenset[ProcessId]] = {}

    def desired(
        self,
        pid: ProcessId,
        tick: int,
        truth: GroundTruthView,
        rng: random.Random,
    ) -> frozenset[ProcessId]:
        """The suspicion set this oracle wants ``pid`` to hold now."""
        raise NotImplementedError

    def poll(self, pid, tick, truth, rng) -> Suspicion | None:
        # IntervalOracle.due and .mark, inline: every step polls.
        if tick < self.start_tick:
            return None
        last = self._last_report.get(pid)
        if last is not None and tick - last < self.interval:
            return None
        want = self.desired(pid, tick, truth, rng)
        if want == self._last_emitted.get(pid, _NO_SUSPECTS):
            return None
        self._last_emitted[pid] = want
        self._last_report[pid] = tick
        return StandardSuspicion(want)

    def fresh(self):
        clone = copy.copy(self)
        clone._last_report = {}
        clone._last_emitted = {}
        clone._extra_reset()
        return clone

    def _extra_reset(self) -> None:
        """Subclasses clear per-run state here."""


class PerfectOracle(ChangeOracle):
    """Strong completeness + strong accuracy: suspects exactly the crashed."""

    name = "perfect"

    def desired(self, pid, tick, truth, rng):
        return truth.crashed_by(tick)


class StrongOracle(ChangeOracle):
    """Strong completeness + weak accuracy.

    Suspects every crashed process, plus (with probability
    ``false_positive_rate`` per poll) a persistent false suspicion of a
    random process other than the immune one.  With the default rate of
    0.15 runs routinely contain suspicions of correct processes, which is
    what distinguishes a strong detector from a perfect one.
    """

    name = "strong"

    def __init__(
        self,
        *,
        interval: int = 3,
        start_tick: int = 1,
        false_positive_rate: float = 0.15,
        max_false_positives: int = 2,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        if not 0.0 <= false_positive_rate <= 1.0:
            raise ValueError("false_positive_rate must be in [0, 1]")
        self.false_positive_rate = false_positive_rate
        self.max_false_positives = max_false_positives
        self._false: dict[ProcessId, set[ProcessId]] = {}

    def _extra_reset(self) -> None:
        self._false = {}

    def desired(self, pid, tick, truth, rng):
        crashed = truth.crashed_by(tick)
        false_set = self._false.setdefault(pid, set())
        if (
            len(false_set) < self.max_false_positives
            and rng.random() < self.false_positive_rate
        ):
            immune = _immune_process(truth)
            candidates = [
                q
                for q in truth.processes
                if q != pid and q != immune and q not in false_set
            ]
            if candidates:
                false_set.add(rng.choice(candidates))
        return crashed | frozenset(false_set)


class WeakOracle(ChangeOracle):
    """Weak completeness + weak accuracy.

    Each faulty process is suspected only by its designated *witness*, a
    deterministically chosen planned-correct process.  Other correct
    processes get no report about it, so strong completeness fails
    whenever there are at least two correct processes.
    """

    name = "weak"

    #: (truth, each process's witness) of the run being polled, computed
    #: once per run.  A class default, so that an unpolled oracle (a
    #: spec's template) pickles, and digests, as it always did.
    _witnesses: tuple[GroundTruthView, dict[ProcessId, ProcessId]] | None = None

    def _witness_of(self, truth: GroundTruthView) -> dict[ProcessId, ProcessId]:
        """Each process's witness; empty if every process is planned to
        crash."""
        if self._witnesses is None or self._witnesses[0] is not truth:
            correct = sorted(truth.planned_correct())
            # Stable assignment: hash each name onto the correct list.
            witness = {
                q: correct[sum(map(ord, q)) % len(correct)] for q in truth.processes
            } if correct else {}
            self._witnesses = (truth, witness)
        return self._witnesses[1]

    def desired(self, pid, tick, truth, rng):
        witness = self._witness_of(truth)
        return frozenset(
            q for q in truth.crashed_by(tick) if witness.get(q) == pid
        )


class ImpermanentStrongOracle(ChangeOracle):
    """Impermanent strong completeness + weak accuracy.

    Every correct process suspects each crashed process at least once,
    but each suspicion is *retracted* ``retract_after`` ticks later
    (a subsequent report without the process).  Under the most-recent-
    report semantics the process is then no longer suspected, so strong
    (permanent) completeness fails; Proposition 2.2's conversion restores
    it.
    """

    name = "impermanent-strong"

    def __init__(
        self,
        *,
        interval: int = 3,
        start_tick: int = 1,
        retract_after: int = 6,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        self.retract_after = retract_after
        self._reported_at: dict[tuple[ProcessId, ProcessId], int] = {}

    def _extra_reset(self) -> None:
        self._reported_at = {}

    def desired(self, pid, tick, truth, rng):
        current = set()
        for q in truth.crashed_by(tick):
            key = (pid, q)
            first = self._reported_at.setdefault(key, tick)
            if tick < first + self.retract_after:
                current.add(q)
        return frozenset(current)


class ImpermanentWeakOracle(ImpermanentStrongOracle):
    """Impermanent weak completeness: only the witness reports, once."""

    name = "impermanent-weak"

    #: (truth, the weak oracle naming the witnesses) of the run being
    #: polled; a class default, as :attr:`WeakOracle._witnesses`.
    _witness_oracle: tuple[GroundTruthView, WeakOracle] | None = None

    def desired(self, pid, tick, truth, rng):
        if self._witness_oracle is None or self._witness_oracle[0] is not truth:
            self._witness_oracle = (truth, WeakOracle())
        witnessed = self._witness_oracle[1].desired(pid, tick, truth, rng)
        current = set()
        for q in witnessed:
            key = (pid, q)
            first = self._reported_at.setdefault(key, tick)
            if tick < first + self.retract_after:
                current.add(q)
        return frozenset(current)


class EventuallyWeakOracle(ChangeOracle):
    """Chandra-Toueg's eventually-strong detector <>S.

    Before ``stabilization_tick`` the oracle emits arbitrary noise
    (random suspicion sets that may well include correct processes).
    From ``stabilization_tick`` on, it behaves like a perfect detector:
    suspects exactly the crashed processes, so eventual weak accuracy and
    eventual strong completeness hold.  <>W is equivalent to <>S by the
    communication conversion, so this single oracle serves as the
    consensus baseline's detector for t < n/2.
    """

    name = "eventually-weak"

    def __init__(
        self,
        *,
        interval: int = 3,
        start_tick: int = 1,
        stabilization_tick: int = 40,
        noise_rate: float = 0.3,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        self.stabilization_tick = stabilization_tick
        self.noise_rate = noise_rate

    def desired(self, pid, tick, truth, rng):
        if tick >= self.stabilization_tick:
            return truth.crashed_by(tick)
        noisy = set(truth.crashed_by(tick))
        for q in truth.processes:
            if q != pid and rng.random() < self.noise_rate:
                noisy.add(q)
        return frozenset(noisy)


class NoisyStrongOracle(ChangeOracle):
    """Strong completeness with accuracy violated at rate ``error_rate``.

    Unlike :class:`StrongOracle` there is no immune process: any correct
    process, including all of them, may be (permanently) falsely
    suspected.  Used by ablation A13 to show empirically that accuracy is
    load-bearing for the Prop 3.1 protocol's uniformity.
    """

    name = "noisy-strong"

    def __init__(
        self,
        *,
        interval: int = 3,
        start_tick: int = 1,
        error_rate: float = 0.2,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        self.error_rate = error_rate
        self._false: dict[ProcessId, set[ProcessId]] = {}

    def _extra_reset(self) -> None:
        self._false = {}

    def desired(self, pid, tick, truth, rng):
        false_set = self._false.setdefault(pid, set())
        if rng.random() < self.error_rate:
            candidates = [q for q in truth.processes if q != pid and q not in false_set]
            if candidates:
                false_set.add(rng.choice(candidates))
        return truth.crashed_by(tick) | frozenset(false_set)


class ScriptedFalseOracle(ChangeOracle):
    """Strong completeness plus a *fixed* set of false suspicions.

    Unlike :class:`StrongOracle`, the false suspicions are a constructor
    parameter and the oracle never consults the planned failure pattern,
    so its behaviour up to any point is a function of the actual crashes
    and the seed alone.  That makes executions *replayable across crash
    plans* -- the property experiment E05 uses to build genuine A1
    extensions: re-executing with an extended plan reproduces the
    original prefix exactly.

    Weak accuracy holds in a run iff some correct process is outside
    ``false_suspects``; the caller chooses the set to make it hold or
    fail as the experiment requires.
    """

    name = "scripted-false"

    def __init__(
        self,
        false_suspects: frozenset[ProcessId] = frozenset(),
        *,
        interval: int = 3,
        start_tick: int = 1,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        self.false_suspects = frozenset(false_suspects)

    def desired(self, pid, tick, truth, rng):
        return truth.crashed_by(tick) | (self.false_suspects - {pid})


class LyingOracle(ChangeOracle):
    """No guarantees at all: a negative control for the property checkers."""

    name = "lying"

    def desired(self, pid, tick, truth, rng):
        return frozenset(
            q for q in truth.processes if q != pid and rng.random() < 0.5
        )
