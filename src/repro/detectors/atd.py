"""The Aguilera-Toueg-Deianov weakest detector for UDC (Section 5).

ATD99 characterise the weakest failure detector for uniform reliable
broadcast (isomorphic to UDC) as one satisfying strong completeness plus
an accuracy notion *weaker* than weak accuracy: if there is a correct
process, then **at all times** some correct process is not suspected --
but it may be a different correct process at different times.

:class:`AtdRotatingOracle` realises exactly that gap: it rotates the
"immune" correct process over time, so that (with at least three correct
processes and enough windows) *every* correct process is suspected at
some time -- weak accuracy fails -- while a two-window overlap guarantees
that at every instant at least one correct process is unsuspected by
everyone -- ATD accuracy holds.  Crashed processes are always reported
(strong completeness).

The overlap argument: in window w the oracle leaves {i_w, i_{w+1}}
unsuspected.  At any moment during the w -> w+1 transition some
observers still hold window-w reports and others hold window-(w+1)
reports; both leave i_{w+1} unsuspected, so the ATD condition survives
the transition.
"""

from __future__ import annotations

from repro.detectors.base import GroundTruthView
from repro.detectors.standard import ChangeOracle
from repro.model.events import ProcessId


class AtdRotatingOracle(ChangeOracle):
    """Strong completeness + ATD accuracy, but NOT weak accuracy."""

    name = "atd-rotating"

    #: (truth, the planned-correct processes in order) of the run being
    #: polled, computed once per run.  A class default, so that an
    #: unpolled oracle (a spec's template) pickles, and digests, as it
    #: always did.
    _correct: tuple[GroundTruthView, list[ProcessId]] | None = None

    def __init__(
        self,
        *,
        interval: int = 3,
        start_tick: int = 1,
        rotation_period: int = 15,
        stop_after_windows: int = 10,
    ) -> None:
        super().__init__(interval=interval, start_tick=start_tick)
        if rotation_period < 1:
            raise ValueError("rotation_period must be >= 1")
        self.rotation_period = rotation_period
        # The rotation freezes after this many windows so that runs
        # quiesce; by then every correct process has been suspected at
        # least once (given enough windows), which is all the weak-
        # accuracy violation needs.  ATD accuracy is unaffected: the
        # final window's immune pair stays unsuspected forever.
        self.stop_after_windows = stop_after_windows

    def _immune_pair(
        self, tick: int, correct: list[ProcessId]
    ) -> set[ProcessId]:
        if not correct:
            return set()
        window = min(tick // self.rotation_period, self.stop_after_windows)
        i_now = correct[window % len(correct)]
        i_next = correct[(window + 1) % len(correct)]
        return {i_now, i_next}

    def desired(self, pid, tick, truth, rng):
        if self._correct is None or self._correct[0] is not truth:
            self._correct = (truth, sorted(truth.planned_correct()))
        correct = self._correct[1]
        immune = self._immune_pair(tick, correct)
        false_suspects = {
            q for q in correct if q not in immune and q != pid
        }
        return truth.crashed_by(tick) | false_suspects
