"""State-space reduction for the bounded explorer.

The explorer's branch structure has two sources of nondeterminism per
reachable configuration: which deliverable copy a process consumes (or
whether it defers them all), and -- on lossy channels -- whether a
submitted copy is dropped.  Under ``reduction="dpor"``,
:mod:`repro.explore.scheduler` always applies two dynamic partial-order
reductions over that structure, both run-set-preserving:

* **Delivery grouping (persistent/source sets)** -- in-flight copies of
  the same ``(sender, message)`` pair are interchangeable: consuming
  either appends the same ``ReceiveEvent`` and leaves behaviourally
  identical residual channels, so the dependency relation cannot
  distinguish them.  The explorer branches once per *distinct* pair
  rather than once per copy; collapsed siblings are counted in
  ``ExploreStats.deliveries_collapsed``.

* **Drop elision (sleep sets)** -- the drop/accept branch of a lossy
  submission never conflicts with any observable transition: a dropped
  copy produces exactly the runs that an accepted-but-never-delivered
  copy produces (defer-all is always available), so the drop branch
  enters the sleep set the moment the accept branch is taken and is
  never scheduled.  The only observable the branch carried -- whether
  the final cut is *quiescent* -- is recovered post hoc by
  :func:`drop_schedule_feasible`: a leaf with copies still in flight is
  quiescent iff an R5-respecting drop schedule exists that drops every
  one of them.  Elided branches are counted in
  ``ExploreStats.drops_elided``.

The fingerprint-pruning machinery that used to live here (a
``FingerprintSet`` of canonicalized configurations) is retired: measured
against real workloads it never pruned anything (``states_pruned`` was
0 across the committed benchmarks) while its canonicalization dominated
the hot loop.  See DESIGN.md section 12 for the full soundness argument
of the reductions that replaced it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from repro.model.events import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Envelope


@dataclass
class ExploreStats:
    """Observability counters for one exploration.

    * ``executions`` -- runs of the deterministic executor, one per
      frontier entry actually expanded (from tick 1 or from a snapshot);
    * ``states_expanded`` -- tick-configurations per leaf, summed over
      all executions: a resumed execution counts the ticks before its
      snapshot too, so the figure does not depend on snapshots;
    * ``choice_points`` / ``branches_scheduled`` -- nondeterministic
      decisions encountered, and the alternative branches pushed onto
      the frontier from them;
    * ``deliveries_collapsed`` -- delivery alternatives suppressed by
      grouping interchangeable copies (persistent-set reduction);
    * ``drops_elided`` -- drop/accept branches never scheduled because
      the drop branch sleeps (sleep-set reduction);
    * ``runs_enumerated`` / ``runs_unique`` -- leaves reached vs.
      distinct runs kept after value-level deduplication;
    * ``monitor_checks`` / ``violations`` -- property-monitor activity;
    * ``truncated`` -- the ``max_executions`` budget stopped exploration
      early (the resulting system is *not* complete);
    * ``stopped_on_violation`` -- a monitor short-circuited exploration;
    * ``reduction`` -- the mode that ran.
    """

    executions: int = 0
    states_expanded: int = 0
    choice_points: int = 0
    branches_scheduled: int = 0
    deliveries_collapsed: int = 0
    drops_elided: int = 0
    runs_enumerated: int = 0
    runs_unique: int = 0
    monitor_checks: int = 0
    violations: int = 0
    max_frontier: int = 0
    truncated: bool = False
    stopped_on_violation: bool = False
    reduction: str = "dpor"

    @property
    def exhaustive(self) -> bool:
        """True iff the whole bounded space was enumerated."""
        return not (self.truncated or self.stopped_on_violation)

    def as_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render(self) -> str:
        """One readable line of the headline counters."""
        tail = ""
        if self.truncated:
            tail = "; TRUNCATED (budget)"
        elif self.stopped_on_violation:
            tail = "; stopped on violation"
        return (
            f"explore: {self.runs_unique} runs "
            f"({self.runs_enumerated} leaves) from {self.executions} "
            f"executions over {self.states_expanded} states; "
            f"{self.choice_points} choice points, "
            f"{self.branches_scheduled} branches, "
            f"{self.deliveries_collapsed} deliveries collapsed, "
            f"{self.drops_elided} drops elided "
            f"[reduction: {self.reduction}]{tail}"
        )


def drop_schedule_feasible(delivered_flags: Sequence[bool], budget: int) -> bool:
    """Can every undelivered copy of one channel key be dropped under R5?

    ``delivered_flags`` is the submission-ordered history of one
    ``(sender, receiver, message)`` key: True where the copy was
    actually delivered in the execution, False where it is still in
    flight at the horizon.  A drop schedule that drops exactly the False
    copies respects the fair-loss budget iff no run of more than
    ``budget`` consecutive False entries exists (each delivered copy
    resets the channel's consecutive-drop streak; the budget forces
    every (budget+1)-th consecutive copy through, so a longer False run
    could never have been all-dropped).
    """
    streak = 0
    for delivered in delivered_flags:
        if delivered:
            streak = 0
        else:
            streak += 1
            if streak > budget:
                return False
    return True


def group_deliverable(
    ready: Sequence["Envelope"],
) -> list[list["Envelope"]]:
    """Group deliverable envelopes into interchangeable classes.

    Copies with equal ``(sender, message)`` are commuting alternatives:
    consuming any of them appends the same event and leaves canonically
    equal residual channels.  Groups keep the channel's oldest-first
    order (by the first member), so choice indices are deterministic.
    """
    groups: dict[tuple[ProcessId, object], list["Envelope"]] = {}
    order: list[tuple[ProcessId, object]] = []
    for env in ready:
        key = (env.sender, env.message)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [env]
            order.append(key)
        else:
            bucket.append(env)
    return [groups[key] for key in order]
