"""The failure-detector class hierarchy as data (Section 2.2 + Section 4).

Encodes the paper's detector classes, their defining property pairs,
and the implication/conversion structure between them, so that code can
*classify* an observed run ("what is the strongest detector class these
reports satisfy?") and reason about reachability ("can class X be
converted to class Y?", Props 2.1/2.2 plus trivial weakenings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.detectors.properties import (
    PropertyVerdict,
    atd_accuracy,
    impermanent_strong_completeness,
    impermanent_weak_completeness,
    strong_accuracy,
    strong_completeness,
    weak_accuracy,
    weak_completeness,
)
from repro.model.run import Run


@dataclass(frozen=True)
class DetectorClass:
    """One class: a named (completeness, accuracy) pair."""

    name: str
    completeness: Callable[..., PropertyVerdict]
    accuracy: Callable[..., PropertyVerdict]
    note: str = ""

    def satisfied_by(self, run: Run, *, derived: bool = False) -> bool:
        """Do both defining properties hold in the run?"""
        return bool(self.completeness(run, derived=derived)) and bool(
            self.accuracy(run, derived=derived)
        )


PERFECT = DetectorClass("perfect", strong_completeness, strong_accuracy)
STRONG = DetectorClass("strong", strong_completeness, weak_accuracy)
WEAK = DetectorClass("weak", weak_completeness, weak_accuracy)
IMPERMANENT_STRONG = DetectorClass(
    "impermanent-strong", impermanent_strong_completeness, weak_accuracy
)
IMPERMANENT_WEAK = DetectorClass(
    "impermanent-weak", impermanent_weak_completeness, weak_accuracy
)
ATD = DetectorClass(
    "atd",
    strong_completeness,
    atd_accuracy,
    note="ATD99's weakest class for UDC: rotating accuracy",
)

#: Strongest first; classification returns the first satisfied.
CLASS_ORDER: tuple[DetectorClass, ...] = (
    PERFECT,
    STRONG,
    WEAK,
    IMPERMANENT_STRONG,
    IMPERMANENT_WEAK,
    ATD,
)

BY_NAME = {cls.name: cls for cls in CLASS_ORDER}

#: Conversion edges: X -> Y means a system with X detectors can be
#: converted to one with Y detectors.  Solid edges are trivial
#: weakenings (a stronger pair implies a weaker one); the two labelled
#: edges are the paper's Props 2.1 and 2.2.
CONVERSIONS: tuple[tuple[str, str, str], ...] = (
    ("perfect", "strong", "weaken accuracy"),
    ("strong", "weak", "weaken completeness"),
    ("strong", "impermanent-strong", "weaken permanence"),
    ("weak", "impermanent-weak", "weaken permanence"),
    ("impermanent-strong", "impermanent-weak", "weaken completeness"),
    ("strong", "atd", "weaken accuracy to rotating"),
    ("impermanent-weak", "impermanent-strong", "Prop 2.1 (gossip suspicions)"),
    ("weak", "strong", "Prop 2.1 (gossip suspicions)"),
    ("impermanent-strong", "strong", "Prop 2.2 (remember reports)"),
    ("impermanent-weak", "weak", "Prop 2.2 (remember reports)"),
)


def conversion_graph() -> dict[str, dict[str, str]]:
    """The detector classes with the known conversion edges: each class
    maps every class it converts to in one step to how."""
    graph: dict[str, dict[str, str]] = {cls.name: {} for cls in CLASS_ORDER}
    for src, dst, how in CONVERSIONS:
        graph[src][dst] = how
    return graph


def convertible(source: str, target: str) -> bool:
    """Can a system with ``source``-class detectors be converted (via
    any composition of the known conversions) to ``target``-class ones?"""
    graph = conversion_graph()
    if source not in graph or target not in graph:
        raise KeyError(f"unknown detector class {source!r} or {target!r}")
    reached = [source]  # breadth-first
    for cls in reached:
        reached += [nxt for nxt in graph[cls] if nxt not in reached]
    return target in reached


def satisfied_classes(run: Run, *, derived: bool = False) -> list[str]:
    """All classes whose defining pair holds in the run, strongest first."""
    return [
        cls.name
        for cls in CLASS_ORDER
        if cls.satisfied_by(run, derived=derived)
    ]


def strongest_class(run: Run, *, derived: bool = False) -> str | None:
    """The strongest satisfied class, or None if even the weakest fails."""
    names = satisfied_classes(run, derived=derived)
    return names[0] if names else None


def classify_system(system, *, derived: bool = False) -> str | None:
    """The strongest class satisfied by EVERY run of the system."""
    for cls in CLASS_ORDER:
        if all(cls.satisfied_by(run, derived=derived) for run in system):
            return cls.name
    return None
