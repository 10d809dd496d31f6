"""Failure detectors (Sections 2.2 and 4).

* :mod:`repro.detectors.base`        -- the oracle interface, the ground-
  truth view it consults, and ``Suspects_p(r, m)``.
* :mod:`repro.detectors.standard`    -- perfect / strong / weak /
  impermanent / eventually-weak standard detectors, plus deliberately
  inaccurate ones for the negative experiments.
* :mod:`repro.detectors.generalized` -- generalized (S, k) detectors and
  t-usefulness (Section 4).
* :mod:`repro.detectors.properties`  -- checkers for all six
  accuracy/completeness properties, and for the generalized ones.
* :mod:`repro.detectors.conversions` -- Propositions 2.1 and 2.2, and the
  n-useful <-> perfect conversions of Section 4.
"""

from repro.detectors.atd import AtdRotatingOracle
from repro.detectors.base import (
    DetectorOracle,
    GroundTruthView,
    NoDetector,
    suspects_at,
    suspicion_history,
)
from repro.detectors.generalized import (
    GeneralizedOracle,
    TrivialSubsetOracle,
    is_t_useful_event,
)
from repro.detectors.standard import (
    EventuallyWeakOracle,
    ImpermanentStrongOracle,
    ImpermanentWeakOracle,
    LyingOracle,
    NoisyStrongOracle,
    PerfectOracle,
    StrongOracle,
    WeakOracle,
)

__all__ = [
    "AtdRotatingOracle",
    "DetectorOracle",
    "EventuallyWeakOracle",
    "GeneralizedOracle",
    "GroundTruthView",
    "ImpermanentStrongOracle",
    "ImpermanentWeakOracle",
    "LyingOracle",
    "NoDetector",
    "NoisyStrongOracle",
    "PerfectOracle",
    "StrongOracle",
    "TrivialSubsetOracle",
    "WeakOracle",
    "is_t_useful_event",
    "suspects_at",
    "suspicion_history",
]
