"""Formal model of asynchronous distributed systems (Section 2.1 of the paper).

This package implements the paper's run-based model verbatim:

* :mod:`repro.model.events` -- the event alphabet: ``send``, ``recv``,
  ``do``, ``init``, ``crash``, and failure-detector ``suspect`` events.
* :mod:`repro.model.history` -- per-process histories and cuts.
* :mod:`repro.model.run` -- runs (functions from time to cuts), points,
  and validators for conditions R1--R5.
* :mod:`repro.model.system` -- systems (sets of runs), their point
  numbering, and the knowledge primitives served by the columnar
  indistinguishability kernel (:mod:`repro.columnar.kernel`).
* :mod:`repro.model.context` -- contexts: failure bounds, channel
  semantics, and failure-detector specifications.
"""

from repro.model.context import ChannelSemantics, Context
from repro.model.events import (
    CrashEvent,
    DoEvent,
    Event,
    GeneralizedSuspicion,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
    StandardSuspicion,
    SuspectEvent,
)
from repro.model.history import Cut, History
from repro.model.run import Point, Run, RunValidationError, validate_run
from repro.model.system import KernelStats, System

__all__ = [
    "ChannelSemantics",
    "Context",
    "CrashEvent",
    "Cut",
    "DoEvent",
    "Event",
    "GeneralizedSuspicion",
    "History",
    "KernelStats",
    "InitEvent",
    "Message",
    "Point",
    "ReceiveEvent",
    "Run",
    "RunValidationError",
    "SendEvent",
    "StandardSuspicion",
    "SuspectEvent",
    "System",
    "validate_run",
]
