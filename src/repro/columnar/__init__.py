"""Columnar (struct-of-arrays) encoding of systems and its kernel.

The per-object model (:mod:`repro.model`) keeps every run as a dict of
timelines and every local history as a linked list of events.  That is
the right representation for *constructing* runs, but the epistemic hot
paths -- index build, the Knows sweep, the E^k/C_G fixpoint -- and the
run cache only ever need the *shape* of a run set: which event happened
when, for whom.  This package flattens a batch of runs into a handful
of contiguous ``int64`` buffers (a :class:`RunArena`) plus two small
interning tables (the event alphabet and per-run meta dicts), and
builds the epistemic kernel on top of it:

* :mod:`repro.columnar.arena` -- lossless ``encode_runs`` /
  ``decode_runs`` round trips between ``tuple[Run, ...]`` and the arena;
* :mod:`repro.columnar.kernel` -- :class:`ColumnarKernel`, the bulk-array
  evaluation of crash masks, ~_p classes (CSR layout), Knows and the
  C_G/E^k fixpoints; every :class:`~repro.model.system.System` answers
  its knowledge queries through one, built lazily;
* :mod:`repro.columnar.jsonio` -- stable JSON form of an arena for the
  v4 RunCache exploration entries.

numpy is optional: :mod:`repro.columnar.backend` falls back to
``array('q')`` buffers and Python loops with identical results (the
no-numpy CI leg pins this).  Arena buffers are immutable outside this
package -- lint rule INV004 flags writes from any other module.
"""

from repro.columnar.arena import RunArena, decode_runs, encode_runs, extend_arena
from repro.columnar.backend import numpy_or_none
from repro.columnar.kernel import ColumnarKernel, build_kernel

__all__ = [
    "RunArena",
    "encode_runs",
    "decode_runs",
    "extend_arena",
    "ColumnarKernel",
    "build_kernel",
    "numpy_or_none",
]
