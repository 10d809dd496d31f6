"""Columnar (struct-of-arrays) encoding of systems and its kernel.

The per-object model (:mod:`repro.model`) keeps every run as a dict of
timelines and every local history as a linked list of events.  That is
the right representation for *constructing* runs, but the epistemic hot
paths -- index build, the Knows sweep, the E^k/C_G fixpoint -- and the
run cache only ever need the *shape* of a run set: which event happened
when, for whom.  This package flattens a batch of runs into four int
columns held as tuples (a :class:`RunArena`) plus two small interning
tables (the event alphabet and per-run meta dicts), and builds the
epistemic kernel on top of it:

* :mod:`repro.columnar.arena` -- lossless ``encode_runs`` /
  ``decode_runs`` round trips between ``tuple[Run, ...]`` and the arena;
* :mod:`repro.columnar.kernel` -- :class:`ColumnarKernel`, the bulk-array
  evaluation of crash masks, ~_p classes (CSR layout), Knows and the
  C_G/E^k fixpoints; every :class:`~repro.model.system.System` answers
  its knowledge queries through one, built lazily;
* :mod:`repro.columnar.jsonio` -- stable JSON form of an arena (columns
  as little-endian int64 bytes) for v4 RunCache exploration entries,
  serve payloads and journal segments.

numpy is optional: only the kernel looks for it, and without it every
kernel stage runs as Python loops with identical results (the no-numpy
CI leg pins this).  Arena columns are immutable -- lint rule INV004
flags rebinding them from any other package.
"""

from repro.columnar.arena import RunArena, decode_runs, encode_runs, extend_arena
from repro.columnar.kernel import ColumnarKernel, build_kernel

__all__ = [
    "RunArena",
    "encode_runs",
    "decode_runs",
    "extend_arena",
    "ColumnarKernel",
    "build_kernel",
]
