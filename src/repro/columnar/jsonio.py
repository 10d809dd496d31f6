"""JSON codec for run arenas (the disk-cache representation).

A v4 exploration cache entry stores its run set as one arena instead of
a list of per-run timeline dicts: the int64 buffers travel as
zlib-compressed base64 of their little-endian bytes, the event alphabet
is encoded *once* through the model's tagged event codec, and metas go
through the same JSON meta contract as :func:`repro.model.serialize
.run_to_dict` (scalars, crash plans and traces survive; other values
drop).  Timelines repeat events heavily, so encoding each distinct
event once -- and every occurrence as a packed integer -- shrinks
entries by an order of magnitude at equal fidelity.

The codec is numpy-agnostic: buffers serialize to the same bytes from
either backing representation, and load into whichever backend the
reading process has.
"""

from __future__ import annotations

import base64
import zlib
from typing import Any

from repro.columnar.arena import BUFFER_FIELDS, RunArena
from repro.columnar.backend import (
    buffer_from_bytes,
    buffer_to_bytes,
    numpy_or_none,
)
from repro.model.serialize import (
    _decode_meta,
    _encode_meta,
    decode_event,
    encode_event,
)

#: Schema tag embedded in every arena payload.
ARENA_FORMAT = "repro-arena-v1"


def arena_to_jsonable(arena: RunArena) -> dict[str, Any]:
    """Encode an arena as a JSON-safe dict (exact inverse: :func:`arena_from_jsonable`)."""
    return {
        "format": ARENA_FORMAT,
        "processes": list(arena.processes),
        "n_runs": arena.n_runs,
        "events": [encode_event(e) for e in arena.events],
        "metas": [_encode_meta(m) for m in arena.metas],
        "buffers": {
            name: base64.b64encode(
                zlib.compress(buffer_to_bytes(getattr(arena, name)))
            ).decode("ascii")
            for name in BUFFER_FIELDS
        },
    }


def arena_from_jsonable(data: dict[str, Any]) -> RunArena:
    """Decode :func:`arena_to_jsonable` output back into a RunArena."""
    if data.get("format") != ARENA_FORMAT:
        raise ValueError(f"unsupported arena format {data.get('format')!r}")
    np = numpy_or_none()
    buffers = {
        name: buffer_from_bytes(
            zlib.decompress(base64.b64decode(data["buffers"][name])), np
        )
        for name in BUFFER_FIELDS
    }
    return RunArena(
        processes=tuple(data["processes"]),
        events=tuple(decode_event(e) for e in data["events"]),
        n_runs=int(data["n_runs"]),
        metas=tuple(_decode_meta(m) for m in data["metas"]),
        **buffers,
    )
