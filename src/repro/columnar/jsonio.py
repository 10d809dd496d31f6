"""JSON codec for run arenas (the disk-cache representation).

A v4 exploration cache entry stores its run set as one arena instead of
a list of per-run timeline dicts: the int columns travel as
zlib-compressed base64 of their little-endian int64 bytes, the event
alphabet is encoded *once* through the model's tagged event codec, and
metas go through the same JSON meta contract as
:func:`repro.model.serialize.run_to_dict` (scalars, crash plans and
traces survive; other values drop).  Timelines repeat events heavily,
so encoding each distinct event once -- and every occurrence as a
packed integer -- shrinks entries by an order of magnitude at equal
fidelity.

Payloads come from outside the program (cache files, serve clients), so
the decoder checks the column shapes and event ids an encoder always
writes, that each timeline's times start at 1 and rise (R1, R2) and that
it holds only its own process's events, and raises ``ValueError`` on
anything else.
"""

from __future__ import annotations

import base64
import sys
import zlib
from array import array
from bisect import bisect_right
from itertools import chain, compress, cycle, repeat
from operator import ge, le, sub
from typing import Any

from repro.columnar.arena import COLUMN_FIELDS, RunArena
from repro.model.serialize import (
    _decode_meta,
    _encode_meta,
    decode_event,
    encode_event,
)

#: Schema tag embedded in every arena payload.
ARENA_FORMAT = "repro-arena-v1"


def _column_to_bytes(column: tuple[int, ...]) -> bytes:
    """A column as little-endian int64 bytes."""
    buf = array("q", column)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buf.byteswap()
    return buf.tobytes()


def _column_from_bytes(data: bytes) -> tuple[int, ...]:
    """Little-endian int64 bytes back into a column."""
    buf = array("q")
    buf.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buf.byteswap()
    return tuple(buf)


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
                zlib.compress(_column_to_bytes(getattr(arena, name)))
            ).decode("ascii")
            for name in COLUMN_FIELDS
        },
    }


def arena_from_jsonable(data: dict[str, Any]) -> RunArena:
    """Decode :func:`arena_to_jsonable` output back into a RunArena.

    Raises ``ValueError`` when the columns do not have the shape
    :func:`arena_to_jsonable` gives them, so a decoded arena never
    drops timeline entries or indexes past its alphabet.
    """
    if data.get("format") != ARENA_FORMAT:
        raise ValueError(f"unsupported arena format {data.get('format')!r}")
    columns = {
        name: _column_from_bytes(zlib.decompress(base64.b64decode(data["buffers"][name])))
        for name in COLUMN_FIELDS
    }
    arena = RunArena(
        processes=tuple(data["processes"]),
        events=tuple(decode_event(e) for e in data["events"]),
        n_runs=int(data["n_runs"]),
        metas=tuple(_decode_meta(m) for m in data["metas"]),
        **columns,
    )
    _check_columns(arena)
    return arena


def _check_columns(arena: RunArena) -> None:
    """Raise ``ValueError`` unless the columns are a well-formed CSR
    layout of ``arena.n_runs`` runs over the arena's alphabet whose
    timelines meet R1, R2 and ownership.  Times are not bounded by the
    run's duration: times past it round-trip."""
    offsets, eids = arena.tl_offsets, arena.tl_events
    if len(arena.run_durations) != arena.n_runs:
        raise ValueError(
            f"arena has {len(arena.run_durations)} run durations for {arena.n_runs} runs"
        )
    rows = arena.n_runs * len(arena.processes)
    if len(offsets) != rows + 1:
        raise ValueError(f"arena has {len(offsets)} timeline offsets for {rows} timelines")
    if len(arena.tl_times) != len(eids):
        raise ValueError(
            f"arena has {len(arena.tl_times)} timeline times for {len(eids)} events"
        )
    if offsets[0] != 0 or offsets[-1] != len(eids) or not all(map(le, offsets, offsets[1:])):
        raise ValueError(
            f"arena timeline offsets must rise from 0 to {len(eids)} without decreasing"
        )
    if eids and not 0 <= min(eids) <= max(eids) < len(arena.events):
        raise ValueError(f"arena event ids must lie in range({len(arena.events)})")
    # R1 and R2: times start at 1, and a time that does not rise above
    # the one before it must open a timeline row.
    times = arena.tl_times
    falls = compress(range(1, len(times)), map(ge, times, times[1:]))
    if times and (min(times) < 1 or not set(offsets).issuperset(falls)):
        raise ValueError("arena timeline times must start at 1 and rise within each timeline")
    # Ownership: row i*n + j holds only events of processes[j].  Each
    # alphabet entry's owner is looked up once, not once per occurrence.
    processes = arena.processes
    position = {p: j for j, p in enumerate(processes)}
    owners = [position.get(event.process, -1) for event in arena.events]
    lengths = map(sub, offsets[1:], offsets)
    expected = list(chain.from_iterable(map(repeat, cycle(range(len(processes))), lengths)))
    found = list(map(owners.__getitem__, eids))
    if found != expected:
        first = next(k for k, (a, b) in enumerate(zip(found, expected)) if a != b)
        row = bisect_right(offsets, first) - 1
        raise ValueError(
            f"arena timeline of {processes[row % len(processes)]} in run "
            f"{row // len(processes)} holds another process's event"
        )
