"""JSON serialization for runs and systems.

Ensembles are expensive to regenerate and useful to archive (they are
the 'datasets' of this reproduction); this module provides a stable
round-trip:

    save_system(system, path) / load_system(path)
    run_to_dict(run) / run_from_dict(data)

Event payloads are arbitrary hashable values (tuples, frozensets,
scalars); they are encoded with a small tagged codec so the round-trip
is exact (tuples stay tuples, frozensets stay frozensets -- plain JSON
would flatten both to lists and break history hashing).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

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
    Suspicion,
)
from repro.model.run import Run
from repro.model.system import System

FORMAT_VERSION = 1


# -- value codec ----------------------------------------------------------------


def encode_value(value: object) -> Any:
    """Encode a payload value into JSON-safe tagged form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t": "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        encoded = [encode_value(v) for v in sorted(value, key=repr)]
        return {"__t": "frozenset", "v": encoded}
    raise TypeError(f"cannot serialize payload of type {type(value).__name__}")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(data, dict):
        tag = data.get("__t")
        if tag == "tuple":
            return tuple(decode_value(v) for v in data["v"])
        if tag == "frozenset":
            return frozenset(decode_value(v) for v in data["v"])
        raise ValueError(f"unknown value tag {tag!r}")
    return data


# -- event codec -------------------------------------------------------------------


def encode_event(event: Event) -> dict[str, Any]:
    """Encode one history event as a JSON-safe dict."""
    if isinstance(event, SendEvent):
        return {
            "e": "send",
            "p": event.sender,
            "to": event.receiver,
            "kind": event.message.kind,
            "payload": encode_value(event.message.payload),
        }
    if isinstance(event, ReceiveEvent):
        return {
            "e": "recv",
            "p": event.receiver,
            "from": event.sender,
            "kind": event.message.kind,
            "payload": encode_value(event.message.payload),
        }
    if isinstance(event, InitEvent):
        return {"e": "init", "p": event.process, "action": encode_value(event.action)}
    if isinstance(event, DoEvent):
        return {"e": "do", "p": event.process, "action": encode_value(event.action)}
    if isinstance(event, CrashEvent):
        return {"e": "crash", "p": event.process}
    if isinstance(event, SuspectEvent):
        report = event.report
        if isinstance(report, StandardSuspicion):
            body = {"r": "std", "suspects": sorted(report.suspects)}
        elif isinstance(report, GeneralizedSuspicion):
            body = {
                "r": "gen",
                "suspects": sorted(report.suspects),
                "k": report.count,
            }
        else:  # pragma: no cover - future report types
            raise TypeError(f"cannot serialize report {report!r}")
        return {
            "e": "suspect",
            "p": event.process,
            "derived": event.derived,
            **body,
        }
    raise TypeError(f"cannot serialize event {event!r}")  # pragma: no cover


def decode_event(data: dict[str, Any]) -> Event:
    """Inverse of :func:`encode_event`."""
    kind = data["e"]
    if kind == "send":
        return SendEvent(
            data["p"], data["to"], Message(data["kind"], decode_value(data["payload"]))
        )
    if kind == "recv":
        return ReceiveEvent(
            data["p"],
            data["from"],
            Message(data["kind"], decode_value(data["payload"])),
        )
    if kind == "init":
        return InitEvent(data["p"], decode_value(data["action"]))
    if kind == "do":
        return DoEvent(data["p"], decode_value(data["action"]))
    if kind == "crash":
        return CrashEvent(data["p"])
    if kind == "suspect":
        report: Suspicion
        if data["r"] == "std":
            report = StandardSuspicion(frozenset(data["suspects"]))
        else:
            report = GeneralizedSuspicion(frozenset(data["suspects"]), data["k"])
        return SuspectEvent(data["p"], report, derived=data["derived"])
    raise ValueError(f"unknown event kind {kind!r}")


# -- run / system -------------------------------------------------------------------


def _encode_meta(meta: dict[str, Any]) -> dict[str, Any]:
    """Encode JSON-safe meta entries plus tagged crash plans.

    Crash plans are the one structured meta value the analyses read back
    (``run.meta["crash_plan"]``), and the runtime's disk cache
    (:class:`repro.runtime.RunCache`) needs them to survive the
    round-trip; other non-scalar entries are dropped.
    """
    from repro.sim.failures import CrashPlan  # local: model must not need sim

    out: dict[str, Any] = {}
    for key, value in meta.items():
        if isinstance(value, (type(None), bool, int, float, str)):
            out[key] = value
        elif isinstance(value, CrashPlan):
            out[key] = {"__t": "crash_plan", "crashes": [list(c) for c in value.crashes]}
        elif isinstance(value, tuple) and all(
            isinstance(item, int) for item in value
        ):
            # Explorer choice traces: run.meta["trace"] must survive the
            # round-trip for cached violations to stay replayable.
            out[key] = {"__t": "int_tuple", "items": list(value)}
    return out


def _decode_meta(meta: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`_encode_meta` (tolerates pre-tag archives)."""
    from repro.sim.failures import CrashPlan

    out: dict[str, Any] = {}
    for key, value in meta.items():
        if isinstance(value, dict) and value.get("__t") == "crash_plan":
            out[key] = CrashPlan(tuple((p, t) for p, t in value["crashes"]))
        elif isinstance(value, dict) and value.get("__t") == "int_tuple":
            out[key] = tuple(int(item) for item in value["items"])
        else:
            out[key] = value
    return out


def run_to_dict(run: Run) -> dict[str, Any]:
    """Encode a run (timelines, duration, JSON-safe meta)."""
    return {
        "version": FORMAT_VERSION,
        "processes": list(run.processes),
        "duration": run.duration,
        "meta": _encode_meta(run.meta),
        "timelines": {
            p: [[t, encode_event(e)] for t, e in run.timeline(p)]
            for p in run.processes
        },
    }


def run_from_dict(data: dict[str, Any]) -> Run:
    """Inverse of :func:`run_to_dict`; validates the format version."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    timelines = {
        p: [(t, decode_event(e)) for t, e in entries]
        for p, entries in data["timelines"].items()
    }
    return Run(
        tuple(data["processes"]),
        timelines,
        duration=data["duration"],
        meta=_decode_meta(data.get("meta", {})),
    )


def save_run(run: Run, path: str | Path) -> None:
    """Write a run to a JSON file."""
    Path(path).write_text(json.dumps(run_to_dict(run)))


def load_run(path: str | Path) -> Run:
    """Read a run back from :func:`save_run` output."""
    return run_from_dict(json.loads(Path(path).read_text()))


def system_to_dict(system: System) -> dict[str, Any]:
    """Encode every run of a system."""
    return {
        "version": FORMAT_VERSION,
        "runs": [run_to_dict(r) for r in system.runs],
    }


def system_from_dict(data: dict[str, Any]) -> System:
    """Inverse of :func:`system_to_dict`."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    return System([run_from_dict(r) for r in data["runs"]])


def save_system(system: System, path: str | Path) -> None:
    """Write a system to a JSON file."""
    Path(path).write_text(json.dumps(system_to_dict(system)))


def load_system(path: str | Path) -> System:
    """Read a system back from :func:`save_system` output."""
    return system_from_dict(json.loads(Path(path).read_text()))
