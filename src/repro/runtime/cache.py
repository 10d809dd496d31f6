"""The content-addressed run cache.

Runs are pure functions of their specs, so a run computed once for a
spec is the run for every identical spec -- across experiments, harness
invocations, and benchmark rounds.  :class:`RunCache` exploits that:

* keys are :func:`repro.runtime.spec.spec_digest` content hashes
  (sha256 over the spec's pickled fields); specs that do not pickle
  (lambda blackholes and the like) are simply never cached;
* entries live in memory, and optionally on disk -- point ``directory``
  at a path to persist runs across processes;
* invalidation is automatic by construction: any change to a spec field
  (protocol class or kwargs, crash plan, workload, detector, channel
  config, seed) changes the digest, so stale hits cannot happen.  Wipe
  the directory (or ``clear()``) after changing *executor semantics*,
  which are outside the key.

Every disk entry, a single run (``repro-run-entry-v4``) or a whole
exploration (``repro-exploration-v4``), is one sealed envelope
``{"format", "sha256", "body"}``: the body holds the run set as one
:class:`repro.columnar.RunArena` (distinct events encoded once,
occurrences as packed integers) plus, for an exploration, its search
stats, and the sha256 is taken over the sorted, compact body.  Both
kinds are read back through one path, so they get the same checks
(the cache must never poison an ensemble):

* every write goes to a ``*.tmp`` file in the same directory and is
  published with ``os.replace`` -- atomic on POSIX, so an interrupted
  process can never leave a torn entry under the real name;
* every read verifies the envelope's format and sha256, then decodes
  the arena with :func:`repro.columnar.jsonio.arena_from_jsonable`,
  which refuses columns no encoder writes; a run entry must hold
  exactly one run;
* an entry that fails any check (bit rot, tampering, a torn write, an
  older format) is quarantined -- renamed to ``*.corrupt`` and recorded
  in ``quarantined`` -- and reads as a miss, so it is regenerated.

``bytes_written`` / ``bytes_read`` track disk entry sizes.

``run_ensemble`` consults the process-wide default cache unless told
otherwise; disable with ``run_ensemble(..., cache=None)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.model.run import Run
from repro.runtime.spec import RunSpec, spec_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.reduction import ExploreStats

#: v4: rotating-coordinator consensus runs changed; their spec digests did not.
_RUN_FORMAT = "repro-run-entry-v4"
_EXPLORE_FORMAT = "repro-exploration-v4"

#: One cached exhaustive exploration: its run set and search stats.
Exploration = tuple[tuple[Run, ...], "ExploreStats"]


class CacheIntegrityError(ValueError):
    """A disk cache entry failed parsing or its checksum check."""


def _body_sha256(body: object) -> str:
    serial = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serial.encode("utf-8")).hexdigest()


def _encode_entry(
    fmt: str, runs: tuple[Run, ...], stats: "ExploreStats | None"
) -> str:
    """Seal ``runs`` (and an exploration's ``stats``) as one entry."""
    from repro.columnar.arena import encode_runs
    from repro.columnar.jsonio import arena_to_jsonable

    # Key order is part of the bytes: exploration entries already on
    # disk were written with ``stats`` first.
    body: dict[str, object] = {}
    if stats is not None:
        body["stats"] = stats.as_dict()
    if runs:
        body["arena"] = arena_to_jsonable(encode_runs(runs))
    return json.dumps({"format": fmt, "sha256": _body_sha256(body), "body": body})


def _decode_entry(fmt: str, text: str) -> tuple[tuple[Run, ...], dict[str, Any]]:
    """Check and decode an entry of format ``fmt``: its runs and stats.

    Body keys other than ``stats`` and ``arena`` (such as the ``leaves``
    coordinate list older v4 writers recorded) are ignored.
    """
    from repro.columnar.arena import decode_runs
    from repro.columnar.jsonio import arena_from_jsonable

    try:
        payload = json.loads(text)
    except Exception as exc:
        raise CacheIntegrityError(f"unparseable cache entry: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheIntegrityError("cache entry is not a JSON object")
    if payload.get("format") != fmt:
        raise CacheIntegrityError(
            f"unrecognized cache entry format {payload.get('format')!r}"
        )
    body = payload.get("body")
    if _body_sha256(body) != payload.get("sha256"):
        raise CacheIntegrityError(
            "content digest mismatch: entry bytes do not match their "
            "recorded sha256 (torn write, bit rot, or tampering)"
        )
    if not isinstance(body, dict):
        raise CacheIntegrityError("cache entry body is not a JSON object")
    stats = body.get("stats", {})
    if not isinstance(stats, dict):
        raise CacheIntegrityError("cache entry stats are not a JSON object")
    arena = body.get("arena")
    runs = () if arena is None else decode_runs(arena_from_jsonable(arena))
    if fmt == _RUN_FORMAT and len(runs) != 1:
        raise CacheIntegrityError(f"run entry holds {len(runs)} runs, not 1")
    return runs, stats


class RunCache:
    """Content-addressed run store: in-memory, optionally disk-backed.

    Holds two kinds of entries under one namespace: single runs keyed by
    :func:`spec_digest` (``run_ensemble``), and whole *exploration
    groups* -- the complete run set of an
    :class:`~repro.explore.spec.ExploreSpec` plus its
    :class:`~repro.explore.reduction.ExploreStats` -- keyed by
    ``ExploreSpec.digest()``.  Only exhaustive explorations are ever
    stored, so a group hit can never silently hide part of a run set.

    ``quarantined`` lists ``(name, reason)`` for every disk entry that
    failed its integrity check and was moved aside to ``*.corrupt``;
    the name is the digest, prefixed ``explore-`` for an exploration.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, Run] = {}
        self._explorations: dict[str, Exploration] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.skips = 0  # unpicklable specs: cache not applicable
        self.bytes_written = 0  # disk entry sizes, published bytes
        self.bytes_read = 0  # disk entry sizes, successfully decoded
        self.quarantined: list[tuple[str, str]] = []

    def __len__(self) -> int:
        return len(self._memory)

    def _quarantine(self, path: Path, name: str, reason: str) -> None:
        try:
            path.replace(path.with_name(path.stem + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - defensive
                pass
        self.quarantined.append((name, reason))

    def _read(
        self, name: str, fmt: str
    ) -> tuple[tuple[Run, ...], dict[str, Any]] | None:
        """The decoded disk entry ``name``, or None.

        An entry that fails any check is quarantined and also reads as
        None -- the caller regenerates it and the next write rewrites a
        healthy entry.
        """
        assert self.directory is not None
        path = self.directory / f"{name}.json"
        if not path.exists():
            return None
        text = path.read_text(encoding="utf-8")
        try:
            entry = _decode_entry(fmt, text)
        except Exception as exc:
            self._quarantine(path, name, f"{type(exc).__name__}: {exc}")
            return None
        self.bytes_read += len(text)
        return entry

    def _write(
        self,
        name: str,
        fmt: str,
        runs: tuple[Run, ...],
        stats: "ExploreStats | None",
    ) -> None:
        """Publish the disk entry ``name`` write-then-rename: readers
        see the old entry or the new, never a torn one."""
        assert self.directory is not None
        path = self.directory / f"{name}.json"
        tmp = path.with_name(path.name + ".tmp")
        text = _encode_entry(fmt, runs, stats)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        self.bytes_written += len(text)

    def get(self, spec: RunSpec) -> Run | None:
        """The cached run for this spec, or None.

        A disk entry that fails its integrity check is quarantined and
        reported as a miss -- the caller regenerates the run and the
        next ``put`` rewrites a healthy entry.
        """
        digest = spec_digest(spec)
        if digest is None:
            self.skips += 1
            return None
        run = self._memory.get(digest)
        if run is None and self.directory is not None:
            entry = self._read(digest, _RUN_FORMAT)
            if entry is not None:
                (run,) = entry[0]
                # The JSON codec keeps scalars and crash plans; anything
                # else the executor recorded is recoverable from the spec.
                run.meta.setdefault("crash_plan", spec.crash_plan)
                self._memory[digest] = run
        if run is None:
            self.misses += 1
            return None
        self.hits += 1
        return run

    def put(self, spec: RunSpec, run: Run) -> None:
        """Store the run computed for this spec (no-op if unpicklable)."""
        digest = spec_digest(spec)
        if digest is None:
            return
        self._memory[digest] = run
        if self.directory is not None:
            self._write(digest, _RUN_FORMAT, (run,), None)

    # -- exploration groups -------------------------------------------------

    def get_exploration(self, digest: str) -> Exploration | None:
        """The cached (runs, stats) for an ExploreSpec digest, or None.

        The stats come back as a fresh copy, so a caller's monitor
        counters never leak into the cached baseline.  Corrupt entries
        quarantine and read as a miss, like :meth:`get`.
        """
        entry = self._explorations.get(digest)
        if entry is None and self.directory is not None:
            read = self._read(f"explore-{digest}", _EXPLORE_FORMAT)
            if read is not None:
                from repro.explore.reduction import ExploreStats

                runs, raw_stats = read
                known = {f.name for f in dataclasses.fields(ExploreStats)}
                entry = (
                    runs,
                    ExploreStats(**{k: v for k, v in raw_stats.items() if k in known}),
                )
                self._explorations[digest] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        runs, stats = entry
        return runs, dataclasses.replace(stats)

    def put_exploration(
        self, digest: str, runs: tuple[Run, ...], stats: "ExploreStats"
    ) -> None:
        """Store one exhaustive exploration's complete run set."""
        entry = (tuple(runs), dataclasses.replace(stats))
        self._explorations[digest] = entry
        if self.directory is not None:
            self._write(f"explore-{digest}", _EXPLORE_FORMAT, *entry)

    def exploration_digests(self) -> tuple[str, ...]:
        """Digests of every exploration entry visible to this cache.

        The union of in-memory entries and on-disk ``explore-*.json``
        files, sorted; presence does not imply integrity -- a listed
        entry can still quarantine on read.  This is the discovery
        surface of the query service (:mod:`repro.serve`).
        """
        digests = set(self._explorations)
        if self.directory is not None:
            for path in sorted(self.directory.glob("explore-*.json")):
                name = path.stem
                digests.add(name[len("explore-"):])
        return tuple(sorted(digests))

    def quarantine_reason(self, digest: str) -> str | None:
        """Why the entry for ``digest`` was quarantined, or None.

        Lets callers that just observed a miss distinguish "never
        computed" from "present but corrupt" -- the query service
        degrades gracefully by reporting the recorded reason instead of
        a bare not-found.
        """
        wanted = {digest, f"explore-{digest}"}
        for recorded, reason in reversed(self.quarantined):
            if recorded in wanted:
                return reason
        return None

    def stats(self) -> dict[str, int]:
        """Counter snapshot, including disk entry sizes in bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skips": self.skips,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "quarantined": len(self.quarantined),
        }

    def clear(self) -> None:
        """Forget every in-memory entry (disk files are left alone)."""
        self._memory.clear()
        self._explorations.clear()
        self.hits = self.misses = self.skips = 0
        self.bytes_written = self.bytes_read = 0
        self.quarantined.clear()


_default_cache: RunCache | None = None


def default_run_cache() -> RunCache:
    """The process-wide in-memory cache ``run_ensemble`` uses by default."""
    # driver-side singleton: workers never consult the default cache
    global _default_cache  # repro: lint-ok[POOL002]
    if _default_cache is None:
        _default_cache = RunCache()
    return _default_cache


def set_default_run_cache(cache: RunCache | None) -> None:
    """Replace the process-wide default cache (None resets to a fresh one)."""
    # driver-side singleton: workers never consult the default cache
    global _default_cache  # repro: lint-ok[POOL002]
    _default_cache = cache
