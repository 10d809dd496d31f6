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

Disk integrity (the cache must never poison an ensemble):

* every write goes to a ``*.tmp`` file in the same directory and is
  published with ``os.replace`` -- atomic on POSIX, so an interrupted
  process can never leave a torn entry under the real name;
* every entry embeds a sha256 over its canonical JSON body, verified on
  read; a mismatch (bit rot, tampering, a torn legacy write) quarantines
  the file (renamed to ``*.corrupt``, recorded in ``quarantined``) and
  reads as a miss, so the run is silently regenerated;
* the pre-integrity v1 formats (a raw run dict / the v1 exploration
  payload) are still readable -- without a checksum there is nothing to
  verify, but parse failures quarantine the same way.

Exploration groups are written in the v4 *arena* format: the whole run
set rides as one :class:`repro.columnar.RunArena` (distinct events
encoded once, occurrences as packed integers), which is roughly an
order of magnitude smaller than the per-run timeline dicts of v2/v3.
All earlier formats stay readable; ``bytes_written`` / ``bytes_read``
track disk entry sizes.

``run_ensemble`` consults the process-wide default cache unless told
otherwise; disable with ``run_ensemble(..., cache=None)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.model.run import Run
from repro.runtime.spec import RunSpec, spec_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.reduction import ExploreStats
    from repro.sim.failures import CrashPlan

_RUN_FORMAT = "repro-run-entry-v2"
_EXPLORE_FORMAT_V4 = "repro-exploration-v4"
_EXPLORE_FORMAT_V3 = "repro-exploration-v3"
_EXPLORE_FORMAT = "repro-exploration-v2"
_EXPLORE_FORMAT_V1 = "repro-exploration-v1"

#: One recorded search leaf: (crash plan, choice trace, is-fixpoint,
#: index of its run in the entry's run list).  Leaves are what let the
#: explorer seed a horizon-(T+1) frontier from a horizon-T entry.
LeafRecord = tuple["CrashPlan", tuple[int, ...], bool, int]


class CacheIntegrityError(ValueError):
    """A disk cache entry failed parsing or its checksum check."""


@dataclasses.dataclass(frozen=True)
class ExplorationEntry:
    """One cached exhaustive exploration.

    ``leaves`` is the search's complete leaf coordinate set (present for
    v3 entries; ``None`` for entries written before leaves were
    recorded, which simply cannot seed incremental extension).
    """

    runs: tuple[Run, ...]
    stats: "ExploreStats"
    leaves: tuple[LeafRecord, ...] | None = None


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-then-rename: readers see the old entry or the new, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _body_sha256(body: object) -> str:
    serial = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serial.encode("utf-8")).hexdigest()


def _encode_run_entry(run: Run) -> str:
    from repro.model.serialize import run_to_dict

    body = run_to_dict(run)
    return json.dumps(
        {"format": _RUN_FORMAT, "sha256": _body_sha256(body), "run": body}
    )


def _decode_run_entry(text: str) -> Run:
    from repro.model.serialize import run_from_dict

    try:
        payload = json.loads(text)
    except Exception as exc:
        raise CacheIntegrityError(f"unparseable cache entry: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheIntegrityError("cache entry is not a JSON object")
    if payload.get("format") == _RUN_FORMAT:
        body = payload.get("run")
        stored = payload.get("sha256")
        if _body_sha256(body) != stored:
            raise CacheIntegrityError(
                "content digest mismatch: entry bytes do not match their "
                "recorded sha256 (torn write, bit rot, or tampering)"
            )
        return run_from_dict(body)
    if "version" in payload:  # legacy v1: a raw run dict, no checksum
        return run_from_dict(payload)
    raise CacheIntegrityError(
        f"unrecognized cache entry format {payload.get('format')!r}"
    )


class RunCache:
    """Content-addressed run store: in-memory, optionally disk-backed.

    Holds two kinds of entries under one namespace: single runs keyed by
    :func:`spec_digest` (``run_ensemble``), and whole *exploration
    groups* -- the complete run set of an
    :class:`~repro.explore.spec.ExploreSpec` plus its
    :class:`~repro.explore.reduction.ExploreStats` -- keyed by
    ``ExploreSpec.digest()``.  Only exhaustive explorations are ever
    stored, so a group hit can never silently hide part of a run set.

    ``quarantined`` lists ``(digest, reason)`` for every disk entry that
    failed its integrity check and was moved aside to ``*.corrupt``.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, Run] = {}
        self._explorations: dict[str, ExplorationEntry] = {}
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

    def _path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{digest}.json"

    def _quarantine(self, path: Path, digest: str, reason: str) -> None:
        try:
            path.replace(path.with_name(path.stem + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - defensive
                pass
        self.quarantined.append((digest, reason))

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
            path = self._path(digest)
            if path.exists():
                text = path.read_text(encoding="utf-8")
                try:
                    run = _decode_run_entry(text)
                except Exception as exc:
                    self._quarantine(path, digest, f"{type(exc).__name__}: {exc}")
                    run = None
                else:
                    self.bytes_read += len(text)
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
            text = _encode_run_entry(run)
            _atomic_write_text(self._path(digest), text)
            self.bytes_written += len(text)

    # -- exploration groups -------------------------------------------------

    def _explore_path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"explore-{digest}.json"

    def get_exploration(
        self, digest: str
    ) -> tuple[tuple[Run, ...], "ExploreStats"] | None:
        """The cached (runs, stats) for an ExploreSpec digest, or None.

        The stats come back as a fresh copy, so a caller's monitor
        counters never leak into the cached baseline.  Corrupt entries
        quarantine and read as a miss, like :meth:`get`.
        """
        entry = self.get_exploration_entry(digest)
        if entry is None:
            return None
        return entry.runs, entry.stats

    def get_exploration_entry(self, digest: str) -> ExplorationEntry | None:
        """Like :meth:`get_exploration`, with the leaf coordinates too."""
        entry = self._explorations.get(digest)
        if entry is None and self.directory is not None:
            path = self._explore_path(digest)
            if path.exists():
                text = path.read_text(encoding="utf-8")
                try:
                    entry = _load_exploration(text)
                except Exception as exc:
                    self._quarantine(
                        path, f"explore-{digest}", f"{type(exc).__name__}: {exc}"
                    )
                    entry = None
                else:
                    self.bytes_read += len(text)
                    self._explorations[digest] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return dataclasses.replace(
            entry, stats=dataclasses.replace(entry.stats)
        )

    def put_exploration(
        self,
        digest: str,
        runs: tuple[Run, ...],
        stats: "ExploreStats",
        leaves: tuple[LeafRecord, ...] | None = None,
    ) -> None:
        """Store one exhaustive exploration's complete run set."""
        entry = ExplorationEntry(
            tuple(runs), dataclasses.replace(stats), leaves
        )
        self._explorations[digest] = entry
        if self.directory is not None:
            self.bytes_written += _save_exploration(
                entry, self._explore_path(digest)
            )

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


def _save_exploration(entry: ExplorationEntry, path: Path) -> int:
    """Write a v4 (arena-bytes) exploration entry; returns bytes written.

    The run set is stored as one :class:`repro.columnar.RunArena` --
    each distinct event encoded once, occurrences as packed integers --
    instead of a per-run timeline dict list, which shrinks entries by
    roughly an order of magnitude on explorer output.
    """
    from repro.columnar.arena import encode_runs
    from repro.columnar.jsonio import arena_to_jsonable

    body: dict[str, object] = {"stats": entry.stats.as_dict()}
    if entry.runs:
        body["arena"] = arena_to_jsonable(encode_runs(entry.runs))
    if entry.leaves is not None:
        body["leaves"] = [
            [
                [[pid, tick] for pid, tick in plan.crashes],
                list(trace),
                fixpoint,
                run_index,
            ]
            for plan, trace, fixpoint, run_index in entry.leaves
        ]
    payload = {
        "format": _EXPLORE_FORMAT_V4,
        "sha256": _body_sha256(body),
        "body": body,
    }
    text = json.dumps(payload)
    _atomic_write_text(path, text)
    return len(text)


def _load_exploration(text: str) -> ExplorationEntry:
    """Parse any exploration entry format (v4 arena, v3/v2 run dicts, v1)."""
    from repro.explore.reduction import ExploreStats
    from repro.model.serialize import run_from_dict
    from repro.sim.failures import CrashPlan

    try:
        payload = json.loads(text)
    except Exception as exc:
        raise CacheIntegrityError(f"unparseable exploration entry: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheIntegrityError("exploration entry is not a JSON object")
    fmt = payload.get("format")
    if fmt in (_EXPLORE_FORMAT, _EXPLORE_FORMAT_V3, _EXPLORE_FORMAT_V4):
        body = payload.get("body")
        if _body_sha256(body) != payload.get("sha256"):
            raise CacheIntegrityError(
                "content digest mismatch on exploration entry"
            )
        if not isinstance(body, dict):
            raise CacheIntegrityError("exploration body is not a JSON object")
    elif fmt == _EXPLORE_FORMAT_V1:  # legacy: body at top level, no checksum
        body = payload
    else:
        raise CacheIntegrityError(f"unrecognized exploration format {fmt!r}")
    known = {f.name for f in dataclasses.fields(ExploreStats)}
    stats = ExploreStats(
        **{k: v for k, v in body.get("stats", {}).items() if k in known}
    )
    if fmt == _EXPLORE_FORMAT_V4:
        from repro.columnar.arena import decode_runs
        from repro.columnar.jsonio import arena_from_jsonable

        raw_arena = body.get("arena")
        if raw_arena is None:
            runs: tuple[Run, ...] = ()
        elif isinstance(raw_arena, dict):
            runs = decode_runs(arena_from_jsonable(raw_arena))
        else:
            raise CacheIntegrityError("v4 exploration arena is not an object")
    else:
        runs = tuple(run_from_dict(entry) for entry in body.get("runs", ()))
    leaves: tuple[LeafRecord, ...] | None = None
    if fmt in (_EXPLORE_FORMAT_V3, _EXPLORE_FORMAT_V4):
        raw_leaves = body.get("leaves")
        if raw_leaves is None and fmt == _EXPLORE_FORMAT_V4:
            pass  # v4 entries may legitimately record no leaves
        elif not isinstance(raw_leaves, list):
            raise CacheIntegrityError("v3 exploration entry without leaves")
        else:
            decoded: list[LeafRecord] = []
            for crashes, trace, fixpoint, run_index in raw_leaves:
                if not 0 <= int(run_index) < len(runs):
                    raise CacheIntegrityError(
                        "exploration leaf points outside its run list"
                    )
                decoded.append(
                    (
                        CrashPlan.of({pid: int(tick) for pid, tick in crashes}),
                        tuple(int(i) for i in trace),
                        bool(fixpoint),
                        int(run_index),
                    )
                )
            leaves = tuple(decoded)
    return ExplorationEntry(runs, stats, leaves)


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
