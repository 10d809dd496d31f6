"""Per-session write-ahead journals: serve state that survives a SIGKILL.

Sessions built over the wire (``create``/``load``/``ingest``) exist
only in server memory; this module makes them durable.  Every mutating
operation is appended to a per-session journal *before* it is applied
and acknowledged, so a crashed server replays its journals at boot and
rebuilds each session through the exact code path that built it live
(:meth:`repro.model.system.System.extend` /
:meth:`~repro.columnar.kernel.ColumnarKernel.refined`) -- the
differential suite pins the recovered answers bit-identical to the
uninterrupted session's, on both the numpy and stdlib kernel paths.

Journal layout, borrowing the RunCache's integrity idiom:

* one directory per session (named by a sha256 prefix of the session
  name, which itself travels inside every record);
* one *segment file* per operation, ``seg-00000000.json`` onward, each
  written atomically (tmp + ``os.replace``; the segment and its
  directory are fsynced before the rename is considered durable);
* every segment embeds a sha256 over its canonical record body,
  verified on replay.

Arena payloads ride in the segments verbatim in the v4 cache codec
(:mod:`repro.columnar.jsonio` format -- each column as compressed
little-endian int64 bytes, the event alphabet encoded once), so a
journaled ingest costs what a cache write costs, not a
re-serialization design.

Failure policy: replay applies the longest verifiable prefix.  The
first segment that is missing, torn, checksum-corrupt, or out of
sequence ends the prefix; it and everything after it are renamed to
``*.quarantined`` (preserved for forensics, never re-read) and the
session surfaces ``recovered: "partial"`` in its response envelopes.
A session whose *base* record (the leading ``create``/``load``) is
unrecoverable is skipped entirely and reported, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Schema tag embedded in every segment envelope.
JOURNAL_FORMAT = "repro-serve-journal-v1"

#: Operations a journal records (the mutating subset of the wire ops).
JOURNAL_OPS = ("create", "load", "ingest")

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".json"
_QUARANTINE_SUFFIX = ".quarantined"


def _body_sha256(body: Any) -> str:
    serial = json.dumps(body, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(serial.encode("utf-8")).hexdigest()


def session_dirname(name: str) -> str:
    """Directory name for a session: filesystem-safe, collision-free.

    Session names are arbitrary client strings; the directory name is a
    sha256 prefix and the real name travels inside every record.
    """
    return "s-" + hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]


def _segment_path(directory: Path, seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class JournalReplay:
    """What replaying one session journal yielded."""

    #: verified records, in append order (the replayable prefix)
    records: list[dict[str, Any]] = field(default_factory=list)
    #: "full" (every segment verified), "partial" (tail quarantined),
    #: or "empty" (no segments at all)
    status: str = "empty"
    #: why the prefix ended early, for partial replays
    reason: str | None = None
    #: segment filenames renamed to ``*.quarantined``
    quarantined: list[str] = field(default_factory=list)


class SessionJournal:
    """Append-only, checksummed journal of one session's mutations."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        if not self.directory.is_dir():
            return 0
        top = -1
        for seq in self._segment_seqs():
            top = max(top, seq)
        return top + 1

    def _segment_seqs(self) -> Iterator[int]:
        for entry in self.directory.iterdir():
            name = entry.name
            if not (
                name.startswith(_SEGMENT_PREFIX)
                and name.endswith(_SEGMENT_SUFFIX)
            ):
                continue
            stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            if stem.isdigit():
                yield int(stem)

    # -- writing -------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one operation record; returns its sequence number.

        The write is atomic (tmp + rename in the same directory) and
        durable before this method returns -- the write-ahead contract:
        an operation is only acknowledged to the client after its record
        would survive a crash.
        """
        if record.get("op") not in JOURNAL_OPS:
            raise ValueError(f"unjournalable op {record.get('op')!r}")
        with self._lock:
            seq = self._next_seq
            body = {"seq": seq, **record}
            envelope = {
                "format": JOURNAL_FORMAT,
                "sha256": _body_sha256(body),
                "record": body,
            }
            self.directory.mkdir(parents=True, exist_ok=True)
            path = _segment_path(self.directory, seq)
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(envelope, fh, separators=(",", ":"), sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.directory)
            self._next_seq = seq + 1
            return seq

    # -- replaying -----------------------------------------------------------

    def _verify_segment(self, path: Path, want_seq: int) -> dict[str, Any]:
        """One segment's record, or raises ValueError naming the defect."""
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path.name}: unreadable ({exc})") from exc
        if not isinstance(envelope, dict) or envelope.get("format") != JOURNAL_FORMAT:
            raise ValueError(f"{path.name}: not a {JOURNAL_FORMAT} segment")
        body = envelope.get("record")
        if _body_sha256(body) != envelope.get("sha256"):
            raise ValueError(
                f"{path.name}: body does not match its recorded sha256 "
                f"(torn write, bit rot, or tampering)"
            )
        if not isinstance(body, dict) or body.get("seq") != want_seq:
            raise ValueError(
                f"{path.name}: sequence mismatch (want {want_seq}, "
                f"got {body.get('seq') if isinstance(body, dict) else body!r})"
            )
        return body

    def replay(self) -> JournalReplay:
        """Verify and return the longest good prefix; quarantine the rest.

        Stray ``*.tmp`` files (writes that never committed their rename)
        are deleted -- by construction no acknowledged operation ever
        lives in one.
        """
        replay = JournalReplay()
        if not self.directory.is_dir():
            return replay
        for stray in self.directory.glob("*.tmp"):
            stray.unlink(missing_ok=True)
        seqs = sorted(self._segment_seqs())
        if not seqs:
            return replay
        bad_from: int | None = None
        for index, seq in enumerate(seqs):
            path = _segment_path(self.directory, seq)
            if seq != index:
                replay.reason = (
                    f"{path.name}: sequence gap (expected seg {index:08d})"
                )
                bad_from = index
                break
            try:
                replay.records.append(self._verify_segment(path, seq))
            except ValueError as exc:
                replay.reason = str(exc)
                bad_from = index
                break
        if bad_from is None:
            replay.status = "full"
        else:
            replay.status = "partial" if replay.records else "empty"
            for seq in seqs[bad_from:]:
                path = _segment_path(self.directory, seq)
                if path.exists():
                    quarantined = path.with_name(path.name + _QUARANTINE_SUFFIX)
                    os.replace(path, quarantined)
                    replay.quarantined.append(quarantined.name)
        self._next_seq = len(replay.records)
        return replay


class ServeJournal:
    """The journal root: one directory of per-session journals."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sessions: dict[str, SessionJournal] = {}

    def session(self, name: str) -> SessionJournal:
        """The (possibly fresh) journal for one session name."""
        dirname = session_dirname(name)
        journal = self._sessions.get(dirname)
        if journal is None:
            journal = SessionJournal(self.root / dirname)
            self._sessions[dirname] = journal
        return journal

    def discover(self) -> Iterator[SessionJournal]:
        """Every on-disk session journal, in stable (dirname) order."""
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name.startswith("s-"):
                journal = self._sessions.get(entry.name)
                if journal is None:
                    journal = SessionJournal(entry)
                    self._sessions[entry.name] = journal
                yield journal

    def sync(self) -> None:
        """Force-sync every journal to disk (the graceful-drain flush).

        Every append is already durable; this settles every segment and
        directory once more before a clean shutdown.
        """
        for entry in sorted(self.root.iterdir()):
            if not (entry.is_dir() and entry.name.startswith("s-")):
                continue
            for segment in sorted(entry.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")):
                fd = os.open(segment, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            _fsync_dir(entry)
        _fsync_dir(self.root)

    def describe(self) -> dict[str, Any]:
        """The ``info`` op's journal section."""
        return {
            "root": str(self.root),
            "sessions": len([p for p in self.root.iterdir() if p.is_dir()]),
        }
