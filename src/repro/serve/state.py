"""Server-side state: systems under service and the query dispatcher.

One :class:`SystemSession` wraps a live :class:`~repro.model.system.System`
together with its model checker, group checker, and a wire-formula
intern table.  Interning matters: the model checker memoizes one point
set per ``Formula`` *instance*, so decoding the same wire payload to the
same object keeps those sets hot across requests.

The session's system/checker/group/generation live together in one
immutable :class:`SessionEpoch`.  Ingestion never mutates an epoch --
it builds the next one (via :meth:`System.extend`'s incremental class
refinement) and swaps a single reference -- so a query batch that
captured an epoch keeps answering against a consistent system even
while an ingest from another connection lands mid-batch, and every
answer is attributable to the ``generation`` its envelope reports.

Durability: when a :class:`~repro.serve.journal.ServeJournal` is
attached, every mutating operation follows the write-ahead discipline
-- *prepare* (validate and decode; all ``WireError`` rejections happen
here, so nothing invalid is ever journaled), *journal* (durable append
of the wire payload), *commit* (apply to live state).  The async server
runs the journal step on an executor thread; the synchronous
convenience methods (:meth:`ServeState.create` /
:meth:`ServeState.ingest`) inline all three.  :meth:`ServeState.recover`
replays the journals at boot through the same commit path, which is
what makes recovered answers bit-identical to the pre-crash session's.

All methods here are synchronous; the asyncio layer
(:mod:`repro.serve.server`) shunts the disk-touching ones through an
executor so the event loop never blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.columnar.arena import decode_runs
from repro.columnar.jsonio import arena_from_jsonable
from repro.knowledge.formulas import Formula, Knows
from repro.knowledge.group import GroupChecker
from repro.knowledge.semantics import ModelChecker
from repro.knowledge.wire import formula_from_jsonable, formula_wire_key
from repro.model.events import ProcessId
from repro.model.run import Point, Run
from repro.model.system import IncompleteSystemWarning, System
from repro.serve.journal import ServeJournal
from repro.serve.protocol import WireError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.cache import RunCache

#: Query kinds the ``query`` op dispatches on.
QUERY_KINDS = (
    "holds",
    "knows",
    "e",
    "max_e_depth",
    "ck",
    "ck_points",
    "known_crashed",
    "valid",
)

_MAX_E_CAP = 64  # ladder cap: depth requests beyond this are bad-request


def _decode_arena_runs(payload: Any) -> tuple[Run, ...]:
    """An inline ``arena`` payload -> runs, with wire-coded failures."""
    if not isinstance(payload, dict):
        raise WireError("bad-arena", "'arena' must be an arena JSON object")
    try:
        return decode_runs(arena_from_jsonable(payload))
    except WireError:
        raise
    except Exception as exc:
        raise WireError("bad-arena", f"undecodable arena payload: {exc}") from exc


class SessionEpoch:
    """One consistent (system, checkers, generation) snapshot of a session.

    Epochs are immutable after construction; an ingest builds the next
    epoch and the session swaps one reference, so concurrent readers
    holding an old epoch stay coherent.
    """

    __slots__ = ("system", "checker", "group", "generation")

    def __init__(self, system: System, generation: int) -> None:
        self.system = system
        self.checker = ModelChecker(system)
        self.group = GroupChecker(self.checker)
        self.generation = generation


class SystemSession:
    """One named system under service, plus its checkers and caches."""

    def __init__(
        self,
        name: str,
        system: System,
        *,
        source: str = "inline",
        recovered: str | None = None,
    ) -> None:
        self.name = name
        self.source = source
        #: None for a session built live; "full"/"partial" after a
        #: journal replay (surfaced in every response envelope).
        self.recovered = recovered
        self.queries_answered = 0
        self.runs_ingested = 0
        self._epoch = SessionEpoch(system, 0)
        self._formulas: dict[str, Formula] = {}

    # -- epoch access --------------------------------------------------------

    @property
    def epoch(self) -> SessionEpoch:
        """The current epoch; capture once per batch for a stable view."""
        return self._epoch

    @property
    def system(self) -> System:
        return self._epoch.system

    @property
    def checker(self) -> ModelChecker:
        return self._epoch.checker

    @property
    def group(self) -> GroupChecker:
        return self._epoch.group

    @property
    def generation(self) -> int:
        return self._epoch.generation

    # -- request-field decoding ---------------------------------------------

    def _formula(self, query: dict[str, Any]) -> Formula:
        data = query.get("formula")
        if data is None:
            raise WireError("bad-formula", "query is missing 'formula'")
        key = formula_wire_key(data)
        formula = self._formulas.get(key)
        if formula is None:
            try:
                formula = formula_from_jsonable(data)
            except ValueError as exc:
                raise WireError("bad-formula", str(exc)) from exc
            self._formulas[key] = formula
        return formula

    def _process(
        self, epoch: SessionEpoch, query: dict[str, Any], field: str = "process"
    ) -> ProcessId:
        process = query.get(field)
        if not isinstance(process, str):
            raise WireError("bad-request", f"query field {field!r} must be a string")
        if process not in epoch.system.processes:
            raise WireError(
                "bad-request",
                f"unknown process {process!r}; system has "
                f"{list(epoch.system.processes)}",
            )
        return process

    def _group(self, epoch: SessionEpoch, query: dict[str, Any]) -> list[ProcessId]:
        group = query.get("group")
        if not isinstance(group, list) or not group:
            raise WireError("bad-request", "query field 'group' must be a non-empty list")
        known = set(epoch.system.processes)
        members: list[ProcessId] = []
        for member in group:
            if not isinstance(member, str) or member not in known:
                raise WireError("bad-request", f"unknown group member {member!r}")
            members.append(member)
        return members

    def _point(self, epoch: SessionEpoch, query: dict[str, Any]) -> Point:
        run_index = query.get("run")
        time = query.get("time")
        runs = epoch.system.runs
        if not isinstance(run_index, int) or isinstance(run_index, bool):
            raise WireError("bad-point", "query field 'run' must be an integer")
        if not 0 <= run_index < len(runs):
            raise WireError(
                "bad-point",
                f"run index {run_index} out of range (system has {len(runs)} runs)",
            )
        if not isinstance(time, int) or isinstance(time, bool) or time < 0:
            raise WireError("bad-point", "query field 'time' must be a non-negative integer")
        # Times beyond the run's duration clamp to the final cut (the
        # finite-horizon convention); report the clamped point back.
        return Point(runs[run_index], min(time, runs[run_index].duration))

    def _depth(self, query: dict[str, Any], field: str, default: int | None) -> int:
        value = query.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise WireError("bad-request", f"query field {field!r} must be a non-negative integer")
        if value > _MAX_E_CAP:
            raise WireError("bad-request", f"query field {field!r} exceeds the cap of {_MAX_E_CAP}")
        return value

    # -- queries -------------------------------------------------------------

    def run_query(
        self, query: Any, epoch: SessionEpoch | None = None
    ) -> dict[str, Any]:
        """Answer one query dict; never raises for per-query problems."""
        try:
            return self._dispatch(query, epoch or self._epoch)
        except WireError as exc:
            return {"ok": False, "error": exc.code, "message": exc.message}

    def _dispatch(self, query: Any, epoch: SessionEpoch) -> dict[str, Any]:
        if not isinstance(query, dict):
            raise WireError("bad-request", "each query must be a JSON object")
        kind = query.get("kind")
        checker = epoch.checker
        group_checker = epoch.group
        # Sampled-system warnings surface structurally (the response
        # envelope's "complete"/"missing_runs" fields), not as Python
        # warnings inside the server process.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncompleteSystemWarning)
            if kind == "holds":
                result: dict[str, Any] = {
                    "result": checker.holds(
                        self._formula(query), self._point(epoch, query)
                    )
                }
            elif kind == "knows":
                process = self._process(epoch, query)
                formula = self._formula(query)
                key = f"knows:{process}:{formula_wire_key(query['formula'])}"
                wrapped = self._formulas.get(key)
                if wrapped is None:
                    wrapped = Knows(process, formula)
                    self._formulas[key] = wrapped
                result = {"result": checker.holds(wrapped, self._point(epoch, query))}
            elif kind == "e":
                group = self._group(epoch, query)
                depth = self._depth(query, "depth", 1)
                formula = self._formula(query)
                point = self._point(epoch, query)
                if depth == 0:
                    value = checker.holds(formula, point)
                else:
                    value = (
                        group_checker.max_e_depth(group, formula, point, cap=depth)
                        == depth
                    )
                result = {"result": value}
            elif kind == "max_e_depth":
                result = {
                    "result": group_checker.max_e_depth(
                        self._group(epoch, query),
                        self._formula(query),
                        self._point(epoch, query),
                        cap=self._depth(query, "cap", 10),
                    )
                }
            elif kind == "ck":
                result = {
                    "result": group_checker.common_knowledge(
                        self._group(epoch, query),
                        self._formula(query),
                        self._point(epoch, query),
                    )
                }
            elif kind == "ck_points":
                points = group_checker.common_knowledge_points(
                    self._group(epoch, query), self._formula(query)
                )
                result = {"result": [list(p) for p in sorted(points)]}
            elif kind == "known_crashed":
                known = epoch.system.known_crashed_set(
                    self._process(epoch, query), self._point(epoch, query)
                )
                result = {"result": sorted(known)}
            elif kind == "valid":
                witness = checker.counterexample(self._formula(query))
                counterexample: list[int] | None = None
                if witness is not None:
                    run_index = epoch.system.run_index(witness.run)
                    assert run_index is not None  # counterexamples are in-system
                    counterexample = [run_index, witness.time]
                result = {
                    "result": witness is None,
                    "counterexample": counterexample,
                }
            else:
                raise WireError(
                    "bad-request",
                    f"unknown query kind {kind!r}; expected one of {list(QUERY_KINDS)}",
                )
        self.queries_answered += 1
        result.update({"ok": True, "kind": kind})
        return result

    # -- online ingestion ----------------------------------------------------

    def prepare_ingest(self, arena_payload: Any) -> tuple[Run, ...]:
        """Validate and decode an ingest payload (the journal-safe step).

        Every rejection a replay could deterministically re-hit happens
        here, *before* the payload is journaled: nothing invalid is
        ever written ahead.
        """
        runs = _decode_arena_runs(arena_payload)
        if runs and runs[0].processes != self.system.processes:
            raise WireError(
                "bad-arena",
                "ingested runs are over a different process set than the system",
            )
        return runs

    def apply_ingest(self, runs: tuple[Run, ...]) -> dict[str, Any]:
        """Fold decoded runs into the live system (refinement path).

        Duplicate filtering (against the live run set, then within the
        batch, in order) is deterministic, so a journal replay of the
        same payloads reconstructs the identical run sequence -- the
        root of recovery bit-equality.
        """
        epoch = self._epoch
        seen = set(epoch.system.runs)
        fresh: list[Run] = []
        for run in runs:
            if run not in seen:
                seen.add(run)
                fresh.append(run)
        if fresh:
            system = epoch.system.extend(fresh)
            self._epoch = SessionEpoch(system, epoch.generation + 1)
            self.runs_ingested += len(fresh)
        return {
            "added": len(fresh),
            "duplicates": len(runs) - len(fresh),
            "runs": len(self._epoch.system.runs),
            "generation": self._epoch.generation,
        }

    def ingest(self, arena_payload: Any) -> dict[str, Any]:
        """Decode + apply in one step (journal-free convenience).

        Callers that need durability go through
        :meth:`ServeState.ingest` (or the async server's prepared
        path), which journals between the two steps.
        """
        return self.apply_ingest(self.prepare_ingest(arena_payload))

    # -- descriptors ---------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        system = self.system
        out = {
            "runs": len(system.runs),
            "points": system.point_count,
            "processes": list(system.processes),
            "complete": system.complete,
            "missing_runs": system.missing_runs,
            "generation": self.generation,
            "source": self.source,
            "queries_answered": self.queries_answered,
            "runs_ingested": self.runs_ingested,
        }
        if self.recovered is not None:
            out["recovered"] = self.recovered
        return out

    def envelope(self, epoch: SessionEpoch | None = None) -> dict[str, Any]:
        """The completeness fields every query response carries."""
        epoch = epoch or self._epoch
        out = {
            "system": self.name,
            "generation": epoch.generation,
            "complete": epoch.system.complete,
            "missing_runs": epoch.system.missing_runs,
        }
        if self.recovered is not None:
            out["recovered"] = self.recovered
        return out


@dataclass(frozen=True)
class PreparedCreate:
    """A validated ``create``: claimed name, decoded runs, journal record."""

    name: str
    runs: tuple[Run, ...]
    complete: bool
    missing_runs: int
    record: dict[str, Any]


@dataclass(frozen=True)
class PreparedIngest:
    """A validated ``ingest``: target session, decoded runs, journal record."""

    session: SystemSession
    runs: tuple[Run, ...]
    record: dict[str, Any]


@dataclass
class RecoveryReport:
    """What :meth:`ServeState.recover` rebuilt (and what it could not)."""

    #: (session name, "full" | "partial") per rebuilt session
    recovered: list[tuple[str, str]] = field(default_factory=list)
    #: (journal dirname, reason) per session that could not be rebuilt
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def partial(self) -> list[str]:
        return [name for name, status in self.recovered if status == "partial"]

    def summary(self) -> str:
        full = len(self.recovered) - len(self.partial)
        parts = [f"recovered {full} session(s)"]
        if self.partial:
            parts.append(f"{len(self.partial)} partial ({', '.join(self.partial)})")
        if self.skipped:
            parts.append(f"{len(self.skipped)} unrecoverable")
        return ", ".join(parts)


class ServeState:
    """All sessions of one server, plus the optional RunCache behind
    ``load`` and the optional write-ahead journal behind durability."""

    def __init__(
        self,
        cache: "RunCache | None" = None,
        *,
        journal: ServeJournal | None = None,
    ) -> None:
        self.cache = cache
        self.journal = journal
        self.sessions: dict[str, SystemSession] = {}
        self.op_counts: dict[str, int] = {}
        # Names claimed by in-flight loads (see claim/release below).
        self._pending: set[str] = set()

    def count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def session(self, name: Any) -> SystemSession:
        if not isinstance(name, str):
            raise WireError("bad-request", "'system' must be a string")
        session = self.sessions.get(name)
        if session is None:
            raise WireError(
                "unknown-system",
                f"no system named {name!r}; create or load one first",
            )
        return session

    def _claim_name(self, name: Any) -> str:
        if not isinstance(name, str) or not name:
            raise WireError("bad-request", "'system' must be a non-empty string")
        if name in self.sessions or name in self._pending:
            raise WireError("duplicate-system", f"system {name!r} already exists")
        return name

    def claim(self, name: Any) -> str:
        """Reserve a session name ahead of an executor-side load.

        The async server claims on the loop thread, then runs the disk
        work off-loop -- so two concurrent ``load`` requests can never
        race one name.  Balanced by :meth:`release` on failure; the name
        becomes visible in ``sessions`` when the load lands.
        """
        name = self._claim_name(name)
        self._pending.add(name)
        return name

    def release(self, name: str) -> None:
        """Drop a claim whose load failed."""
        self._pending.discard(name)

    # -- the write-ahead step ------------------------------------------------

    def journal_append(self, record: dict[str, Any]) -> None:
        """Durably journal one prepared record (no-op without a journal).

        Blocking disk I/O: the async server calls this through an
        executor, sync callers inline it.
        """
        if self.journal is None:
            return
        name = record.get("system")
        assert isinstance(name, str)  # prepared records always carry it
        self.journal.session(name).append(record)

    # -- create ----------------------------------------------------------------

    def prepare_create(
        self,
        name: Any,
        arena_payload: Any,
        *,
        complete: bool = False,
        missing_runs: int = 0,
    ) -> PreparedCreate:
        """Validate a ``create`` and claim its name (journal-safe step).

        Balanced by :meth:`commit_create`, or :meth:`release` on a
        journal failure in between.
        """
        name = self.claim(name)
        try:
            runs = _decode_arena_runs(arena_payload)
            if not runs:
                raise WireError("empty-system", "a system must contain at least one run")
        except BaseException:
            self.release(name)
            raise
        record = {
            "op": "create",
            "system": name,
            "arena": arena_payload,
            "complete": complete,
            "missing_runs": missing_runs,
        }
        return PreparedCreate(name, runs, complete, missing_runs, record)

    def commit_create(self, prepared: PreparedCreate) -> SystemSession:
        """Register a prepared (and, if journaling, journaled) create."""
        session = SystemSession(
            prepared.name,
            System(
                prepared.runs,
                complete=prepared.complete,
                missing_runs=prepared.missing_runs,
            ),
            source="inline",
        )
        self.sessions[prepared.name] = session
        self._pending.discard(prepared.name)
        return session

    def create(
        self,
        name: Any,
        arena_payload: Any,
        *,
        complete: bool = False,
        missing_runs: int = 0,
    ) -> SystemSession:
        """Register a system from an inline arena payload (sync path)."""
        prepared = self.prepare_create(
            name, arena_payload, complete=complete, missing_runs=missing_runs
        )
        try:
            self.journal_append(prepared.record)
        except BaseException:
            self.release(prepared.name)
            raise
        return self.commit_create(prepared)

    # -- ingest ----------------------------------------------------------------

    def prepare_ingest(self, name: Any, arena_payload: Any) -> PreparedIngest:
        """Validate an ``ingest`` against its session (journal-safe step)."""
        session = self.session(name)
        runs = session.prepare_ingest(arena_payload)
        record = {"op": "ingest", "system": session.name, "arena": arena_payload}
        return PreparedIngest(session, runs, record)

    def commit_ingest(self, prepared: PreparedIngest) -> dict[str, Any]:
        return prepared.session.apply_ingest(prepared.runs)

    def ingest(self, name: Any, arena_payload: Any) -> dict[str, Any]:
        """Decode, journal, and apply one ingest (sync path)."""
        prepared = self.prepare_ingest(name, arena_payload)
        self.journal_append(prepared.record)
        return self.commit_ingest(prepared)

    # -- load ------------------------------------------------------------------

    def load_digest(self, name: Any, digest: Any) -> SystemSession:
        """Claim ``name`` and load it from the cache (sync convenience)."""
        name = self.claim(name)
        try:
            return self.load_into(name, digest)
        except BaseException:
            self.release(name)
            raise

    def load_into(self, name: str, digest: Any) -> SystemSession:
        """Load a precomputed exploration from the RunCache by spec digest.

        ``name`` must already be claimed.  Synchronous and disk-touching
        -- the server calls this through an executor.  A corrupt entry
        degrades gracefully: the cache quarantines it and the recorded
        reason comes back as a ``corrupt-entry`` error instead of a bare
        miss.  With journaling on, the (name, digest) pair is journaled
        before the session becomes visible.
        """
        session = self._load_session(name, digest)
        self.journal_append(
            {"op": "load", "system": name, "digest": digest}
        )
        self.sessions[name] = session
        self._pending.discard(name)
        return session

    def _load_session(self, name: str, digest: Any) -> SystemSession:
        """The cache lookup + session construction behind ``load``."""
        if self.cache is None:
            raise WireError("no-cache", "server was started without a run cache")
        if not isinstance(digest, str) or not digest:
            raise WireError("bad-request", "'digest' must be a non-empty string")
        entry = self.cache.get_exploration(digest)
        if entry is None:
            reason = self.cache.quarantine_reason(digest)
            if reason is not None:
                raise WireError(
                    "corrupt-entry",
                    f"cache entry for {digest} failed integrity checks and "
                    f"was quarantined: {reason}",
                )
            raise WireError("not-found", f"no cached exploration for digest {digest}")
        runs, _stats = entry
        if not runs:
            raise WireError("empty-system", f"cached exploration {digest} has no runs")
        # Only exhaustive explorations are ever cached, so the loaded
        # system is complete by construction.
        return SystemSession(
            name,
            System(runs, complete=True),
            source=f"cache:{digest}",
        )

    # -- recovery --------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild sessions from the journal (boot-time crash recovery).

        Each journal's verified record prefix replays through the same
        decode/apply path that built the session live, so recovered
        answers are bit-identical to the uninterrupted session's.  A
        journal with a corrupt tail yields a *partial* session
        (``recovered: "partial"`` in its envelopes); a journal whose
        base record is unusable yields a skipped entry in the report --
        never an exception.
        """
        report = RecoveryReport()
        if self.journal is None:
            return report
        for session_journal in self.journal.discover():
            dirname = session_journal.directory.name
            replay = session_journal.replay()
            if not replay.records:
                if replay.status != "empty" or replay.reason is not None:
                    report.skipped.append(
                        (dirname, replay.reason or "no verifiable records")
                    )
                continue
            status = replay.status
            try:
                session, applied_all = self._replay_session(replay.records)
            except WireError as exc:
                report.skipped.append((dirname, f"{exc.code}: {exc.message}"))
                continue
            if not applied_all:
                status = "partial"
            session.recovered = status
            self.sessions[session.name] = session
            report.recovered.append((session.name, status))
        return report

    def _replay_session(
        self, records: list[dict[str, Any]]
    ) -> tuple[SystemSession, bool]:
        """One session from its journal records; returns (session, applied_all)."""
        base = records[0]
        op = base.get("op")
        name = base.get("system")
        if not isinstance(name, str) or not name:
            raise WireError("bad-request", "journal base record has no session name")
        if op == "create":
            runs = _decode_arena_runs(base.get("arena"))
            if not runs:
                raise WireError("empty-system", "journaled create has no runs")
            session = SystemSession(
                name,
                System(
                    runs,
                    complete=bool(base.get("complete", False)),
                    missing_runs=int(base.get("missing_runs", 0)),
                ),
                source="inline",
            )
        elif op == "load":
            session = self._load_session(name, base.get("digest"))
        else:
            raise WireError(
                "bad-request", f"journal base record has op {op!r}, not create/load"
            )
        for record in records[1:]:
            if record.get("op") != "ingest":
                return session, False
            try:
                session.apply_ingest(session.prepare_ingest(record.get("arena")))
            except WireError:
                # Validated before journaling, so only environmental
                # drift (e.g. a changed cache) lands here: keep the
                # prefix, surface partial.
                return session, False
        return session, True

    # -- descriptors -----------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """The ``info`` op payload."""
        cache_digests: list[str] = []
        if self.cache is not None:
            cache_digests = list(self.cache.exploration_digests())
        out = {
            "systems": {
                name: session.describe()
                for name, session in sorted(self.sessions.items())
            },
            "cache_digests": cache_digests,
            "op_counts": dict(sorted(self.op_counts.items())),
            "query_kinds": list(QUERY_KINDS),
        }
        if self.journal is not None:
            out["journal"] = self.journal.describe()
        return out
