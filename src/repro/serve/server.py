"""The asyncio service: newline-JSON requests over TCP, one task per client.

Built on stdlib asyncio streams only -- no web framework, no new
dependencies.  The epistemic kernel is CPU-bound pure-Python, so the
server runs queries inline on the event loop (a worker pool would add
latency without adding parallelism under the GIL); the *disk-touching*
ops (``load``, journal appends, and the cache scan inside ``info``) go
through ``loop.run_in_executor`` so a slow filesystem never stalls
connected clients.  Lint rules ASY001 (no blocking calls in
coroutines) and ASY002 (no fire-and-forget tasks) pin the invariants
statically.

Overload protection.  Admission control bounds the work the loop will
accept: at most ``max_inflight`` heavy requests run concurrently and at
most ``max_pending`` more may queue for a slot; anything beyond that is
*shed* immediately with a structured ``overloaded`` error carrying
``retry_after_ms``, so a burst degrades into cheap, honest rejections
instead of unbounded queueing.  Per-request cooperative deadlines
(``deadline_ms`` on the wire, ``request_deadline`` server-side,
whichever is sooner -- mirroring ``ExecutionConfig.deadline`` in the
runtime) turn stalls into ``deadline-exceeded``; inside a query batch
the deadline is checked per query, so one expensive query sheds the
*rest* of its batch, not the whole connection.  Slow clients are bounded
by a write timeout, idle ones are reaped, and shutdown drains: the
listener closes, in-flight requests finish (or shed) within
``drain_timeout``, already-pipelined lines get a ``drain_grace`` window,
and the journals are fsynced last.  Each read waits under one timeout
scope (``idle_timeout``, or ``drain_grace`` once stopping) that
stopping shortens, so a served request costs no extra task.

Consistency.  A query batch captures its session's
:class:`~repro.serve.state.SessionEpoch` once, then, while another
connection is open, yields to the loop between queries -- a concurrent
ingest swaps the epoch without disturbing the batch, and every answer
matches the ``generation`` its envelope reports.  Mutations follow the
write-ahead discipline (prepare on the loop, journal on the executor,
commit on the loop) under a per-session lock so journal order is apply
order.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import asdict, dataclass
from typing import Any

from repro.runtime import Deadline
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    WireError,
    decode_message,
    encode_message,
    error_payload,
    verify_checksum,
    wire_checksum,
)
from repro.serve.state import ServeState

#: Operations the dispatcher accepts.
OPERATIONS = ("ping", "info", "create", "load", "query", "ingest", "shutdown")

#: Operations that pass through admission control.  ``ping`` stays
#: admission-free so liveness probes work *because of* overload, and
#: ``shutdown`` so an overloaded server can still be drained.
ADMITTED_OPERATIONS = ("info", "create", "load", "query", "ingest")


@dataclass(frozen=True)
class ServerLimits:
    """Admission-control and robustness knobs of one server.

    The defaults suit an interactive single-host deployment; the soak
    harness tightens them to force the shedding paths.
    """

    #: Heavy requests allowed to run concurrently.
    max_inflight: int = 8
    #: Heavy requests allowed to *wait* for a slot before shedding.
    max_pending: int = 32
    #: Longest a request may wait for admission before it is shed.
    admission_timeout: float = 2.0
    #: Backoff hint stamped on ``overloaded`` responses.
    retry_after_ms: int = 50
    #: Server-side ceiling on per-request deadlines (None: unbounded).
    request_deadline: float | None = None
    #: Longest a response write may stall on a slow client.
    write_timeout: float = 15.0
    #: Idle-connection reap threshold.
    idle_timeout: float = 300.0
    #: Post-shutdown window for requests a client already pipelined.
    drain_grace: float = 0.25
    #: Longest ``stop()`` waits for in-flight connections to finish.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_pending < 0:
            raise ValueError("max_pending must be non-negative")
        if self.retry_after_ms < 0:
            raise ValueError("retry_after_ms must be non-negative")
        for name in (
            "admission_timeout",
            "write_timeout",
            "idle_timeout",
            "drain_grace",
            "drain_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive (or None)")


class EpistemicServer:
    """A :class:`ServeState` behind a TCP listener."""

    def __init__(
        self,
        state: ServeState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: ServerLimits | None = None,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self.limits = limits or ServerLimits()
        self._server: asyncio.base_events.Server | None = None
        self._stopping = asyncio.Event()
        self._gate = asyncio.Semaphore(self.limits.max_inflight)
        self._pending = 0
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._read_scopes: set[asyncio.Timeout] = set()
        self._session_locks: dict[str, asyncio.Lock] = {}
        self.metrics: dict[str, int] = {
            "requests": 0,
            "shed": 0,
            "deadline_exceeded": 0,
            "bad_checksum": 0,
            "reaped_idle": 0,
            "timed_out_writes": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_client,
            self.host,
            self.port,
            limit=MAX_MESSAGE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def stop(self) -> None:
        """Graceful drain: close the listener, let in-flight work land,
        cancel stragglers, then settle the journals on disk."""
        self._begin_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            draining = set(self._conn_tasks)
            _done, pending = await asyncio.wait(
                draining, timeout=self.limits.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self.state.journal is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.state.journal.sync
            )

    async def run(self) -> None:
        """start(), serve until a shutdown request, then drain and close."""
        if self._server is None:
            await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    # -- connection handling -------------------------------------------------

    def _begin_stop(self) -> None:
        """Enter drain mode: every open read gets at most ``drain_grace``
        more, for lines its client already pipelined."""
        self._stopping.set()
        deadline = asyncio.get_running_loop().time() + self.limits.drain_grace
        for scope in self._read_scopes:
            when = scope.when()
            # An expired scope is past the deadline and cannot be rescheduled.
            if when is not None and when > deadline:
                scope.reschedule(deadline)

    async def _next_line(self, reader: asyncio.StreamReader) -> bytes:
        """One request line, read under one timeout scope.

        The scope is ``idle_timeout``, or ``drain_grace`` once stopping
        (:meth:`_begin_stop` shortens the open ones).  Returns ``b""``
        at EOF; raises :class:`TimeoutError` when the scope expires (an
        idle reap, or the drain grace ran out); propagates readline's
        oversize ``ValueError``.
        """
        limits = self.limits
        delay = limits.drain_grace if self._stopping.is_set() else limits.idle_timeout
        async with asyncio.timeout(delay) as scope:
            self._read_scopes.add(scope)
            try:
                return await reader.readline()
            finally:
                self._read_scopes.discard(scope)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await self._next_line(reader)
                except TimeoutError:
                    if not self._stopping.is_set():
                        self.metrics["reaped_idle"] += 1
                    break  # idle reap, or the drain grace ran out
                except (ValueError, asyncio.LimitOverrunError):
                    # A line beyond the stream limit: answer and drop the
                    # connection (the stream cannot resynchronize).
                    writer.write(
                        encode_message(
                            error_payload(
                                "too-large",
                                f"request line exceeds {MAX_MESSAGE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client hung up
                if not line.strip():
                    continue  # blank keep-alive line
                response = await self._respond(line)
                writer.write(encode_message(response))
                try:
                    async with asyncio.timeout(self.limits.write_timeout):
                        await writer.drain()
                except TimeoutError:
                    # Slow client: its socket buffer stayed full past the
                    # write timeout.  Drop it rather than hold memory.
                    self.metrics["timed_out_writes"] += 1
                    break
                if response.get("stopping"):
                    self._begin_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-write; nothing to answer
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
                pass

    async def _respond(self, line: bytes) -> dict[str, Any]:
        self.metrics["requests"] += 1
        request: dict[str, Any] | None = None
        try:
            request = decode_message(line)
            if not verify_checksum(request):
                self.metrics["bad_checksum"] += 1
                raise WireError(
                    "bad-checksum",
                    "request checksum does not match its body "
                    "(bytes corrupted in flight; safe to retry)",
                )
            response = await self._dispatch(request)
            response.setdefault("ok", True)
        except WireError as exc:
            response = error_payload(exc.code, exc.message, extra=exc.extra)
        except Exception as exc:  # never let one request kill the connection
            response = error_payload("internal", f"{type(exc).__name__}: {exc}")
        if request is not None and "id" in request:
            response["id"] = request["id"]
        if request is not None and "checksum" in request:
            # The client opted into end-to-end integrity: stamp the
            # response so it can verify our bytes survived the wire.
            response["checksum"] = wire_checksum(response)
        return response

    # -- admission control ---------------------------------------------------

    def _overloaded(self, message: str) -> WireError:
        self.metrics["shed"] += 1
        return WireError(
            "overloaded",
            message,
            extra={"retry_after_ms": self.limits.retry_after_ms},
        )

    async def _admit(self) -> None:
        """Acquire an in-flight slot or shed the request."""
        if not self._gate.locked():
            # A slot is free: acquire() returns synchronously (we are on
            # the loop thread, so nothing can race the check).
            await self._gate.acquire()
            return
        # All slots busy: this request must wait -- but only
        # ``max_pending`` requests may, the rest are shed immediately.
        if self._pending >= self.limits.max_pending:
            raise self._overloaded(
                f"admission queue is full ({self.limits.max_pending} pending); "
                f"request shed before any work"
            )
        self._pending += 1
        try:
            await asyncio.wait_for(
                self._gate.acquire(), timeout=self.limits.admission_timeout
            )
        except asyncio.TimeoutError:
            raise self._overloaded(
                f"no execution slot freed within "
                f"{self.limits.admission_timeout}s; request shed before any work"
            ) from None
        finally:
            self._pending -= 1

    def _deadline_for(self, request: dict[str, Any]) -> Deadline:
        """The effective deadline: sooner of the client's and the server's."""
        ms = request.get("deadline_ms")
        # NaN fails both comparisons; the upper bound rejects infinity
        # and integers too large to become a float.
        if ms is not None and (
            not isinstance(ms, (int, float))
            or isinstance(ms, bool)
            or not 0 <= ms <= sys.float_info.max
        ):
            raise WireError(
                "bad-request", "'deadline_ms' must be a finite non-negative number"
            )
        seconds = self.limits.request_deadline
        if ms is not None and (seconds is None or ms / 1000.0 < seconds):
            seconds = ms / 1000.0
        return Deadline.after(seconds)

    def _session_lock(self, name: str) -> asyncio.Lock:
        """The per-session mutation lock (journal order == apply order)."""
        lock = self._session_locks.get(name)
        if lock is None:
            lock = asyncio.Lock()
            self._session_locks[name] = lock
        return lock

    async def _journal_append(self, record: dict[str, Any]) -> None:
        """The write-ahead step, off the loop (it fsyncs)."""
        if self.state.journal is None:
            return
        await asyncio.get_running_loop().run_in_executor(
            None, self.state.journal_append, record
        )

    # -- the operations ------------------------------------------------------

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if not isinstance(op, str) or op not in OPERATIONS:
            raise WireError(
                "unknown-op", f"unknown op {op!r}; expected one of {list(OPERATIONS)}"
            )
        self.state.count(op)
        if op == "ping":
            return {"pong": True}
        if op == "shutdown":
            return {"stopping": True}
        deadline = self._deadline_for(request)
        await self._admit()
        try:
            if deadline.expired:
                self.metrics["deadline_exceeded"] += 1
                raise WireError(
                    "deadline-exceeded",
                    "request deadline expired while queued for admission; "
                    "no work was done",
                )
            return await self._serve_admitted(op, request, deadline)
        finally:
            self._gate.release()

    async def _serve_admitted(
        self, op: str, request: dict[str, Any], deadline: Deadline
    ) -> dict[str, Any]:
        state = self.state
        loop = asyncio.get_running_loop()
        if op == "info":
            # describe() scans the cache directory -- executor, not loop.
            payload = await loop.run_in_executor(None, state.describe)
            payload["server"] = {
                "limits": asdict(self.limits),
                "metrics": dict(self.metrics),
                "connections": len(self._conn_tasks),
            }
            return payload
        if op == "create":
            # Write-ahead: prepare (claims the name; every validation
            # rejection fires here), journal, then commit.  No session
            # lock needed -- the claim serializes creates, and ingests
            # cannot target the name until commit registers it.
            prepared = state.prepare_create(
                request.get("system"),
                request.get("arena"),
                complete=request.get("complete", False),
                missing_runs=request.get("missing_runs", 0),
            )
            try:
                await self._journal_append(prepared.record)
            except BaseException:
                state.release(prepared.name)
                raise
            session = state.commit_create(prepared)
            return {"created": session.name, **session.describe()}
        if op == "load":
            # Claim the name on the loop thread, do the disk work (cache
            # read + journal append) off it.
            name = state.claim(request.get("system", request.get("digest")))
            try:
                session = await loop.run_in_executor(
                    None, state.load_into, name, request.get("digest")
                )
            except BaseException:
                state.release(name)
                raise
            return {"loaded": session.name, **session.describe()}
        if op == "ingest":
            session = state.session(request.get("system"))
            async with self._session_lock(session.name):
                prepared = state.prepare_ingest(
                    session.name, request.get("arena")
                )
                await self._journal_append(prepared.record)
                result = state.commit_ingest(prepared)
            return {**session.envelope(), **result}
        # op == "query"
        session = state.session(request.get("system"))
        queries = request.get("queries")
        if not isinstance(queries, list):
            raise WireError("bad-request", "'queries' must be a list")
        # One epoch for the whole batch: the yields below let other
        # connections (including ingests) interleave without this batch
        # ever seeing a half-switched system.  With no other connection
        # open nothing can interleave, and each yield would cost a full
        # loop turn (an epoll_wait included), so a lone batch runs through.
        epoch = session.epoch
        results: list[dict[str, Any]] = []
        for query in queries:
            if deadline.expired:
                # Deadline isolation: shed the *remaining* queries, keep
                # every answer already computed.
                self.metrics["deadline_exceeded"] += 1
                results.append(
                    {
                        "ok": False,
                        "error": "deadline-exceeded",
                        "message": "request deadline exceeded before this query ran",
                    }
                )
                continue
            results.append(session.run_query(query, epoch))
            if len(self._conn_tasks) > 1:
                await asyncio.sleep(0)
        return {**session.envelope(epoch), "results": results}


async def serve_forever(
    state: ServeState,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    limits: ServerLimits | None = None,
) -> None:
    """Convenience entry point used by the harness ``serve`` subcommand."""
    server = EpistemicServer(state, host=host, port=port, limits=limits)
    bound_host, bound_port = await server.start()
    print(f"repro.serve listening on {bound_host}:{bound_port}", flush=True)
    await server.run()
