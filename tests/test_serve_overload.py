"""Overload-protection tests for the serve layer (admission control,
deadlines, idle reaping, graceful drain, client timeouts and retry).

The server under test runs with deliberately tiny
:class:`~repro.serve.server.ServerLimits` so each shedding path fires
deterministically: a monkeypatched slow ``info`` occupies the single
execution slot off-loop (the loop stays responsive, exactly the regime
admission control exists for), and everything else queues, sheds, or
times out against it.
"""

from __future__ import annotations

import asyncio
import select
import socket
import threading
import time

import pytest

from repro.knowledge import Crashed
from repro.model.synthetic import synthetic_system
from repro.runtime import RetryPolicy
from repro.serve.client import (
    ServeClient,
    ServeClientError,
    ServeTimeout,
    knows_query,
)
from repro.serve.protocol import decode_message, encode_message
from repro.serve.server import EpistemicServer, ServerLimits
from repro.serve.state import ServeState


class LiveServer:
    """One EpistemicServer on a background thread, torn down via shutdown."""

    def __init__(self, state: ServeState, limits: ServerLimits) -> None:
        self.state = state
        self.server = EpistemicServer(state, limits=limits)
        bound: dict = {}
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            try:
                asyncio.set_event_loop(loop)
                bound["addr"] = loop.run_until_complete(self.server.start())
                started.set()
                loop.run_until_complete(self.server.run())
            finally:
                loop.close()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30)
        self.host, self.port = bound["addr"]

    def connect(self, **kwargs) -> ServeClient:
        return ServeClient.connect(self.host, self.port, **kwargs)

    def close(self) -> None:
        try:
            with self.connect(timeout=5.0) as client:
                client.shutdown()
        except (ConnectionError, OSError, ServeClientError):
            pass  # a test may have stopped the server already
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()


def _state_with_session() -> ServeState:
    from repro.serve.client import runs_to_arena_payload

    state = ServeState()
    base = synthetic_system(3, 6, seed=5, duration=4)
    state.create("s", runs_to_arena_payload(base.runs))
    return state


def _slow_describe(state: ServeState, seconds: float) -> None:
    """Make ``info`` hold its execution slot off-loop for ``seconds``."""
    original = ServeState.describe

    def slow() -> dict:
        time.sleep(seconds)
        return original(state)

    state.describe = slow  # instance attr shadows the method


def _occupy(live: LiveServer, barrier: threading.Event) -> threading.Thread:
    """A background ``info`` request that pins the single inflight slot."""

    def _run() -> None:
        with live.connect() as client:
            barrier.set()
            client.info()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert barrier.wait(timeout=10)
    time.sleep(0.15)  # let the info request reach the executor
    return thread


def test_full_pending_queue_sheds_with_retry_hint() -> None:
    state = _state_with_session()
    _slow_describe(state, 0.8)
    live = LiveServer(
        state,
        ServerLimits(max_inflight=1, max_pending=0, retry_after_ms=70),
    )
    try:
        occupier = _occupy(live, threading.Event())
        with live.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.query("s", [knows_query("p1", Crashed("p2"), 0, 2)])
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after_ms == 70
            # Liveness probes bypass admission: ping works *because of*
            # overload protection, not despite it.
            assert client.ping()
        occupier.join(timeout=10)
        assert live.server.metrics["shed"] >= 1
    finally:
        live.close()


def test_admission_timeout_sheds_queued_requests() -> None:
    state = _state_with_session()
    _slow_describe(state, 0.8)
    live = LiveServer(
        state,
        ServerLimits(max_inflight=1, max_pending=4, admission_timeout=0.1),
    )
    try:
        occupier = _occupy(live, threading.Event())
        with live.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.query("s", [knows_query("p1", Crashed("p2"), 0, 2)])
            assert excinfo.value.code == "overloaded"
            assert "slot" in str(excinfo.value)
        occupier.join(timeout=10)
    finally:
        live.close()


def test_client_retry_recovers_a_shed_request() -> None:
    state = _state_with_session()
    _slow_describe(state, 0.5)
    live = LiveServer(
        state,
        ServerLimits(
            max_inflight=1, max_pending=0, admission_timeout=0.1, retry_after_ms=100
        ),
    )
    try:
        occupier = _occupy(live, threading.Event())
        retry = RetryPolicy(max_attempts=8, backoff_base=0.1, max_backoff=0.5)
        with live.connect(retry=retry) as client:
            [answer] = client.query("s", [knows_query("p1", Crashed("p2"), 0, 2)])
            assert answer["ok"] is True
        occupier.join(timeout=10)
        # The request was shed at least once before the retry landed it.
        assert live.server.metrics["shed"] >= 1
    finally:
        live.close()


def test_deadline_exceeded_isolates_the_rest_of_the_batch() -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits())
    try:
        session = state.sessions["s"]
        original = type(session).run_query

        def slow_query(query, epoch=None):
            time.sleep(0.05)
            return original(session, query, epoch)

        session.run_query = slow_query
        with live.connect() as client:
            queries = [knows_query("p1", Crashed("p2"), 0, 2)] * 6
            response = client.query_response("s", queries, deadline_ms=80)
            results = response["results"]
            # The batch envelope is fine; only the queries that missed
            # the deadline are shed, and every computed answer is kept.
            assert results[0]["ok"] is True
            shed = [r for r in results if not r["ok"]]
            assert shed
            assert {r["error"] for r in shed} == {"deadline-exceeded"}
            assert len(results) == 6
            # The connection survives: a fresh request still answers.
            del session.run_query
            assert client.query("s", queries[:1])[0]["ok"] is True
        assert live.server.metrics["deadline_exceeded"] >= 1
    finally:
        live.close()


def test_deadline_already_expired_sheds_the_whole_request() -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits())
    try:
        with live.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.query_response(
                    "s", [knows_query("p1", Crashed("p2"), 0, 2)], deadline_ms=0
                )
            assert excinfo.value.code == "deadline-exceeded"
    finally:
        live.close()


def test_server_side_request_deadline_applies_without_client_optin() -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits(request_deadline=0.04))
    try:
        session = state.sessions["s"]
        original = type(session).run_query

        def slow_query(query, epoch=None):
            time.sleep(0.05)
            return original(session, query, epoch)

        session.run_query = slow_query
        with live.connect() as client:
            results = client.query(
                "s", [knows_query("p1", Crashed("p2"), 0, 2)] * 3
            )
            assert [r["ok"] for r in results].count(False) >= 1
    finally:
        live.close()


@pytest.mark.parametrize(
    "deadline_ms", [float("nan"), float("1e309"), 10**400], ids=["nan", "inf", "huge-int"]
)
def test_non_finite_deadline_is_a_bad_request(deadline_ms) -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits())
    try:
        with live.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.query_response(
                    "s", [knows_query("p1", Crashed("p2"), 0, 2)], deadline_ms=deadline_ms
                )
            assert excinfo.value.code == "bad-request"
            assert "finite" in str(excinfo.value)
            assert client.ping()  # the connection survives
    finally:
        live.close()


def test_second_connection_is_answered_during_a_long_batch() -> None:
    """With two connections open, a batch yields between its queries, so
    a ping on the other connection is answered before the batch ends."""
    state = _state_with_session()
    live = LiveServer(state, ServerLimits())
    try:
        session = state.sessions["s"]
        original = type(session).run_query

        def slow_query(query, epoch=None):
            time.sleep(0.05)  # holds the loop, like an expensive query
            return original(session, query, epoch)

        session.run_query = slow_query
        with live.connect() as batcher, live.connect() as prober:
            assert batcher.ping() and prober.ping()  # both connections are open
            queries = [knows_query("p1", Crashed("p2"), 0, 2)] * 20
            batcher._sock.sendall(
                encode_message({"op": "query", "system": "s", "queries": queries})
            )
            time.sleep(0.2)  # the 1 s batch is under way
            assert prober.ping()
            # The batch is still running: no byte of its response yet.
            assert select.select([batcher._sock], [], [], 0)[0] == []
            response = decode_message(batcher._reader.readline())
            assert response["ok"] is True
            assert [r["ok"] for r in response["results"]] == [True] * 20
    finally:
        live.close()


def test_shutdown_closes_an_idle_connection_within_the_drain_grace() -> None:
    """A ``shutdown`` on one connection shortens the idle read of another
    to the drain grace: it closes far sooner than ``idle_timeout``."""
    state = _state_with_session()
    live = LiveServer(state, ServerLimits(drain_grace=0.2, idle_timeout=60.0))
    try:
        idler = live.connect()
        assert idler.ping()
        with live.connect() as other:
            other.shutdown()
        t0 = time.monotonic()
        assert idler._reader.readline() == b""  # closed by the server
        assert time.monotonic() - t0 < 5 * 0.2
        idler.close()
        assert live.server.metrics["reaped_idle"] == 0
    finally:
        live.close()


def test_idle_connections_are_reaped() -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits(idle_timeout=0.2))
    try:
        client = live.connect()
        assert client.ping()
        time.sleep(0.6)
        with pytest.raises((ConnectionError, OSError)):
            client.ping()
        client.close()
        assert live.server.metrics["reaped_idle"] >= 1
    finally:
        live.close()


def test_pipelined_batch_is_answered_through_shutdown() -> None:
    """Graceful-drain regression: requests a client already pipelined
    when shutdown arrives are answered within the drain grace, not
    dropped on the floor."""
    state = _state_with_session()
    live = LiveServer(state, ServerLimits(drain_grace=0.5))
    try:
        pipeliner = live.connect()
        query_line = encode_message(
            {
                "op": "query",
                "system": "s",
                "queries": [knows_query("p1", Crashed("p2"), 0, 2)],
                "id": "pipelined",
            }
        )
        with live.connect() as other:
            other.shutdown()
        time.sleep(0.1)  # the server is now draining...
        pipeliner._sock.sendall(query_line * 3)  # ...and these are in flight
        for _ in range(3):
            response = decode_message(pipeliner._reader.readline())
            assert response["ok"] is True
            assert response["id"] == "pipelined"
            assert response["results"][0]["ok"] is True
        assert pipeliner._reader.readline() == b""  # then a clean close
        pipeliner.close()
    finally:
        live.close()


def test_client_read_timeout_raises_serve_timeout() -> None:
    """A stalled server turns into a typed ServeTimeout, never a hang."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    try:
        client = ServeClient.connect(host, port, timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(ServeTimeout) as excinfo:
            client.ping()
        assert time.monotonic() - t0 < 5.0
        assert excinfo.value.code == "timeout"
        client.close()
    finally:
        listener.close()


def test_limits_validation() -> None:
    with pytest.raises(ValueError):
        ServerLimits(max_inflight=0)
    with pytest.raises(ValueError):
        ServerLimits(max_pending=-1)
    with pytest.raises(ValueError):
        ServerLimits(request_deadline=0)
    with pytest.raises(ValueError):
        ServerLimits(idle_timeout=0)


def test_info_reports_limits_and_metrics() -> None:
    state = _state_with_session()
    live = LiveServer(state, ServerLimits(max_inflight=3, retry_after_ms=25))
    try:
        with live.connect() as client:
            info = client.info()
            server = info["server"]
            assert server["limits"]["max_inflight"] == 3
            assert server["limits"]["retry_after_ms"] == 25
            assert server["metrics"]["requests"] >= 1
            assert server["connections"] >= 1
    finally:
        live.close()
