"""Tests for the TCP chaos proxy (repro.faults.proxy).

The package invariants under test: an inactive :class:`WireFaultPlan`
makes the proxy a byte-transparent relay (a serve exchange through it
answers exactly like a direct connection); injector decisions are a
pure function of ``(seed, connection, direction)`` so a soak replays;
and each fault kind both fires and keeps its local contract (corruption
flips exactly one byte, partial writes partition the chunk, disconnects
surface as transport errors the client retry layer owns).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.faults.proxy import ChaosProxy, WireFaultPlan
from repro.knowledge import Crashed
from repro.model.synthetic import synthetic_system
from repro.serve.client import ServeClient, knows_query, runs_to_arena_payload
from repro.serve.server import EpistemicServer
from repro.serve.state import ServeState


class ServerThread:
    """A plain EpistemicServer on a background thread."""

    def __init__(self, state: ServeState) -> None:
        self.server = EpistemicServer(state)
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

    def close(self) -> None:
        try:
            with ServeClient.connect(self.host, self.port, timeout=5.0) as client:
                client.shutdown()
        except (ConnectionError, OSError):
            pass
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()


class ProxyThread:
    """A ChaosProxy on its own event-loop thread."""

    def __init__(self, proxy: ChaosProxy) -> None:
        self.proxy = proxy
        self.loop = asyncio.new_event_loop()
        bound: dict = {}
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self.loop)
            bound["addr"] = self.loop.run_until_complete(proxy.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30)
        self.host, self.port = bound["addr"]

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.proxy.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def upstream():
    state = ServeState()
    base = synthetic_system(3, 4, seed=11, duration=4)
    state.create("s", runs_to_arena_payload(base.runs))
    server = ServerThread(state)
    try:
        yield server
    finally:
        server.close()


def test_plan_validation() -> None:
    with pytest.raises(ValueError):
        WireFaultPlan(latency_prob=1.5)
    with pytest.raises(ValueError):
        WireFaultPlan(corrupt_prob=1)  # int, not the float the draw needs
    with pytest.raises(ValueError):
        WireFaultPlan(throttle_bytes_per_s=-1)
    with pytest.raises(ValueError):
        WireFaultPlan(max_partial_bytes=0)
    assert not WireFaultPlan().active
    assert WireFaultPlan(partial_write_prob=0.5).active


def test_inactive_plan_is_transparent(upstream) -> None:
    proxy = ProxyThread(ChaosProxy(WireFaultPlan(), upstream.host, upstream.port))
    try:
        query = [knows_query("p1", Crashed("p2"), 0, 2)]
        with ServeClient.connect(upstream.host, upstream.port) as direct:
            want = direct.query_response("s", query)
        with ServeClient.connect(proxy.host, proxy.port) as relayed:
            assert relayed.ping()
            got = relayed.query_response("s", query)
        assert got == want
        assert proxy.proxy.summary() == {}  # no fault ever fired
        assert proxy.proxy.connections == 1
    finally:
        proxy.close()


def test_injector_decisions_replay_from_the_seed() -> None:
    plan = WireFaultPlan(
        seed=42,
        latency_prob=0.3,
        partial_write_prob=0.4,
        max_partial_bytes=5,
        disconnect_prob=0.1,
        corrupt_prob=0.3,
    )
    chunk = bytes(range(64))

    def decisions(injector):
        out = []
        for _ in range(50):
            out.append(injector.delay_seconds())
            out.append(injector.should_disconnect())
            out.append(injector.corrupt(chunk))
            out.append(tuple(injector.pieces(chunk)))
        return out

    a = decisions(plan.injector(3, "send"))
    b = decisions(plan.injector(3, "send"))
    assert a == b
    # A different connection (or direction) draws a different stream.
    assert decisions(plan.injector(4, "send")) != a
    assert decisions(plan.injector(3, "recv")) != a


def test_corrupt_flips_exactly_one_byte() -> None:
    plan = WireFaultPlan(corrupt_prob=1.0)
    injector = plan.injector(0, "send")
    data = bytes(100)
    mutated = injector.corrupt(data)
    assert len(mutated) == len(data)
    assert sum(1 for x, y in zip(data, mutated) if x != y) == 1
    assert injector.counts["corrupted"] == 1
    assert injector.corrupt(b"") == b""  # empty chunks pass through


def test_pieces_partition_the_chunk() -> None:
    plan = WireFaultPlan(partial_write_prob=1.0, max_partial_bytes=4)
    injector = plan.injector(0, "send")
    data = bytes(range(41))
    pieces = injector.pieces(data)
    assert len(pieces) > 1
    assert all(1 <= len(p) <= 4 for p in pieces)
    assert b"".join(pieces) == data
    assert injector.counts["partial"] == 1


def test_throttle_pacing_math() -> None:
    injector = WireFaultPlan(throttle_bytes_per_s=1000).injector(0, "send")
    assert injector.throttle_seconds(500) == pytest.approx(0.5)
    assert WireFaultPlan().injector(0, "send").throttle_seconds(500) == 0.0


def test_partial_writes_preserve_the_protocol(upstream) -> None:
    """Frames chopped into tiny pieces still reassemble: the newline
    protocol is boundary-agnostic, and the proxy proves it."""
    plan = WireFaultPlan(seed=7, partial_write_prob=1.0, max_partial_bytes=3)
    proxy = ProxyThread(ChaosProxy(plan, upstream.host, upstream.port))
    try:
        with ServeClient.connect(proxy.host, proxy.port, timeout=30.0) as client:
            for _ in range(3):
                [answer] = client.query("s", [knows_query("p1", Crashed("p2"), 0, 2)])
                assert answer["ok"] is True
    finally:
        proxy.close()
    # Fault counts are absorbed as connections close; after stop() the
    # summary is final.
    assert proxy.proxy.summary()["partial"] > 0


def test_disconnect_surfaces_as_a_transport_error(upstream) -> None:
    plan = WireFaultPlan(seed=1, disconnect_prob=1.0)
    proxy = ProxyThread(ChaosProxy(plan, upstream.host, upstream.port))
    try:
        client = ServeClient.connect(proxy.host, proxy.port, timeout=5.0)
        with pytest.raises((ConnectionError, OSError)):
            client.ping()
        client.close()
    finally:
        proxy.close()
    assert proxy.proxy.summary()["disconnected"] >= 1


def test_upstream_refusal_is_counted_not_crashed() -> None:
    # Point the proxy at a dead port: the client sees a dropped
    # connection, the proxy stays up and counts it.
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    proxy = ProxyThread(ChaosProxy(WireFaultPlan(), "127.0.0.1", dead_port))
    try:
        with pytest.raises((ConnectionError, OSError)):
            with ServeClient.connect(proxy.host, proxy.port, timeout=5.0) as client:
                client.ping()
    finally:
        proxy.close()
    assert proxy.proxy.summary()["upstream_refused"] == 1
