"""A seeded TCP chaos proxy: wire faults between real sockets.

:class:`~repro.faults.infra.InfraFaultPlan` injects failures inside the
runtime's own process; this module covers the *network* between a real
client and a real server.  :class:`ChaosProxy` sits on a local port,
relays every connection to an upstream address, and perturbs the byte
stream according to a :class:`WireFaultPlan`: added latency, bandwidth
throttling, partial writes (frames delivered a few bytes at a time),
mid-frame disconnects, and single-byte corruption.

Two invariants hold:

* **Replayability.**  Every decision is drawn from a dedicated
  :class:`random.Random` seeded by ``(plan.seed, connection index,
  direction)`` -- decisions are a pure function of the seed and the
  (connection, chunk) position, so a soak rerun with the same seed
  replays the same fault schedule.  (TCP chunk *boundaries* are
  OS-dependent; harnesses assert invariants that hold under any
  interleaving, and record the observed fault counts for audit.)
* **Transparency at zero.**  ``WireFaultPlan()`` is inactive: the proxy
  degenerates to a clean relay and a protocol exchange through it is
  byte-identical to a direct connection.

The serve soak harness (``python -m repro.harness serve-soak``) drives
a client fleet through this proxy at an :class:`~repro.serve.server.EpistemicServer`
and asserts the robustness contract: wrong answers never, structured
error codes only, full recovery after a SIGKILL.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

__all__ = ["ChaosProxy", "WireFaultInjector", "WireFaultPlan"]

#: Read size of the relay loop; fault decisions are per chunk read.
_READ_CHUNK = 65536


@dataclass(frozen=True)
class WireFaultPlan:
    """Wire-level misbehaviour between a client and a server.

    All probabilities are per relayed chunk (one upstream/downstream
    read, at most ``64 KiB``).  The default plan is inactive; the proxy
    then relays bytes verbatim.
    """

    seed: int = 0
    #: Probability a chunk is delayed before relay.
    latency_prob: float = 0.0
    #: Upper bound of the injected delay, milliseconds (uniform draw).
    max_latency_ms: int = 50
    #: Bandwidth ceiling, bytes/second (0: unthrottled).
    throttle_bytes_per_s: int = 0
    #: Probability a chunk is relayed as many tiny writes instead of one.
    partial_write_prob: float = 0.0
    #: Piece size ceiling for partial writes, bytes.
    max_partial_bytes: int = 16
    #: Probability the connection is torn down before a chunk is
    #: relayed -- a mid-frame disconnect as the peers see it.
    disconnect_prob: float = 0.0
    #: Probability one byte of a chunk is flipped in flight.
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "latency_prob",
            "partial_write_prob",
            "disconnect_prob",
            "corrupt_prob",
        ):
            value = getattr(self, name)
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a float in [0, 1]")
        if self.max_latency_ms < 1:
            raise ValueError("max_latency_ms must be >= 1")
        if self.max_partial_bytes < 1:
            raise ValueError("max_partial_bytes must be >= 1")
        if self.throttle_bytes_per_s < 0:
            raise ValueError("throttle_bytes_per_s must be non-negative")

    @property
    def active(self) -> bool:
        return (
            self.latency_prob > 0
            or self.throttle_bytes_per_s > 0
            or self.partial_write_prob > 0
            or self.disconnect_prob > 0
            or self.corrupt_prob > 0
        )

    def injector(self, connection: int, direction: str) -> "WireFaultInjector":
        """The decision stream for one direction of one connection."""
        return WireFaultInjector(self, connection, direction)


class WireFaultInjector:
    """Seeded per-(connection, direction) fault decisions, with counters."""

    def __init__(self, plan: WireFaultPlan, connection: int, direction: str) -> None:
        self.plan = plan
        self.rng = random.Random(
            f"repro-wire-faults:{plan.seed}:{connection}:{direction}"
        )
        self.counts: dict[str, int] = {}

    def note(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def delay_seconds(self) -> float:
        """Injected latency ahead of the next chunk (0.0: none)."""
        if self.plan.latency_prob and self.rng.random() < self.plan.latency_prob:
            self.note("delayed")
            return self.rng.randint(1, self.plan.max_latency_ms) / 1000.0
        return 0.0

    def throttle_seconds(self, nbytes: int) -> float:
        """Pacing sleep owed after relaying ``nbytes``."""
        if self.plan.throttle_bytes_per_s <= 0:
            return 0.0
        return nbytes / float(self.plan.throttle_bytes_per_s)

    def should_disconnect(self) -> bool:
        if self.plan.disconnect_prob and self.rng.random() < self.plan.disconnect_prob:
            self.note("disconnected")
            return True
        return False

    def corrupt(self, data: bytes) -> bytes:
        """Maybe flip one byte (a nonzero xor, so the chunk always changes)."""
        if (
            data
            and self.plan.corrupt_prob
            and self.rng.random() < self.plan.corrupt_prob
        ):
            self.note("corrupted")
            position = self.rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[position] ^= self.rng.randint(1, 255)
            return bytes(mutated)
        return data

    def pieces(self, data: bytes) -> list[bytes]:
        """The write pieces for one chunk (several tiny ones when the
        partial-write fault fires, the chunk itself otherwise)."""
        if (
            data
            and self.plan.partial_write_prob
            and self.rng.random() < self.plan.partial_write_prob
        ):
            self.note("partial")
            out: list[bytes] = []
            offset = 0
            while offset < len(data):
                step = self.rng.randint(1, self.plan.max_partial_bytes)
                out.append(data[offset : offset + step])
                offset += step
            return out
        return [data]


class ChaosProxy:
    """A TCP relay that perturbs traffic per a :class:`WireFaultPlan`."""

    def __init__(
        self,
        plan: WireFaultPlan,
        upstream_host: str,
        upstream_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        linger: float = 0.5,
    ) -> None:
        self.plan = plan
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        #: Grace granted to the opposite direction after a clean EOF,
        #: so a response already in flight still lands.
        self.linger = linger
        self.connections = 0
        self.counts: dict[str, int] = {}
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()

    async def start(self) -> tuple[str, int]:
        """Bind the local listener; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname: tuple[str, int] = self._server.sockets[0].getsockname()[:2]
        self.host, self.port = sockname
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    def summary(self) -> dict[str, int]:
        """Aggregate fault counts over all closed connections."""
        return dict(sorted(self.counts.items()))

    def _absorb(self, injector: WireFaultInjector) -> None:
        for kind, count in injector.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count

    async def _handle_connection(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        connection = self.connections
        self.connections += 1
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            # Upstream down (e.g. mid-soak SIGKILL): the client sees a
            # plain connection drop, which its retry layer owns.
            self.counts["upstream_refused"] = self.counts.get("upstream_refused", 0) + 1
            self._conn_tasks.discard(task)
            client_writer.close()
            return
        send = self.plan.injector(connection, "send")
        recv = self.plan.injector(connection, "recv")
        pump_up = asyncio.ensure_future(
            self._pump(client_reader, upstream_writer, send)
        )
        pump_down = asyncio.ensure_future(
            self._pump(upstream_reader, client_writer, recv)
        )
        try:
            done, pending = await asyncio.wait(
                {pump_up, pump_down}, return_when=asyncio.FIRST_COMPLETED
            )
            clean = all(t.exception() is None and t.result() == "eof" for t in done)
            if pending and clean:
                # One side closed cleanly: let the other drain briefly.
                _done, pending = await asyncio.wait(pending, timeout=self.linger)
            for leftover in pending:
                leftover.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            # stop() tears connections down; end quietly (asyncio's
            # stream machinery logs handlers that finish cancelled).
            pump_up.cancel()
            pump_down.cancel()
            await asyncio.gather(pump_up, pump_down, return_exceptions=True)
        finally:
            self._conn_tasks.discard(task)
            self._absorb(send)
            self._absorb(recv)
            for writer in (client_writer, upstream_writer):
                writer.close()
            for writer in (client_writer, upstream_writer):
                try:
                    await writer.wait_closed()
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    OSError,
                    asyncio.CancelledError,
                ):
                    pass

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        injector: WireFaultInjector,
    ) -> str:
        """Relay one direction until EOF or an injected disconnect."""
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return "eof"
                delay = injector.delay_seconds()
                if delay:
                    await asyncio.sleep(delay)
                if injector.should_disconnect():
                    return "disconnect"
                data = injector.corrupt(data)
                for piece in injector.pieces(data):
                    writer.write(piece)
                    await writer.drain()
                pacing = injector.throttle_seconds(len(data))
                if pacing:
                    await asyncio.sleep(pacing)
        except (ConnectionResetError, BrokenPipeError, OSError):
            return "reset"
