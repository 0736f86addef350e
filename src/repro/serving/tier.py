"""The asyncio serving tier: one socket listener per market.

The paper's 17 markets were real web services; this module is the
closest the simulation gets.  A :class:`ServingTier` runs a private
asyncio event loop on a background thread and binds one TCP listener
(127.0.0.1, ephemeral port) per :class:`~repro.markets.server.MarketServer`.
Connections speak the :mod:`repro.net.transport` frame protocol: a
length-prefixed RW01 request map in, a length-prefixed RW01 response
map out, any number of exchanges per connection.

Each connection is a :class:`FrameProtocol`: ``data_received`` appends
to one buffer, cuts every complete frame out of it and answers each in
the same callback, so a request costs one event-loop turn — no
per-connection task, no stream reader's future to wake.  The listener
thread holds the GIL for its whole turn, so every step of that turn is
serial crawl wall time.

Determinism is preserved by construction:

* ``server.handle`` is synchronous and every frame is dispatched on
  the single loop thread, so one market's request ordinals — and
  therefore its fault injection, quota consumption, and hostility
  screening — form one serialized stream exactly as in-process calls
  do.  (Lanes still serialize their *own* requests; the loop serializes
  across connections.)
* Latency injection is owned by the tier (a ``loop.call_later``
  *before* dispatch, with the connection's reading paused so its later
  frames wait their turn), never by the wrapped server: a blocking
  ``time.sleep`` inside ``handle`` would stall the whole loop, so
  servers with their own ``latency_s`` are rejected at construction.
  Tier latency models network service time for benchmarks — concurrent
  connections (one per crawl lane) overlap their waits.

A frame that does not decode as a request is answered with a 500 and
the connection is closed (the stream can no longer be trusted); a
length prefix past :data:`~repro.net.transport.MAX_FRAME_BYTES` closes
it without an answer.

The tier runs in the same process as the crawler, so checkpoint
journaling keeps working: the coordinator snapshots server state
through its direct object references, while request traffic flows over
the sockets.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.net.http import Response
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    SocketTransport,
    decode_request,
    response_to_wire,
)

__all__ = ["ServingTier", "FrameProtocol"]

#: Wall seconds to wait for the tier's loop/listeners to come up or down.
_STARTUP_TIMEOUT = 10.0

#: The answer to a frame that does not decode as a request.
_GARBLED_ANSWER = response_to_wire(Response(status=500))


class FrameProtocol(asyncio.Protocol):
    """One market connection: frames in, answers out, in arrival order.

    The connection is *held* while a tier latency wait or a full write
    buffer is pending; a held connection stops reading and answers no
    further frame until it is released, so answers keep request order.
    """

    def __init__(self, tier: "ServingTier", market_id: str):
        self._tier = tier
        self._market_id = market_id
        self._server = tier._servers[market_id]
        self._latency_s = tier._latency_s
        self._buffer = bytearray()
        self._transport: Optional[asyncio.Transport] = None
        self._holds = 0
        self._timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._tier.connections_accepted[self._market_id] += 1

    def connection_lost(self, exc) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def pause_writing(self) -> None:
        self._hold()

    def resume_writing(self) -> None:
        self._release()

    def _serve(self) -> None:
        """Answer every complete frame in the buffer while not held."""
        buffer = self._buffer
        while not self._holds and len(buffer) >= FRAME_HEADER_BYTES:
            end = FRAME_HEADER_BYTES + int.from_bytes(buffer[:FRAME_HEADER_BYTES], "big")
            if end - FRAME_HEADER_BYTES > MAX_FRAME_BYTES:
                # A corrupt or misaligned length prefix: nothing after
                # it can be framed, and there is no request to answer.
                self._transport.close()
                return
            if len(buffer) < end:
                return
            payload = bytes(buffer[FRAME_HEADER_BYTES:end])
            del buffer[:end]
            try:
                request = decode_request(payload)
            except Exception:
                # A garbled frame poisons the stream; answer a 500 so
                # the client's retry path reconnects, then drop the
                # connection (close() flushes the answer first).
                self._transport.write(_GARBLED_ANSWER)
                self._transport.close()
                return
            if self._latency_s:
                self._hold()
                self._timer = asyncio.get_running_loop().call_later(
                    self._latency_s, self._answer_held, request
                )
                return
            self._answer(request)

    def _answer(self, request) -> None:
        response = self._server.handle(request)
        self._tier.frames_served[self._market_id] += 1
        self._transport.write(response_to_wire(response))

    def _answer_held(self, request) -> None:
        self._timer = None
        try:
            self._answer(request)
        except BaseException:
            self._transport.abort()
            raise
        self._release()

    def _hold(self) -> None:
        if not self._holds:
            self._transport.pause_reading()
        self._holds += 1

    def _release(self) -> None:
        self._holds -= 1
        if not self._holds:
            self._transport.resume_reading()
            self._serve()


class ServingTier:
    """Serves a fleet of market servers over local TCP sockets."""

    def __init__(
        self,
        servers: Mapping[str, object],
        host: str = "127.0.0.1",
        latency_s: float = 0.0,
        timeout: float = 30.0,
    ):
        """``latency_s`` is injected per request *asynchronously* (the
        loop keeps serving other connections during the wait);
        ``timeout`` is the default wall budget handed to transports
        built by :meth:`transport`."""
        if latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {latency_s}")
        for market_id, server in servers.items():
            if getattr(server, "_latency_s", 0.0):
                raise ValueError(
                    f"server {market_id!r} has blocking latency_s set; "
                    "pass latency to the ServingTier instead (the tier "
                    "injects it without stalling the event loop)"
                )
        self._servers = dict(servers)
        self._host = host
        self._latency_s = latency_s
        self._timeout = timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listeners: Dict[str, asyncio.base_events.Server] = {}
        self._ports: Dict[str, int] = {}
        self.frames_served: Dict[str, int] = {m: 0 for m in self._servers}
        self.connections_accepted: Dict[str, int] = {m: 0 for m in self._servers}

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._loop is not None

    def start(self) -> "ServingTier":
        """Bind every market's listener; idempotent."""
        if self.running:
            return self
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            started.set()
            loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="serving-tier", daemon=True
        )
        self._thread.start()
        started.wait(_STARTUP_TIMEOUT)
        self._loop = loop
        future = asyncio.run_coroutine_threadsafe(self._bind_all(), loop)
        try:
            self._ports = future.result(_STARTUP_TIMEOUT)
        except Exception:
            self.stop()
            raise
        return self

    async def _bind_all(self) -> Dict[str, int]:
        loop = asyncio.get_running_loop()
        ports: Dict[str, int] = {}
        for market_id in self._servers:
            listener = await loop.create_server(
                lambda market_id=market_id: FrameProtocol(self, market_id),
                self._host, 0,
            )
            self._listeners[market_id] = listener
            ports[market_id] = listener.sockets[0].getsockname()[1]
        return ports

    def stop(self) -> None:
        """Close every listener and stop the loop; idempotent."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._unbind_all(), loop)
        try:
            future.result(_STARTUP_TIMEOUT)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(_STARTUP_TIMEOUT)
                self._thread = None
            loop.close()
            self._listeners = {}
            self._ports = {}

    async def _unbind_all(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        for listener in self._listeners.values():
            await listener.wait_closed()

    def __enter__(self) -> "ServingTier":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- addresses & transports --------------------------------------------

    @property
    def market_ids(self) -> Iterator[str]:
        return iter(self._servers)

    def address(self, market_id: str) -> Tuple[str, int]:
        """The ``(host, port)`` one market's listener is bound to."""
        if not self.running:
            raise RuntimeError("serving tier is not running")
        return (self._host, self._ports[market_id])

    def transport(self, market_id: str) -> SocketTransport:
        """A fresh blocking transport to one market (one crawl lane)."""
        host, port = self.address(market_id)
        return SocketTransport(host, port, timeout=self._timeout)

    def transports(self) -> Dict[str, SocketTransport]:
        """Fresh blocking transports for every market, in lane order."""
        return {m: self.transport(m) for m in self._servers}

    @property
    def total_frames_served(self) -> int:
        return sum(self.frames_served.values())
