"""The asyncio serving tier: one socket listener per market.

The paper's 17 markets were real web services; this module is the
closest the simulation gets.  A :class:`ServingTier` runs a private
asyncio event loop on a background thread and binds one TCP listener
(127.0.0.1, ephemeral port) per :class:`~repro.markets.server.MarketServer`.
Connections speak the :mod:`repro.net.transport` frame protocol: a
length-prefixed RW01 request map in, a length-prefixed RW01 response
map out, any number of exchanges per connection.

Determinism is preserved by construction:

* ``server.handle`` is synchronous and every frame is dispatched on
  the single loop thread, so one market's request ordinals — and
  therefore its fault injection, quota consumption, and hostility
  screening — form one serialized stream exactly as in-process calls
  do.  (Lanes still serialize their *own* requests; the loop serializes
  across connections.)
* Latency injection is owned by the tier (``await asyncio.sleep``
  *before* dispatch), never by the wrapped server: a blocking
  ``time.sleep`` inside ``handle`` would stall the whole loop, so
  servers with their own ``latency_s`` are rejected at construction.
  Tier latency models network service time for benchmarks — concurrent
  connections (one per crawl lane) overlap their waits.

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
    SocketTransport,
    decode_request,
    encode_response,
    pack_frame,
    read_frame,
)

__all__ = ["ServingTier"]

#: Wall seconds to wait for the tier's loop/listeners to come up or down.
_STARTUP_TIMEOUT = 10.0


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
        ports: Dict[str, int] = {}
        for market_id in self._servers:
            listener = await asyncio.start_server(
                self._connection_handler(market_id), self._host, 0
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

    # -- connections -------------------------------------------------------

    def _connection_handler(self, market_id: str):
        server = self._servers[market_id]

        async def handle_connection(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            self.connections_accepted[market_id] += 1
            try:
                while True:
                    try:
                        payload = await read_frame(reader)
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return  # client went away between frames
                    try:
                        request = decode_request(payload)
                    except Exception:
                        # A garbled frame poisons the stream; answer a
                        # 500 so the client's retry path reconnects,
                        # then drop the connection.
                        writer.write(pack_frame(encode_response(
                            Response(status=500)
                        )))
                        await writer.drain()
                        return
                    if self._latency_s:
                        await asyncio.sleep(self._latency_s)
                    response = server.handle(request)
                    self.frames_served[market_id] += 1
                    writer.write(pack_frame(encode_response(response)))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass  # mid-write drop: nothing left to tell the peer
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):  # pragma: no cover
                    pass

        return handle_connection

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
