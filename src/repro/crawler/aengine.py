"""The asyncio crawl engine: lanes as coroutines on one shared loop.

:class:`AsyncCrawlEngine` keeps the thread engine's whole contract —
one lane per market, lane clocks, token-bucket pacing, breakers,
checkpoint plumbing, canonical-order merge — and swaps the I/O layer:
every lane's client is an :class:`~repro.net.aclient.AsyncHttpClient`
whose requests run as coroutines on a single background event loop
(:class:`EventLoopThread`).

The coordinator's task bodies stay synchronous (they interleave
requests with parsing, journaling, and snapshot ingestion), so each
lane still gets a thread — but the thread does no socket work; it
blocks on futures while the loop multiplexes *all* lanes' sockets.
Two consequences:

* ``run`` fans tasks out at full width (one waiting thread per lane)
  regardless of ``workers`` — the real concurrency knob for this
  engine is socket-level, not thread-level.
* A lane can hold several requests in flight at once through the
  client's bulk ops (``get_json_many`` / ``get_bytes_many``), which is
  the throughput win the thread engine structurally cannot have: its
  lanes are one-request-in-flight by design.

:class:`BlockingLaneClient` is the sync facade the coordinator sees —
``HttpClient``-shaped methods that submit coroutines to the loop and
wait.  Stats, the send ordinal, breaker, credentials, and identities
delegate to the wrapped async client, so campaign binding and journal
export work unchanged.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.crawler.engine import CrawlEngine
from repro.net.aclient import DEFAULT_PIPELINE_DEPTH, AsyncHttpClient
from repro.net.client import ClientStats
from repro.net.http import Response
from repro.net.transport import AsyncInProcessTransport

__all__ = ["AsyncCrawlEngine", "BlockingLaneClient", "EventLoopThread"]

#: Wall seconds to wait for the loop thread to come up or down.
_LOOP_TIMEOUT = 10.0


class EventLoopThread:
    """A private asyncio event loop on a daemon thread.

    The engine's lanes all submit their coroutines here; the single
    loop thread is what serializes client bookkeeping (stats, breaker,
    credential single-flight) without locks.
    """

    def __init__(self, name: str = "crawl-aengine"):
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread: Optional[threading.Thread] = threading.Thread(
            target=run, name=name, daemon=True
        )
        self._thread.start()
        started.wait(_LOOP_TIMEOUT)

    @property
    def running(self) -> bool:
        return self._thread is not None

    def submit(self, coro):
        """Schedule a coroutine; returns a concurrent future."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def call(self, coro):
        """Schedule a coroutine and block for its result."""
        return self.submit(coro).result()

    def close(self) -> None:
        """Stop and close the loop; idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        thread.join(_LOOP_TIMEOUT)
        self._loop.close()


class BlockingLaneClient:
    """Sync facade over an :class:`AsyncHttpClient` on a shared loop.

    Implements the surface the coordinator and the engine's campaign
    bookkeeping actually use — ``request``/``get_json``/``get_bytes``
    plus the pipelined bulk ops — by submitting coroutines to the
    engine's loop thread and waiting.  Everything stateful (``stats``,
    ``sent``, ``breaker``, ``credentials``, ``identities``, ``obs``)
    delegates to the wrapped client so binding, journaling, and
    telemetry see one source of truth.
    """

    def __init__(
        self,
        aclient: AsyncHttpClient,
        loop_thread: EventLoopThread,
        pipeline: int = 1,
    ):
        self._aclient = aclient
        self._loop_thread = loop_thread
        #: Default in-flight depth for the bulk ops (the engine's
        #: ``pipeline`` knob).
        self.pipeline = max(1, pipeline)

    # -- delegated state ---------------------------------------------------

    @property
    def stats(self) -> ClientStats:
        return self._aclient.stats

    @stats.setter
    def stats(self, value: ClientStats) -> None:
        self._aclient.stats = value

    @property
    def sent(self) -> int:
        return self._aclient.sent

    @sent.setter
    def sent(self, value: int) -> None:
        self._aclient.sent = value

    @property
    def breaker(self):
        return self._aclient.breaker

    @property
    def credentials(self):
        return self._aclient.credentials

    @property
    def identities(self):
        return self._aclient.identities

    @property
    def obs(self):
        return self._aclient.obs

    # -- blocking request surface ------------------------------------------

    def request(
        self, path: str, params: Optional[Mapping[str, Any]] = None
    ) -> Response:
        return self._loop_thread.call(self._aclient.request(path, params))

    def get_json(
        self, path: str, params: Optional[Mapping[str, Any]] = None
    ) -> Any:
        return self._loop_thread.call(self._aclient.get_json(path, params))

    def get_bytes(
        self, path: str, params: Optional[Mapping[str, Any]] = None
    ) -> bytes:
        return self._loop_thread.call(self._aclient.get_bytes(path, params))

    def get_json_many(
        self,
        items: Sequence[Tuple[str, Optional[Mapping[str, Any]]]],
        depth: Optional[int] = None,
    ) -> List[Any]:
        """Pipelined fetch; results (or exceptions) in submission order."""
        return self._loop_thread.call(
            self._aclient.get_json_many(items, depth or self.pipeline)
        )

    def get_bytes_many(
        self,
        items: Sequence[Tuple[str, Optional[Mapping[str, Any]]]],
        depth: Optional[int] = None,
    ) -> List[Any]:
        return self._loop_thread.call(
            self._aclient.get_bytes_many(items, depth or self.pipeline)
        )


class AsyncCrawlEngine(CrawlEngine):
    """The crawl engine over asyncio transports.

    Accepts the thread engine's constructor plus ``pipeline``: the
    in-flight request depth each lane's bulk operations may use.
    Depth 1 reproduces the thread engine's strictly sequential lane
    discipline (and its digests) while still multiplexing all lanes'
    sockets on one loop; deeper pipelines trade server-ordinal
    determinism for throughput, so the coordinator only enables them
    on polite, unjournaled traffic.

    Sync transports (a server's ``handle``, any ``Request -> Response``
    callable) are wrapped in
    :class:`~repro.net.transport.AsyncInProcessTransport`; objects with
    an async ``send`` (e.g. :meth:`ServingTier.async_transports`
    pools) are used as-is.
    """

    def __init__(self, *args, pipeline: int = 1, **kwargs):
        if pipeline < 1:
            raise ValueError(f"pipeline must be positive, got {pipeline}")
        self.pipeline = pipeline
        self._loop_thread = EventLoopThread()
        try:
            super().__init__(*args, **kwargs)
        except BaseException:
            self._loop_thread.close()
            raise

    # -- CrawlEngine hooks -------------------------------------------------

    def _lane_transport(self, market_id: str, server) -> object:
        transport = self._transports.get(market_id)
        if transport is None:
            return AsyncInProcessTransport(server.handle)
        if hasattr(transport, "send"):
            return transport
        return AsyncInProcessTransport(transport)

    def _client_factory(self) -> Callable[..., BlockingLaneClient]:
        loop_thread = self._loop_thread
        pipeline = self.pipeline

        def factory(transport, clock, **kwargs) -> BlockingLaneClient:
            return BlockingLaneClient(
                AsyncHttpClient(transport, clock, **kwargs),
                loop_thread,
                pipeline=pipeline,
            )

        return factory

    # -- scheduling --------------------------------------------------------

    def _width(self, tasks: int) -> int:
        """Every lane live at once.

        Lane threads only wait on loop futures, so width is the task
        count, not ``workers`` — capping threads here would idle
        sockets for no memory win.
        """
        return tasks

    def close(self) -> None:
        """Close pooled connections, then stop the loop; idempotent."""
        transports, self._transports = self._transports, {}
        if not self._loop_thread.running:
            return
        for transport in transports.values():
            aclose = getattr(transport, "aclose", None)
            if aclose is not None:
                self._loop_thread.call(aclose())
        self._loop_thread.close()
