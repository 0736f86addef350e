"""Asyncio crawl client: a second driver for the sans-IO decision loop.

``AsyncHttpClient`` decides nothing itself: every retry, back-off,
re-login, ban-rotation, breaker, and accounting decision comes from the
generator it shares with the sync client
(:meth:`~repro.net.client.ClientCore._exchange`), so a campaign driven
through either lands on the same snapshot digest.  The driver owns only
what asyncio forces:

* I/O — each yielded request is awaited on ``transport.send``, usually
  an :class:`~repro.net.transport.AsyncSocketTransport` pool or an
  :class:`~repro.net.transport.AsyncInProcessTransport` wrapper;
* the lock type — auth single-flight holds an :class:`asyncio.Lock`,
  never the credential manager's threading lock, which would block the
  loop thread every lane shares;
* cancellation — a request torn down mid-flight counts in
  ``stats.cancelled`` and re-raises; it is not a retry or a failure.

Observability is shared with the sync client: both enter
:meth:`~repro.net.client.ClientCore._traced`, so the asyncio engine
emits the same ``http.request`` spans and histograms.  The tracer's
span stack is a ``contextvars`` variable and every asyncio task runs in
its own copy of its creator's context, so interleaved coroutines nest
under their own lane's span (the lane thread's context reaches the loop
through ``run_coroutine_threadsafe``).

The async driver adds **intra-lane pipelining**: :meth:`get_json_many`
/ :meth:`get_bytes_many` keep up to ``depth`` requests in flight and
return results in submission order (exceptions in place).  That keeps
the digest oracle only on *polite* traffic — fault injection, quotas,
and hostility screening key on server-side request ordinals, which
concurrent requests reorder — so the coordinator enforces depth 1 for
journaled, hostile, and quota-bound work (:mod:`repro.crawler.crawler`).
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.net.client import ClientCore, TokenNeeded
from repro.net.http import Response

__all__ = ["AsyncHttpClient", "DEFAULT_PIPELINE_DEPTH"]

#: In-flight requests per lane a bulk call allows by default.
DEFAULT_PIPELINE_DEPTH = 8


class AsyncHttpClient(ClientCore):
    """The retrying crawl client, asyncio edition.

    ``transport`` is an object with ``async send(Request) -> Response``;
    the remaining parameters are
    :class:`~repro.net.client.ClientCore`'s, as for the sync client.
    """

    def __init__(self, transport, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._transport = transport
        self._auth_lock = asyncio.Lock()

    async def request(self, path: str, params: Optional[Mapping[str, Any]] = None) -> Response:
        """Issue one logical request; raises as the sync client does.

        ``asyncio.CancelledError`` additionally lands in
        ``stats.cancelled`` before re-raising — cancellation is caller
        intent, not transport trouble, and must not inflate the retry
        or failure accounting.
        """
        try:
            if self.obs is None:
                return await self._request(path, params)
            with self._traced(path):
                return await self._request(path, params)
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise

    async def _request(self, path: str, params: Optional[Mapping[str, Any]]) -> Response:
        """Drive the decision loop over the transport."""
        steps = self._exchange(path, params)
        reply = None
        while True:
            try:
                step = steps.send(reply)
            except StopIteration as done:
                return done.value
            if step.__class__ is TokenNeeded:
                reply = await self._token(step.now)
            else:
                reply = await self._transport.send(step)

    async def _token(self, now: float) -> str:
        """A session token valid at ``now``, logging in single-flight.

        Concurrent pipelined requests on an expired token elect one
        login; the rest await the lock and reuse the installed token.
        """
        async with self._auth_lock:
            token = self.credentials.token_if_valid(now)
            if token is None:
                token = self._install_token(await self._request(self._auth_path, None))
            return token

    async def get_json(self, path: str, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Request and return the payload (binary wire decoded)."""
        return self._payload(await self.request(path, params))

    async def get_bytes(self, path: str, params: Optional[Mapping[str, Any]] = None) -> bytes:
        """Request and return the binary body."""
        return self._body(path, await self.request(path, params))

    # -- pipelining --------------------------------------------------------

    async def _gather(
        self,
        items: Sequence[Tuple[str, Optional[Mapping[str, Any]]]],
        depth: int,
        fetch,
    ) -> List[Any]:
        semaphore = asyncio.Semaphore(max(1, depth))

        async def one(path: str, params) -> Any:
            async with semaphore:
                return await fetch(path, params)

        return await asyncio.gather(
            *(one(path, params) for path, params in items),
            return_exceptions=True,
        )

    async def get_json_many(
        self,
        items: Sequence[Tuple[str, Optional[Mapping[str, Any]]]],
        depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> List[Any]:
        """Pipelined :meth:`get_json` over ``(path, params)`` items.

        Results come back in submission order; a failed item carries
        its exception in place of a payload, so callers classify per
        item exactly as they would around a sequential loop.
        """
        return await self._gather(items, depth, self.get_json)

    async def get_bytes_many(
        self,
        items: Sequence[Tuple[str, Optional[Mapping[str, Any]]]],
        depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> List[Any]:
        """Pipelined :meth:`get_bytes`; same contract as ``get_json_many``."""
        return await self._gather(items, depth, self.get_bytes)
