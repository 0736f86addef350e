"""The asyncio crawl client's driver-only behaviors: cancellation
classing, pipelining, and auth single-flight on the event loop.  The
shared retry/countermeasure scenarios run through both drivers in
``tests/test_net_client.py``."""

import asyncio

import pytest

from repro.net.aclient import AsyncHttpClient
from repro.net.http import NotFoundError, Request, Response
from repro.net.transport import AsyncInProcessTransport
from repro.util.simtime import SimClock


def run(coro):
    return asyncio.run(coro)


class TestCancellation:
    def test_cancelled_is_classified_not_retried(self):
        clock = SimClock()

        class HangingTransport:
            async def send(self, request):
                await asyncio.sleep(3600)

        client = AsyncHttpClient(HangingTransport(), clock)

        async def go():
            task = asyncio.ensure_future(client.request("/x"))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        run(go())
        assert client.stats.cancelled == 1
        assert client.stats.retries == 0
        assert client.stats.failures == 0
        assert client.stats.timeouts == 0


class TestAuthSingleFlight:
    def test_concurrent_requests_elect_one_login(self):
        from repro.net.credentials import CredentialManager

        logins = {"count": 0}

        def handle(request: Request) -> Response:
            if request.path == "/login":
                logins["count"] += 1
                return Response.json_ok({"token": "tok", "ttl": 10.0})
            assert request.header("authorization") == "tok"
            return Response.json_ok("data")

        client = AsyncHttpClient(
            AsyncInProcessTransport(handle),
            SimClock(),
            credentials=CredentialManager("tencent"),
        )

        async def go():
            return await asyncio.gather(
                *(client.get_json("/app", {"i": i}) for i in range(8))
            )

        results = run(go())
        assert results == ["data"] * 8
        assert logins["count"] == 1  # single-flight
        assert client.stats.logins == 1


class TestPipelining:
    def test_results_in_submission_order(self):
        def handle(request: Request) -> Response:
            return Response.json_ok(request.param("i"))

        client = AsyncHttpClient(AsyncInProcessTransport(handle), SimClock())
        items = [("/app", {"i": i}) for i in range(20)]
        results = run(client.get_json_many(items, depth=4))
        assert results == list(range(20))

    def test_exceptions_in_place(self):
        def handle(request: Request) -> Response:
            if request.param("i") == 2:
                return Response.not_found()
            return Response.json_ok(request.param("i"))

        client = AsyncHttpClient(AsyncInProcessTransport(handle), SimClock())
        items = [("/app", {"i": i}) for i in range(4)]
        results = run(client.get_json_many(items))
        assert results[0] == 0 and results[1] == 1 and results[3] == 3
        assert isinstance(results[2], NotFoundError)

    def test_depth_bounds_in_flight(self):
        peak = {"now": 0, "max": 0}

        class CountingTransport:
            async def send(self, request):
                peak["now"] += 1
                peak["max"] = max(peak["max"], peak["now"])
                await asyncio.sleep(0.001)
                peak["now"] -= 1
                return Response.json_ok("ok")

        client = AsyncHttpClient(CountingTransport(), SimClock())
        items = [("/app", {"i": i}) for i in range(16)]
        run(client.get_json_many(items, depth=3))
        assert peak["max"] <= 3
