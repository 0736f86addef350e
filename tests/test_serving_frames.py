"""The frame path's budgets and its behaviour on hostile frames.

Two host-independent counts hold the socket crawl's round-trip cost:
event-loop turns per frame on the serving tier, and Python-level codec
calls per exchange.  The property tests feed the tier's protocol and
the client's ``SocketTransport`` truncated, oversized and bit-flipped
frames: each must end as an answer, a 500 followed by a close, a
dropped connection (``Response.timeout()``) or ``Response.garbled()``,
and a fresh connection must still be served afterwards.
"""

import asyncio
import socket
import sys
import threading
from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.http import Request, Response
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    SocketTransport,
    _recv_exactly,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame_length,
    request_to_wire,
    response_to_wire,
)
from repro.serving import ServingTier
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=11, scale=0.0002).generate()


def make_servers(world):
    clock = SimClock()
    return {m: MarketServer(s, clock) for m, s in build_stores(world).items()}


@pytest.fixture(scope="module")
def exchanges(world):
    """``(market, request, response)`` of a metadata-only crawl, in order."""
    servers = make_servers(world)
    seeds = [
        listing.package
        for listing in servers["google_play"].store.iter_live(0.0)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    recorded = []

    def recorder(market_id, server):
        def send(request):
            response = server.handle(request)
            recorded.append((market_id, request, response))
            return response
        return send

    coordinator = CrawlCoordinator(
        servers, SimClock(), gp_seeds=seeds, download_apks=False,
        transports={m: recorder(m, s) for m, s in servers.items()},
    )
    try:
        coordinator.crawl("frames", duration_days=15.0)
    finally:
        coordinator.close()
    assert {r.path for _, r, _ in recorded} >= {"/search", "/app", "/related", "/category"}
    return recorded


def python_calls(fn, arg):
    """``fn(arg)`` and the number of Python-level calls it made (itself
    included)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(arg)
    finally:
        sys.setprofile(None)
    return result, calls


class TestFrameBudget:
    """Each frame costs one event-loop turn on the tier and one codec
    pass on each side (counts, so host noise cannot blur them)."""

    FRAMES = 300
    #: Codec calls per exchange: a request encoded and decoded plus a
    #: response encoded and decoded.  A codec making one call per scalar
    #: made 141 on this traffic; one call per container makes 32.
    CODEC_CALLS_PER_EXCHANGE = 45

    def test_one_loop_turn_per_frame(self, world, exchanges, monkeypatch):
        market_id = "google_play"
        requests = [r for m, r, _ in exchanges if m == market_id][:self.FRAMES]
        assert len(requests) == self.FRAMES
        turns = Counter()
        run_once = asyncio.base_events.BaseEventLoop._run_once

        def counting_run_once(loop):
            turns[loop] += 1
            return run_once(loop)

        monkeypatch.setattr(asyncio.base_events.BaseEventLoop, "_run_once", counting_run_once)
        servers = make_servers(world)
        server = servers[market_id]
        # The turn each frame was answered in, read on the loop thread
        # inside that turn, so no cross-thread read can race it.
        answered_in = []
        handle = server.handle

        def counting_handle(request):
            answered_in.append(turns[asyncio.get_running_loop()])
            return handle(request)

        server.handle = counting_handle
        with ServingTier(servers) as tier:
            transport = tier.transport(market_id)
            try:
                for request in requests:
                    assert transport(request).status != 599
            finally:
                transport.close()
        assert len(answered_in) == self.FRAMES
        per_frame = (answered_in[-1] - answered_in[0]) / (self.FRAMES - 1)
        assert per_frame <= 1.0

    def test_codec_calls_per_exchange(self, exchanges):
        sample = exchanges[::10]
        calls = 0
        for _, request, response in sample:
            frame, n = python_calls(encode_request, request)
            calls += n
            _, n = python_calls(decode_request, frame)
            calls += n
            frame, n = python_calls(encode_response, response)
            calls += n
            _, n = python_calls(decode_response, frame)
            calls += n
        assert calls / len(sample) <= self.CODEC_CALLS_PER_EXCHANGE


def mutate(data, frame: bytes) -> bytes:
    """``frame`` truncated, given an oversized length prefix, or bit-flipped."""
    kind = data.draw(st.sampled_from(["truncated", "oversized", "flipped"]))
    if kind == "truncated":
        return frame[:data.draw(st.integers(0, len(frame) - 1))]
    if kind == "oversized":
        length = data.draw(st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
        return length.to_bytes(FRAME_HEADER_BYTES, "big") + frame[FRAME_HEADER_BYTES:]
    flipped = bytearray(frame)
    bits = data.draw(st.lists(st.integers(0, len(frame) * 8 - 1), min_size=1, max_size=4))
    for bit in bits:
        flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def tier_answers(stream: bytes):
    """What the tier must answer to ``stream`` followed by end of input:
    ``"answer"`` per request frame, then ``"500"`` if a complete frame
    does not decode as a request; the connection closes after."""
    expected = []
    pos = 0
    while len(stream) - pos >= FRAME_HEADER_BYTES:
        length = int.from_bytes(stream[pos:pos + FRAME_HEADER_BYTES], "big")
        end = pos + FRAME_HEADER_BYTES + length
        if length > MAX_FRAME_BYTES or end > len(stream):
            break
        try:
            decode_request(stream[pos + FRAME_HEADER_BYTES:end])
        except Exception:
            expected.append("500")
            break
        expected.append("answer")
        pos = end
    return expected


def read_until_closed(sock: socket.socket):
    """Every response frame the peer sends before closing."""
    answers = []
    while True:
        try:
            header = _recv_exactly(sock, FRAME_HEADER_BYTES)
        except ConnectionError:
            return answers
        answers.append(decode_response(_recv_exactly(sock, frame_length(header))))


class TestTierHostileFrames:
    @pytest.fixture(scope="class")
    def tier(self, world):
        with ServingTier(make_servers(world), timeout=5.0) as tier:
            yield tier

    @pytest.fixture(scope="class")
    def good_request(self, world):
        listing = next(iter(build_stores(world)["google_play"].iter_live(0.0)))
        return Request("/app", {"package": listing.package}, {"x-sim-time": "0.0"})

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_hostile_request_frames(self, tier, good_request, data):
        stream = mutate(data, request_to_wire(good_request))
        with socket.create_connection(tier.address("google_play"), timeout=5.0) as sock:
            sock.sendall(stream)
            sock.shutdown(socket.SHUT_WR)
            answers = read_until_closed(sock)
        expected = tier_answers(stream)
        assert len(answers) == len(expected)
        for answer, kind in zip(answers, expected):
            assert (answer.status == 500) == (kind == "500")
        # The listener still serves a fresh connection.
        transport = tier.transport("google_play")
        try:
            assert transport(good_request).ok
        finally:
            transport.close()


class _ScriptedPeer:
    """A raw TCP peer answering each request frame with the next scripted
    reply; a reply marked ``close`` ends its connection after sending."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self.replies = deque()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            with conn:
                try:
                    while True:
                        header = _recv_exactly(conn, FRAME_HEADER_BYTES)
                        _recv_exactly(conn, frame_length(header))
                        reply, close = self.replies.popleft()
                        conn.sendall(reply)
                        if close:
                            break
                except (OSError, ConnectionError):
                    pass  # the client dropped the connection

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(5.0)


@pytest.fixture(scope="module")
def peer():
    peer = _ScriptedPeer()
    yield peer
    peer.close()


class TestSocketTransportHostileFrames:
    REQUEST = Request("/app", {"package": "com.example"}, {"x-sim-time": "0.0"})
    GOOD = Response.json_ok({"package": "com.example", "rating": 4.5, "install_range": [10, 100]})

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_hostile_response_frames(self, peer, data):
        reply = mutate(data, response_to_wire(self.GOOD))
        # What the transport reads: the first frame, when it is complete.
        length = int.from_bytes(reply[:FRAME_HEADER_BYTES], "big")
        complete = (
            len(reply) >= FRAME_HEADER_BYTES
            and length <= MAX_FRAME_BYTES
            and FRAME_HEADER_BYTES + length <= len(reply)
        )
        expected = None
        if complete:
            try:
                expected = decode_response(reply[FRAME_HEADER_BYTES:FRAME_HEADER_BYTES + length])
            except ConnectionError:
                pass
        # A reply that is exactly one decodable frame keeps the
        # connection open, as the tier would; anything else ends it.
        exact = expected is not None and FRAME_HEADER_BYTES + length == len(reply)
        peer.replies.clear()
        peer.replies.append((reply, not exact))
        peer.replies.append((response_to_wire(self.GOOD), False))
        transport = SocketTransport("127.0.0.1", peer.port, timeout=5.0)
        try:
            got = transport(self.REQUEST)
            if expected is not None:
                assert got == expected
                if not exact:
                    # The peer hung up behind a decodable frame: the
                    # stale connection times out once, then is replaced.
                    assert transport(self.REQUEST) == Response.timeout()
            elif complete:
                assert got == Response.garbled()
            else:
                assert got == Response.timeout()
            # The next exchange is served, on a fresh connection after
            # a failure.
            assert transport(self.REQUEST) == self.GOOD
        finally:
            transport.close()
