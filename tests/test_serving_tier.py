"""The asyncio serving tier: lifecycle, framing, and counters."""

import socket
import threading
import time

import pytest

from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.http import Request
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    _recv_exactly,
    decode_response,
    frame_length,
    request_to_wire,
)
from repro.serving import ServingTier
from repro.serving.tier import FrameProtocol
from repro.util.simtime import SimClock


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.generator import EcosystemGenerator

    return EcosystemGenerator(seed=11, scale=0.0002).generate()


@pytest.fixture()
def servers(world):
    clock = SimClock()
    return {m: MarketServer(s, clock) for m, s in build_stores(world).items()}


class TestLifecycle:
    def test_start_stop_idempotent(self, servers):
        tier = ServingTier(servers)
        assert not tier.running
        tier.start()
        tier.start()  # second start is a no-op
        assert tier.running
        ports = {m: tier.address(m)[1] for m in servers}
        assert len(set(ports.values())) == len(servers)  # one listener each
        tier.stop()
        tier.stop()
        assert not tier.running
        with pytest.raises(RuntimeError):
            tier.address("google_play")

    def test_context_manager(self, servers):
        with ServingTier(servers) as tier:
            assert tier.running
        assert not tier.running

    def test_rejects_blocking_server_latency(self, servers):
        # A server that time.sleep()s inside handle would stall the
        # whole loop; the tier owns latency injection instead.
        market_id = next(iter(servers))
        servers[market_id]._latency_s = 0.01
        with pytest.raises(ValueError, match="latency"):
            ServingTier(servers)

    def test_rejects_negative_latency(self, servers):
        with pytest.raises(ValueError):
            ServingTier(servers, latency_s=-1.0)


class TestExchanges:
    def test_sequential_exchanges_on_one_connection(self, servers):
        with ServingTier(servers) as tier:
            transport = tier.transport("google_play")
            try:
                listing = next(iter(
                    servers["google_play"].store.iter_live(0.0)
                ))
                headers = {"x-sim-time": "0.0"}
                for _ in range(3):
                    resp = transport(Request(
                        "/app", {"package": listing.package}, headers
                    ))
                    assert resp.ok
                assert tier.frames_served["google_play"] == 3
                assert tier.connections_accepted["google_play"] == 1
            finally:
                transport.close()

    def test_concurrent_connections(self, servers):
        market_id = "google_play"
        listing = next(iter(servers[market_id].store.iter_live(0.0)))
        latency_s = 0.25
        with ServingTier(servers, latency_s=latency_s) as tier:
            results = []
            def worker():
                transport = tier.transport(market_id)
                try:
                    results.append(transport(Request(
                        "/app", {"package": listing.package},
                        {"x-sim-time": "0.0"},
                    )))
                finally:
                    transport.close()
            threads = [threading.Thread(target=worker) for _ in range(8)]
            started = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - started
            assert len(results) == 8
            # The eight latency waits overlap: served one after another
            # they would take 8 * latency_s.
            assert elapsed < 4 * latency_s
            assert all(r.ok for r in results)
            assert tier.connections_accepted[market_id] == 8
            assert tier.total_frames_served == 8

    @pytest.mark.parametrize("latency_s", [0.0, 0.005])
    def test_pipelined_frames_answer_in_order(self, servers, latency_s):
        # Two request frames in one sendall: the tier answers both, in
        # order, also while a latency wait holds the first one.
        market_id = "google_play"
        first, second = list(servers[market_id].store.iter_live(0.0))[:2]
        frames = b"".join(
            request_to_wire(Request("/app", {"package": listing.package},
                                    {"x-sim-time": "0.0"}))
            for listing in (first, second)
        )
        with ServingTier(servers, latency_s=latency_s) as tier:
            with socket.create_connection(tier.address(market_id)) as sock:
                sock.sendall(frames)
                answers = [
                    decode_response(_recv_exactly(
                        sock, frame_length(_recv_exactly(sock, FRAME_HEADER_BYTES))
                    ))
                    for _ in range(2)
                ]
            assert [a.json["package"] for a in answers] == [first.package, second.package]
            assert tier.frames_served[market_id] == 2
            assert tier.connections_accepted[market_id] == 1

    def test_unread_answers_pause_the_connection(self, servers, monkeypatch):
        # A peer that pipelines frames without reading its answers: once
        # the tier's write buffer fills it stops reading, and it answers
        # every frame, in order, as the peer drains them.
        pauses = []
        pause_writing = FrameProtocol.pause_writing

        def counting_pause(protocol):
            pauses.append(protocol)
            pause_writing(protocol)

        monkeypatch.setattr(FrameProtocol, "pause_writing", counting_pause)
        market_id = "google_play"
        listings = list(servers[market_id].store.iter_live(0.0))
        order = [listings[i % len(listings)].package for i in range(20_000)]
        frames = b"".join(
            request_to_wire(Request("/app", {"package": package}, {"x-sim-time": "0.0"}))
            for package in order
        )
        with ServingTier(servers) as tier:
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect(tier.address(market_id))
                sender = threading.Thread(target=sock.sendall, args=(frames,))
                sender.start()
                deadline = time.monotonic() + 10.0
                while not pauses and time.monotonic() < deadline:
                    time.sleep(0.01)
                answers = [
                    decode_response(_recv_exactly(
                        sock, frame_length(_recv_exactly(sock, FRAME_HEADER_BYTES))
                    ))
                    for _ in order
                ]
                sender.join()
        assert pauses
        assert [a.json["package"] for a in answers] == order

    @pytest.mark.parametrize("latency_s", [0.0, 0.005])
    def test_request_the_server_fails_on_drops_the_connection(self, servers, latency_s):
        # ``handle`` raising (a page that is not a number) closes the
        # connection instead of leaving the peer waiting out its
        # timeout, and the listener keeps serving new connections.
        request = Request("/category", {"name": "Game", "page": "x"}, {"x-sim-time": "0.0"})
        with ServingTier(servers, latency_s=latency_s) as tier:
            with socket.create_connection(tier.address("google_play"), timeout=5.0) as sock:
                sock.sendall(request_to_wire(request))
                assert sock.recv(1) == b""
            transport = tier.transport("google_play")
            try:
                assert transport(Request("/categories", {}, {"x-sim-time": "0.0"})).ok
            finally:
                transport.close()

    def test_garbled_frame_gets_500_and_drop(self, servers):
        with ServingTier(servers) as tier:
            host, port = tier.address("google_play")
            with socket.create_connection((host, port)) as sock:
                sock.sendall((4).to_bytes(4, "big") + b"junk")
                header = _recv_exactly(sock, 4)
                resp = decode_response(_recv_exactly(sock, frame_length(header)))
                assert resp.status == 500
                # The connection is dropped after the answer.
                assert sock.recv(1) == b""

    def test_hostile_market_over_socket(self, world):
        from repro.markets.hostility import HostilityPolicy

        clock = SimClock()
        stores = build_stores(world)
        servers = {
            "tencent": MarketServer(
                stores["tencent"], clock,
                hostility=HostilityPolicy.from_spec("auth"),
            )
        }
        with ServingTier(servers) as tier:
            transport = tier.transport("tencent")
            try:
                listing = next(iter(stores["tencent"].iter_live(0.0)))
                bare = transport(Request(
                    "/app", {"package": listing.package}, {"x-sim-time": "0.0"}
                ))
                assert bare.status == 401  # auth wall crosses the wire
                login = transport(Request("/login", {}, {"x-sim-time": "0.0"}))
                assert login.ok
            finally:
                transport.close()
