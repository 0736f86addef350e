"""The asyncio serving tier: lifecycle, framing, and counters."""

import socket
import threading

import pytest

from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.http import Request, Response
from repro.serving import ServingTier
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
        with ServingTier(servers, latency_s=0.005) as tier:
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
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 8
            assert all(r.ok for r in results)
            assert tier.connections_accepted[market_id] == 8
            assert tier.total_frames_served == 8

    def test_garbled_frame_gets_500_and_drop(self, servers):
        with ServingTier(servers) as tier:
            host, port = tier.address("google_play")
            with socket.create_connection((host, port)) as sock:
                sock.sendall((4).to_bytes(4, "big") + b"junk")
                from repro.net.transport import _recv_exactly, frame_length
                from repro.net.transport import decode_response

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
