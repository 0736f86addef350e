"""Failure-injection tests: the crawl must survive flaky servers."""

import pytest

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.client import HttpClient
from repro.net.faults import FaultPlan
from repro.net.http import Request, ServerError
from repro.util.simtime import SimClock


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=81, scale=0.0002).generate()


class TestFlakyServer:
    def test_flakiness_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_500=1.5)

    def test_failures_injected_deterministically(self, world):
        clock = SimClock()
        stores = build_stores(world)
        server = MarketServer(stores["tencent"], clock,
                              faults=FaultPlan(transient_500=0.2))
        statuses = [
            server.handle(Request("/categories")).status for _ in range(200)
        ]
        assert statuses.count(500) == server.faults.injected_500
        assert 15 < statuses.count(500) < 70  # ~20%

        # Same construction, same failure positions.
        server2 = MarketServer(build_stores(world)["tencent"], SimClock(),
                               faults=FaultPlan(transient_500=0.2))
        statuses2 = [
            server2.handle(Request("/categories")).status for _ in range(200)
        ]
        assert statuses == statuses2

    def test_client_retries_through_flakiness(self, world):
        clock = SimClock()
        server = MarketServer(build_stores(world)["tencent"], clock,
                              faults=FaultPlan(transient_500=0.2))
        client = HttpClient(server.handle, clock)
        # Every request eventually succeeds despite 20% transient 500s.
        for _ in range(50):
            assert client.get_json("/categories")
        assert client.stats.retries > 0

    def test_crawl_completes_with_flaky_markets(self, world):
        from repro.util.rng import stable_hash32

        clock = SimClock()
        stores = build_stores(world)
        servers = {
            m: MarketServer(s, clock, faults=FaultPlan(transient_500=0.05))
            for m, s in stores.items()
        }
        seeds = [
            listing.package
            for listing in stores["google_play"].iter_live(clock.now)
            if stable_hash32("privacygrade", listing.package) % 100 < 74
        ]
        coordinator = CrawlCoordinator(
            servers, clock, gp_seeds=seeds, download_apks=False
        )
        snapshot = coordinator.crawl("flaky", duration_days=1.0)
        # Coverage stays essentially complete; retries absorb the faults.
        for market_id, store in stores.items():
            if len(store) == 0:
                continue
            assert snapshot.market_size(market_id) >= 0.9 * len(store), market_id

def _crawl_snapshot(world, faults, workers=4):
    clock = SimClock()
    stores = build_stores(world)
    servers = {m: MarketServer(s, clock, faults=faults) for m, s in stores.items()}
    coordinator = CrawlCoordinator(servers, clock, download_apks=False, workers=workers)
    return coordinator.crawl("convergence", duration_days=5.0)


class TestFaultModeConvergence:
    """The tentpole acceptance test: under every injected fault mode the
    retry machinery absorbs the damage and ``crawl()`` converges to the
    exact snapshot a clean server would have produced.

    ``max_consecutive`` keeps failure streaks inside the client's retry
    budget, so convergence is guaranteed rather than probabilistic; the
    burst plan's length (2) stays under the 429-wait budget (4).
    """

    @pytest.fixture(scope="class")
    def clean_digest(self, world):
        snapshot = _crawl_snapshot(world, faults=None)
        assert len(snapshot) > 0
        return snapshot.content_digest()

    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(FaultPlan(timeout=0.08, max_consecutive=2), id="timeout"),
            pytest.param(FaultPlan(malformed=0.08, max_consecutive=2), id="malformed"),
            pytest.param(FaultPlan(burst_429_period=40), id="burst-429"),
            pytest.param(
                FaultPlan(
                    transient_500=0.04,
                    timeout=0.04,
                    malformed=0.04,
                    burst_429_period=60,
                    max_consecutive=2,
                ),
                id="mixed",
            ),
        ],
    )
    def test_converges_to_clean_snapshot(self, world, clean_digest, plan):
        snapshot = _crawl_snapshot(world, faults=plan)
        assert snapshot.content_digest() == clean_digest
        telemetry = snapshot.stats.telemetry
        assert telemetry is not None
        assert telemetry.total_faults_absorbed > 0


class TestExtremes:
    def test_extreme_flakiness_degrades_gracefully(self, world):
        clock = SimClock()
        stores = build_stores(world)
        server = MarketServer(stores["tencent"], clock,
                              faults=FaultPlan(transient_500=0.95))
        client = HttpClient(server.handle, clock)
        failures = 0
        for _ in range(20):
            try:
                client.get_json("/categories")
            except ServerError:
                failures += 1
        assert failures > 0  # retry budget genuinely exhausts
