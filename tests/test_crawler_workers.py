"""Campaign accounting across consecutive crawls by one coordinator."""

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.util.simtime import SimClock


class TestDerivedCrawlDuration:
    def test_each_campaign_is_charged_only_its_own_traffic(self):
        world = EcosystemGenerator(seed=71, scale=0.0002).generate()
        clock = SimClock()
        servers = {m: MarketServer(s, clock) for m, s in build_stores(world).items()}
        coordinator = CrawlCoordinator(servers, clock, download_apks=False)
        requests = []
        for label in ("first", "second"):
            start = clock.now
            snapshot = coordinator.crawl(label, duration_days=5.0)
            assert clock.now - start == 5.0
            requests.append(snapshot.stats.telemetry.total_requests)
        # Same catalog, same traffic: the second campaign's telemetry
        # must not also count the first one's requests.
        assert requests[0] > 0
        assert requests[1] == requests[0]
