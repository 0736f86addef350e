"""Tests for the crawl worker-pool model."""

import pytest

from repro.crawler.workers import WorkerPool


class TestWorkerPool:
    def test_paper_fleet_scale(self):
        # ~4x10^8 requests over the default fleet lands near the paper's
        # 15-day campaign.
        pool = WorkerPool()
        assert pool.duration_days(400_000_000) == pytest.approx(16.0)

    def test_minimum_duration(self):
        pool = WorkerPool(minimum_days=0.5)
        assert pool.duration_days(10) == 0.5

    def test_linear_in_requests(self):
        pool = WorkerPool()
        assert pool.duration_days(2 * 10**8) * 2 == pytest.approx(
            pool.duration_days(4 * 10**8)
        )

    def test_more_workers_faster(self):
        small = WorkerPool(workers=10)
        large = WorkerPool(workers=100)
        assert large.duration_days(10**9) < small.duration_days(10**9)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(requests_per_worker_day=0)
        with pytest.raises(ValueError):
            WorkerPool().duration_days(-1)


class TestDerivedCrawlDuration:
    def test_crawl_with_derived_duration(self):
        from repro.crawler.crawler import CrawlCoordinator
        from repro.ecosystem.generator import EcosystemGenerator
        from repro.markets.server import MarketServer
        from repro.markets.store import build_stores
        from repro.util.simtime import SimClock

        world = EcosystemGenerator(seed=71, scale=0.0002).generate()
        stores = build_stores(world)
        clock = SimClock()
        start = clock.now
        servers = {m: MarketServer(s, clock) for m, s in stores.items()}
        coordinator = CrawlCoordinator(
            servers, clock, download_apks=False,
            worker_pool=WorkerPool(minimum_days=0.25),
        )
        coordinator.crawl("derived", duration_days=None)
        # A tiny corpus crawls fast but still pays campaign overhead.
        assert clock.now - start >= 0.25
        assert clock.now - start < 15.0

    def test_each_campaign_is_charged_only_its_own_traffic(self):
        from repro.crawler.crawler import CrawlCoordinator
        from repro.ecosystem.generator import EcosystemGenerator
        from repro.markets.server import MarketServer
        from repro.markets.store import build_stores
        from repro.util.simtime import SimClock

        world = EcosystemGenerator(seed=71, scale=0.0002).generate()
        clock = SimClock()
        servers = {m: MarketServer(s, clock) for m, s in build_stores(world).items()}
        pool = WorkerPool(workers=1, requests_per_worker_day=5000, minimum_days=0)
        coordinator = CrawlCoordinator(
            servers, clock, download_apks=False, worker_pool=pool,
        )
        charged = []
        for label in ("first", "second"):
            start = clock.now
            snapshot = coordinator.crawl(label, duration_days=None)
            requests = snapshot.stats.telemetry.total_requests
            charged.append(clock.now - start)
            assert charged[-1] == pytest.approx(pool.duration_days(requests))
        # Same catalog, same traffic: the second campaign must not also
        # pay for the first one's requests.
        assert charged[1] == pytest.approx(charged[0])
