"""Parallel crawl engine: determinism across worker counts.

The engine shards work by market and merges in canonical order, so the
snapshot must be bit-identical — content digest and all — whether the
campaign ran on one thread or sixteen.
"""

import pytest

from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.engine import CrawlEngine, LaneClock
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.faults import FaultPlan
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=93, scale=0.0002).generate()


def _crawl(world, workers, faults=None, download_apks=True, market_faults=None):
    stores = build_stores(world)
    clock = SimClock()
    plans = market_faults or {}
    servers = {
        m: MarketServer(s, clock, faults=plans.get(m, faults))
        for m, s in stores.items()
    }
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    coordinator = CrawlCoordinator(
        servers,
        clock,
        gp_seeds=seeds,
        backfill=ArchiveBackfill(world) if download_apks else None,
        download_apks=download_apks,
        workers=workers,
    )
    snapshot = coordinator.crawl("parallel-test", duration_days=15.0)
    return snapshot, snapshot.stats, coordinator


def _lane_counts(stats, field):
    return {m: getattr(lane, field) for m, lane in stats.telemetry.markets.items()}


class TestWorkerCountInvariance:
    def test_identical_snapshots_at_1_4_16_workers(self, world):
        serial, serial_stats, _ = _crawl(world, workers=1)
        reference = serial.content_digest()
        assert len(serial) > 0
        for workers in (4, 16):
            snapshot, stats, _ = _crawl(world, workers=workers)
            assert snapshot.content_digest() == reference, workers
            assert len(snapshot) == len(serial)
            for field in ("records", "searches", "apk_downloaded",
                          "apk_backfilled", "apk_missing"):
                assert _lane_counts(stats, field) == _lane_counts(serial_stats, field)
            assert stats.apk_parse_errors == serial_stats.apk_parse_errors
            assert stats.rate_limited_markets == serial_stats.rate_limited_markets

    def test_identical_under_faults(self, world):
        # Per-market request ordinals drive the fault injection, and
        # lanes serialize per-market traffic, so even a faulty campaign
        # is bit-reproducible at any width.
        plan = FaultPlan(transient_500=0.05, timeout=0.03, max_consecutive=2)
        serial, _, _ = _crawl(world, workers=1, faults=plan, download_apks=False)
        parallel, _, _ = _crawl(world, workers=8, faults=plan, download_apks=False)
        assert parallel.content_digest() == serial.content_digest()

    def test_telemetry_request_totals_invariant(self, world):
        _, stats_1, _ = _crawl(world, workers=1, download_apks=False)
        _, stats_8, _ = _crawl(world, workers=8, download_apks=False)
        t1, t8 = stats_1.telemetry, stats_8.telemetry
        assert t1 is not None and t8 is not None
        assert t1.total_requests == t8.total_requests
        assert t1.total_records == t8.total_records
        assert t1.search_rounds == t8.search_rounds
        assert t1.queue_peak == t8.queue_peak
        per_market_1 = {m: lane.requests for m, lane in t1.markets.items()}
        per_market_8 = {m: lane.requests for m, lane in t8.markets.items()}
        assert per_market_1 == per_market_8


class TestEngine:
    def test_rejects_nonpositive_workers(self, world):
        with pytest.raises(ValueError):
            _crawl(world, workers=0)

    def test_lane_clock_overlays_shared_clock(self):
        base = SimClock()
        lane = LaneClock(base)
        start = lane.now
        lane.advance(2.0)
        assert lane.now == start + 2.0
        assert base.now == start  # shared clock untouched
        base.advance(1.0)
        assert lane.now == start + 3.0
        with pytest.raises(ValueError):
            lane.advance(-1.0)

    def test_shared_clock_frozen_during_campaign(self, world):
        stores = build_stores(world)
        clock = SimClock()
        start = clock.now
        servers = {
            m: MarketServer(s, clock, faults=FaultPlan(transient_500=0.1))
            for m, s in stores.items()
        }
        coordinator = CrawlCoordinator(servers, clock, download_apks=False, workers=4)
        snapshot = coordinator.crawl("frozen", duration_days=3.0)
        # Lane back-off never leaked into the campaign clock: the only
        # movement is the explicit duration accounting...
        assert clock.now == pytest.approx(start + 3.0)
        # ...and every record is stamped with the campaign start.
        assert {r.crawl_day for r in snapshot} == {start}
        assert coordinator.engine.max_lane_backoff > 0

    def test_run_preserves_task_key_order(self, world):
        stores = build_stores(world)
        clock = SimClock()
        servers = {m: MarketServer(s, clock) for m, s in stores.items()}
        engine = CrawlEngine(servers, clock, workers=8)
        results = engine.run({m: (lambda m=m: m) for m in engine.market_ids})
        assert list(results) == engine.market_ids
        assert all(k == v for k, v in results.items())


class TestPerMarketPacing:
    def test_throttled_market_does_not_stall_fleet(self, world):
        # Tencent answers bursts of 429s; every other market serves
        # clean.  Only tencent's lane should accumulate back-off.
        snapshot, stats, coordinator = _crawl(
            world, workers=8, download_apks=False,
            market_faults={"tencent": FaultPlan(burst_429_period=40)},
        )
        assert len(snapshot) > 0
        assert coordinator.engine.lane("tencent").clock.offset > 0
        for market_id in coordinator.engine.market_ids:
            if market_id != "tencent":
                assert coordinator.engine.lane(market_id).clock.offset == 0.0
        lanes = stats.telemetry.markets
        assert lanes["tencent"].rate_limited > 0
        assert lanes["tencent"].sim_days_backoff > 0
        assert lanes["google_play"].sim_days_backoff == 0.0
