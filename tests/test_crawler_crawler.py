"""Integration tests for crawl coordination (own tiny world)."""

import pytest

from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.util.rng import stable_hash32
from repro.util.simtime import SECOND_CRAWL_DAY, SimClock


@pytest.fixture(scope="module")
def crawl_setup():
    world = EcosystemGenerator(seed=51, scale=0.0002).generate()
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(s, clock) for m, s in stores.items()}
    seeds = [
        l.package for l in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", l.package) % 100 < 74
    ]
    coordinator = CrawlCoordinator(
        servers, clock, gp_seeds=seeds, backfill=ArchiveBackfill(world)
    )
    snapshot = coordinator.crawl("first", duration_days=15.0)
    return world, stores, servers, clock, coordinator, snapshot


class TestCoverage:
    def test_full_metadata_coverage(self, crawl_setup):
        world, stores, _, _, _, snapshot = crawl_setup
        # Parallel search should surface essentially the whole catalog.
        for market_id, store in stores.items():
            assert snapshot.market_size(market_id) >= 0.95 * len(store)

    def test_chinese_apk_coverage_full(self, crawl_setup):
        _, _, _, _, _, snapshot = crawl_setup
        assert snapshot.apk_coverage("tencent") == 1.0

    def test_gp_apk_coverage_via_backfill(self, crawl_setup):
        _, _, _, _, _, snapshot = crawl_setup
        coverage = snapshot.apk_coverage("google_play")
        # ~14% direct + ~89% of the rest from the archive => ~90%.
        assert 0.80 < coverage < 0.99

    def test_gp_was_rate_limited(self, crawl_setup):
        _, _, _, _, _, snapshot = crawl_setup
        assert "google_play" in snapshot.stats.rate_limited_markets
        assert snapshot.stats.telemetry.market("google_play").apk_backfilled > 0

    def test_clock_advanced(self, crawl_setup):
        _, _, _, clock, _, _ = crawl_setup
        assert clock.now >= 2783 + 15

    def test_records_match_store_metadata(self, crawl_setup):
        _, stores, _, clock, _, snapshot = crawl_setup
        record = snapshot.in_market("tencent")[0]
        listing = stores["tencent"].get_any(record.package)
        assert record.version_code == listing.version_code
        assert record.developer_name == listing.developer_name

    def test_apk_identity_matches_metadata(self, crawl_setup):
        _, _, _, _, _, snapshot = crawl_setup
        for record in list(snapshot.with_apk())[:100]:
            assert record.apk.manifest.package == record.package
            assert record.apk.manifest.version_code == record.version_code


class TestRecheck:
    def test_recheck_reports_presence(self, crawl_setup):
        world, stores, servers, clock, coordinator, snapshot = crawl_setup
        if clock.now < SECOND_CRAWL_DAY:
            clock.advance_to(SECOND_CRAWL_DAY)
        some = [r.package for r in snapshot.in_market("tencent")[:10]]
        presence = coordinator.recheck({"tencent": some, "hiapk": some})
        assert "tencent" in presence
        assert "hiapk" not in presence  # dead at the second crawl
        assert set(presence["tencent"]) == set(some)

    def test_recheck_detects_removal(self, crawl_setup):
        world, stores, servers, clock, coordinator, snapshot = crawl_setup
        if clock.now < SECOND_CRAWL_DAY:
            clock.advance_to(SECOND_CRAWL_DAY)
        record = snapshot.in_market("wandoujia")[0]
        stores["wandoujia"].remove_listing(record.package, clock.now - 1)
        presence = coordinator.recheck({"wandoujia": [record.package]})
        assert presence["wandoujia"][record.package] is False
