"""Tests for market stores built from a generated world."""

import pytest

from repro.apk.archive import parse_apk
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.store import build_stores, install_range_for
from repro.util.simtime import FIRST_CRAWL_DAY


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=21, scale=0.0003).generate()


@pytest.fixture(scope="module")
def stores(world):
    return build_stores(world)


NOW = float(FIRST_CRAWL_DAY)


class TestInstallRange:
    def test_ranges(self):
        assert install_range_for(0) == (0, 10)
        assert install_range_for(75_123) == (10_000, 100_000)
        assert install_range_for(2_000_000) == (1_000_000, 10_000_000)


class TestStoreContents:
    def test_sizes_match_world(self, world, stores):
        for market_id, store in stores.items():
            assert len(store) == world.market_size(market_id)

    def test_gp_reports_ranges(self, stores):
        for listing in stores["google_play"].iter_live(NOW):
            assert listing.downloads is None
            assert listing.install_range is not None
            break

    def test_exact_markets_report_counts(self, stores):
        listing = next(stores["tencent"].iter_live(NOW))
        assert listing.install_range is None

    def test_xiaomi_reports_nothing(self, stores):
        for listing in stores["xiaomi"].iter_live(NOW):
            assert listing.downloads is None
            assert listing.install_range is None

    def test_unrated_reported_as_zero(self, stores):
        ratings = [l.rating for l in stores["tencent"].iter_live(NOW)]
        assert 0.0 in ratings

    def test_baidu_gp_crawled_labels(self, world):
        from repro.markets.profiles import get_profile
        from repro.markets.store import _developer_display_name

        # Section 4.4: some Baidu listings credit a Google Play crawl.
        # Deterministic check over all mixed-scope apps (the 15% hash
        # bucket must select some once enough candidates exist).
        profile = get_profile("baidu")
        mixed = [a for a in world.apps if a.scope == "mixed"]
        labels = [_developer_display_name(profile, a, "baidu") for a in mixed]
        tagged = [l for l in labels if "crawled from Google Play" in l]
        if len(mixed) >= 30:
            assert tagged
        # Other markets never tag.
        tencent = get_profile("tencent")
        assert not any(
            "crawled" in _developer_display_name(tencent, a, "tencent")
            for a in mixed[:50]
        )

    def test_duplicate_listing_rejected(self, stores):
        store = stores["tencent"]
        listing = next(store.iter_live(NOW))
        with pytest.raises(ValueError):
            store.add_listing(listing)


class TestLookups:
    def test_search_by_package_and_name(self, stores):
        store = stores["tencent"]
        listing = next(store.iter_live(NOW))
        assert store.search(listing.package, NOW)
        assert any(
            l.package == listing.package
            for l in store.search(listing.app_name, NOW)
        )

    def test_index_paging(self, stores):
        store = stores["baidu"]
        assert store.by_index(0, NOW) is not None
        assert store.by_index(store.index_size, NOW) is None

    def test_category_pages_cover_catalog(self, stores):
        store = stores["huawei"]
        seen = set()
        for category in store.categories():
            page = 0
            while True:
                chunk = store.category_page(category, page, NOW)
                if not chunk:
                    break
                seen.update(l.package for l in chunk)
                page += 1
        assert len(seen) == len(store)

    def test_related_same_category(self, stores):
        store = stores["tencent"]
        listing = next(store.iter_live(NOW))
        for related in store.related(listing.package, NOW):
            assert related.category == listing.category
            assert related.package != listing.package


class TestApkServing:
    def test_apk_parses_and_matches_listing(self, stores):
        store = stores["tencent"]
        listing = next(store.iter_live(NOW))
        parsed = parse_apk(store.apk_bytes(listing.package, NOW))
        assert parsed.manifest.package == listing.package
        assert parsed.manifest.version_code == listing.version_code

    def test_apk_cached(self, stores):
        # The store keeps no built blob; a rebuild serves the same bytes.
        store = stores["tencent"]
        listing = next(store.iter_live(NOW))
        assert store.apk_bytes(listing.package, NOW) == store.apk_bytes(
            listing.package, NOW
        )

    def test_360_serves_packed_apks(self, stores):
        store = stores["market360"]
        listing = next(store.iter_live(NOW))
        parsed = parse_apk(store.apk_bytes(listing.package, NOW))
        assert parsed.obfuscated_by == "360jiagubao"


class TestRemoval:
    def test_removed_listing_disappears(self, stores):
        store = stores["wandoujia"]
        listing = next(store.iter_live(NOW))
        assert store.remove_listing(listing.package, NOW + 10)
        assert store.get(listing.package, NOW + 11) is None
        assert store.get(listing.package, NOW + 9) is not None

    def test_double_removal_refused(self, stores):
        store = stores["wandoujia"]
        listing = next(store.iter_live(NOW))
        store.remove_listing(listing.package, NOW + 10)
        assert not store.remove_listing(listing.package, NOW + 20)

    def test_missing_package_removal_refused(self, stores):
        assert not stores["wandoujia"].remove_listing("com.nope", NOW)


class TestListingUpdates:
    def test_update_advances_version(self, world, stores):
        from repro.ecosystem.apps import AppVersion

        store = stores["anzhi"]
        listing = next(store.iter_live(NOW))
        new_version = AppVersion(
            version_code=listing.version_code + 5,
            version_name="9.9.9",
            release_day=int(NOW) - 10,
        )
        assert store.update_listing_version(listing.package, 0, new_version)
        refreshed = store.get(listing.package, NOW)
        assert refreshed.version_code == new_version.version_code
        assert refreshed.version_name == "9.9.9"

    def test_update_refuses_downgrade(self, world, stores):
        from repro.ecosystem.apps import AppVersion

        store = stores["anzhi"]
        listing = next(store.iter_live(NOW))
        old = AppVersion(version_code=0, version_name="0.0.1", release_day=100)
        assert not store.update_listing_version(listing.package, 0, old)

    def test_update_refuses_missing_package(self, stores):
        from repro.ecosystem.apps import AppVersion

        version = AppVersion(version_code=99, version_name="1", release_day=1)
        assert not stores["anzhi"].update_listing_version("com.nope", 0, version)

    def test_update_invalidates_apk_cache(self, world, stores):
        from repro.apk.archive import parse_apk
        from repro.ecosystem.apps import AppVersion

        store = stores["sougou"]
        # A listing whose app has a later version to move to: this world
        # has 10 lagged listings in sougou.
        lagged = [
            (listing, world.app(listing.app_id))
            for listing in store.iter_live(NOW)
            if listing.version_index < world.app(listing.app_id).latest_version_index
        ]
        assert lagged
        listing, app = lagged[0]
        before = parse_apk(store.apk_bytes(listing.package, NOW))
        latest = app.latest_version_index
        assert store.update_listing_version(
            listing.package, latest, app.versions[latest]
        )
        after = parse_apk(store.apk_bytes(listing.package, NOW))
        assert after.manifest.version_code > before.manifest.version_code
