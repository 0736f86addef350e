#!/usr/bin/env python
"""Scenario: drive the crawler by hand against the market servers.

Shows the moving parts of Section 3 individually: per-market discovery
strategies, the cross-market parallel search, Google Play's APK rate
limiting, and the AndroZoo-style archive backfill.

    python examples/market_crawl.py
"""

from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.profiles import ALL_MARKET_IDS, get_profile
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.client import HttpClient
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock


def main() -> None:
    print("synthesizing the ecosystem...")
    world = EcosystemGenerator(seed=7, scale=0.0004).generate()
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(store, clock) for m, store in stores.items()}

    # Poke a market's web interface directly.
    tencent = HttpClient(servers["tencent"].handle, clock)
    categories = tencent.get_json("/categories")
    print(f"\nTencent Myapp exposes {len(categories)} categories; first page "
          f"of {categories[0]!r}:")
    for meta in tencent.get_json("/category", {"name": categories[0], "page": 0})[:5]:
        print(f"  {meta['package']:40s} {meta['name']}")

    # Baidu's incremental integer index (footnote 4 in the paper).
    baidu = HttpClient(servers["baidu"].handle, clock)
    print("\nBaidu's incremental index, entries 0-4:")
    for i in range(5):
        meta = baidu.get_json("/index", {"i": i})
        if meta:
            print(f"  /software/{i}.html -> {meta['package']}")

    # Full campaign with parallel search and backfill.
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    coordinator = CrawlCoordinator(
        servers, clock, gp_seeds=seeds, backfill=ArchiveBackfill(world)
    )
    print(f"\ncrawling all 17 markets from {len(seeds)} Google Play seeds...")
    snapshot = coordinator.crawl("august-2017", duration_days=15.0)
    stats = snapshot.stats
    lanes = stats.telemetry.markets.values()

    def total(field):
        return sum(getattr(lane, field) for lane in lanes)

    print(f"records: {total('records'):,}  parallel searches: {total('searches'):,}")
    print(f"APKs downloaded: {total('apk_downloaded'):,}  "
          f"backfilled from archive: {total('apk_backfilled'):,}  "
          f"missing: {total('apk_missing'):,}")
    print(f"rate-limited markets: {sorted(stats.rate_limited_markets)}")

    print("\nper-market coverage:")
    for market_id in ALL_MARKET_IDS:
        profile = get_profile(market_id)
        print(f"  {profile.display_name:15s} listings={snapshot.market_size(market_id):5d} "
              f"store={len(stores[market_id]):5d} "
              f"apk_coverage={snapshot.apk_coverage(market_id):6.1%}")


if __name__ == "__main__":
    main()
