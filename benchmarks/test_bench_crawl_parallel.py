"""Benchmarks for the parallel crawl engine.

Network latency is injected at the server (real ``time.sleep``, which
releases the GIL) so the lanes genuinely overlap: the serial crawl pays
every market's latency in sequence, the 8-worker engine pays only the
slowest schedule of lanes.  Load is near-uniform across the 17 markets,
so the engine should clear 3x comfortably (~5-6x in practice) while
producing the bit-identical snapshot the determinism suite demands.

The scale is pinned so the latency budget — and therefore the speedup
floor — is stable in CI smoke runs.
"""

import pytest

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.util.simtime import SimClock

from conftest import best_of

CRAWL_SEED = 7
CRAWL_SCALE = 0.0001
LATENCY_S = 0.0003  # per-request server latency; ~17K requests ≈ 5s serial
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def crawl_world():
    return EcosystemGenerator(seed=CRAWL_SEED, scale=CRAWL_SCALE).generate()


def _crawl(world, workers):
    clock = SimClock()
    servers = {
        m: MarketServer(store, clock, latency_s=LATENCY_S)
        for m, store in build_stores(world).items()
    }
    coordinator = CrawlCoordinator(servers, clock, download_apks=False, workers=workers)
    return coordinator.crawl("bench-parallel", duration_days=5.0)


def test_bench_crawl_parallel_speedup(crawl_world):
    serial, serial_elapsed = best_of(1, _crawl, crawl_world, 1)
    parallel, parallel_elapsed = best_of(2, _crawl, crawl_world, 8)

    # Identical output at any width — the whole point of the lane model.
    assert parallel.content_digest() == serial.content_digest()
    assert parallel.stats.telemetry.workers == 8

    speedup = serial_elapsed / parallel_elapsed
    print(
        f"\nserial {serial_elapsed:.2f}s vs 8 workers {parallel_elapsed:.2f}s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"8-worker crawl only {speedup:.1f}x faster than serial "
        f"({serial_elapsed:.2f}s vs {parallel_elapsed:.2f}s)"
    )

