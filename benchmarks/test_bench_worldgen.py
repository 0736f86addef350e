"""Benchmark for the segment cache's world-generation side.

One enforced floor: warm segment-cache blob building must beat the cold
path by ``MIN_SEGMENT_SPEEDUP``× (zlib still runs per blob, so the win
is bounded; the point is that it is real and never changes bytes).  The
timed variants must also produce byte-identical blobs — a fast wrong
answer fails the bench.

World generation itself is held by a count, not a timer:
``tests/test_ecosystem_generator.py::TestWorldgenCallBudget`` bounds its
Python calls per app.

The CI worldgen job runs this file.
"""

import hashlib
import time

from repro.apk.archive import SegmentCache
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.profiles import ALL_MARKET_IDS
from repro.markets.store import build_stores

WORLDGEN_SEED = 21
#: Scale for the segment-cache bench (every blob is built twice).
SEGMENT_SCALE = 0.0005

MIN_SEGMENT_SPEEDUP = 1.05


def _build_all_blobs(stores):
    """Build every market's every blob; return md5s keyed by listing."""
    md5s = {}
    for market_id in ALL_MARKET_IDS:
        store = stores[market_id]
        for listing in store.iter_live(0.0):
            blob = store.apk_bytes(listing.package, 0.0)
            if blob is not None:
                md5s[(market_id, listing.package)] = hashlib.md5(blob).hexdigest()
    return md5s


def test_bench_segment_cache():
    world = EcosystemGenerator(WORLDGEN_SEED, SEGMENT_SCALE).generate()

    start = time.perf_counter()
    cold_md5s = _build_all_blobs(build_stores(world, segment_cache=False))
    cold_s = time.perf_counter() - start

    segments = SegmentCache()
    start = time.perf_counter()
    warm_md5s = _build_all_blobs(build_stores(world, segments=segments))
    warm_s = time.perf_counter() - start

    # Byte-identity is the cache's contract: every served blob's md5 is
    # unchanged with the cache on.
    assert warm_md5s == cold_md5s
    stats = segments.stats()
    assert stats["hits"] > stats["misses"] > 0, stats

    speedup = cold_s / warm_s
    print(f"\nblob build cold {cold_s:.2f}s vs segment cache {warm_s:.2f}s "
          f"-> {speedup:.1f}x ({stats['hits']} hits / {stats['misses']} misses)")
    assert speedup >= MIN_SEGMENT_SPEEDUP, (
        f"segment-cache blob build only {speedup:.2f}x faster than cold "
        f"({cold_s:.2f}s vs {warm_s:.2f}s)"
    )
