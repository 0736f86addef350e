"""Benchmarks for the out-of-core corpus store.

Times one full streaming pass over a spilled world against the same
pass on the in-memory list, and prints both wall times and the
streaming pass's tracemalloc peak.

Correctness anchors, enforced here like the worldgen floors: the world
content digest must be identical before and after the spill, and the
streaming cursor's traced heap peak must stay under a fixed cap (the
cursor holds one batch, not the corpus).  The CI ``corpus`` job runs
this file.
"""

import time
import tracemalloc

from repro.ecosystem.generator import EcosystemGenerator
from repro.store import CorpusStore

CORPUS_SEED = 42
CORPUS_SCALE = 0.0005

#: Cap on the streaming pass's traced heap peak.  The cursor holds one
#: 256-row batch of decoded apps, so its peak must not scale with the
#: corpus: at this scale it reads 4.3 MiB, against 3.5 MiB for 1-row
#: batches and 7.3 MiB for one batch of the whole corpus.  It is a fixed
#: cap, not a ratio to the materialized pass: that pass sums over a list
#: already in memory and allocates nothing.
MAX_STREAM_PEAK_BYTES = 6 * 2**20


def _traced_pass(fn):
    """(wall seconds, tracemalloc peak bytes) of one full pass."""
    tracemalloc.start()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return wall, peak, out


def test_bench_streaming_cursor(tmp_path):
    world = EcosystemGenerator(seed=CORPUS_SEED, scale=CORPUS_SCALE).generate()
    digest_before = world.content_digest()
    n_apps = len(world.apps)

    def sweep():
        return sum(len(app.placements) for app in world.apps)

    start = time.perf_counter()
    listings = sweep()
    memory_s = time.perf_counter() - start

    store = CorpusStore(tmp_path, spill_threshold=0)
    start = time.perf_counter()
    world.spill(store)
    spill_s = time.perf_counter() - start

    def stream():
        return sum(1 for _ in world.iter_placements(batch_size=256))

    stream_s, stream_peak, streamed = _traced_pass(stream)

    assert world.spilled
    assert streamed == listings
    assert world.content_digest() == digest_before

    print(
        f"\nspill {n_apps:,} apps in {spill_s:.2f}s; "
        f"materialized pass {memory_s:.2f}s vs "
        f"streaming pass {stream_s:.2f}s @ {stream_peak / 2**20:.1f}MiB"
    )
    assert stream_peak <= MAX_STREAM_PEAK_BYTES, (
        f"streaming cursor peaked at {stream_peak / 2**20:.1f}MiB, over the "
        f"{MAX_STREAM_PEAK_BYTES / 2**20:.0f}MiB cap"
    )
