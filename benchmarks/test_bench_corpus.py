"""Benchmarks for the out-of-core corpus store.

Times one full streaming pass over a spilled world against the same
pass on the in-memory list and prints wall time *and* the tracemalloc
peak of each pass.

Correctness anchors, enforced here like the worldgen floors: the world
content digest must be identical before and after the spill, and the
streaming cursor's traced heap peak must stay under the materialized
pass's peak plus a fixed allowance (the cursor holds one batch, not the
corpus).  The CI ``corpus`` job runs this file.
"""

import time
import tracemalloc

from repro.ecosystem.generator import EcosystemGenerator
from repro.store import CorpusStore

CORPUS_SEED = 42
CORPUS_SCALE = 0.0005

#: The streaming pass re-decodes rows, so its *allocation* peak may sit
#: above the materialized pass (whose list pre-exists the trace); what
#: it must never do is scale with the corpus.  At this scale the
#: cursor's peak stays within this multiple of the materialized pass.
MAX_PEAK_RATIO = 1.5


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

    memory_s, memory_peak, listings = _traced_pass(sweep)

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
        f"materialized pass {memory_s:.2f}s @ {memory_peak / 2**20:.1f}MiB vs "
        f"streaming pass {stream_s:.2f}s @ {stream_peak / 2**20:.1f}MiB"
    )
    assert stream_peak <= MAX_PEAK_RATIO * max(memory_peak, 8 * 2**20), (
        f"streaming cursor peaked at {stream_peak / 2**20:.1f}MiB vs "
        f"materialized {memory_peak / 2**20:.1f}MiB"
    )
