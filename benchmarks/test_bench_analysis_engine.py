"""Benchmarks for the parallel analysis engine and artifact cache.

The analysis pipeline's genuinely slow stage in the real study is
network-bound (uploading ~4.3M APKs to VirusTotal), so the bench wraps
the simulated service in a latency model (real ``time.sleep``, which
releases the GIL) — the serial pipeline pays every scan's latency in
sequence, the 8-worker engine overlaps them, and a warm artifact cache
skips them entirely.  CPU-bound stages (library features, clone
scoring) run under the same engine but are not what the speedup floors
measure.

Each bench asserts its floor and prints the numbers behind it:

* 8-worker ``run_all`` at least ``MIN_PARALLEL_SPEEDUP`` faster than
  serial,
* a warm artifact cache at least ``MIN_CACHE_SPEEDUP`` faster than a
  cold one (at 1 worker, so the cache effect is isolated from
  threading),
* the same clone set from all three candidate strategies (exhaustive,
  prefix, minhash), with the minhash strategy's pair recall against the
  exhaustive reference at least ``MIN_MINHASH_RECALL``,
* the adversarial-families contrast: on a hostile corpus (repackaging
  chains + app-factory template spam via ``clone_families=
  "adversarial"``) MinHash-LSH candidate generation must beat prefix
  blocking by ``MIN_MINHASH_SPEEDUP`` while keeping
  ``MIN_MINHASH_RECALL`` of the exhaustive strategy's reported pairs.

The scale is pinned so the latency budget — and therefore the speedup
floors — is stable in CI smoke runs.
Every timed variant must also produce bit-identical report digests;
a fast wrong answer fails the bench.
"""

import dataclasses
import time

import pytest

from repro import Study, StudyConfig
from repro.analysis.clones import CodeCloneDetector, measure_strategy_recall
from repro.analysis.engine import AnalysisEngine, ArtifactCache
from repro.analysis.virustotal import VirusTotalService
from repro.core.study import StudyResult
from repro.experiments import digest_reports, run_all

ANALYSIS_SEED = 11
ANALYSIS_SCALE = 0.0003
SCAN_LATENCY_S = 0.004  # per-APK upload latency; ~1.3K scans ≈ 5s serial
MIN_PARALLEL_SPEEDUP = 2.0
MIN_CACHE_SPEEDUP = 5.0
MIN_MINHASH_SPEEDUP = 3.0  # vs prefix, adversarial corpus, best-of-3
MIN_MINHASH_RECALL = 0.99  # of the exhaustive strategy's reported pairs


class SlowVirusTotal(VirusTotalService):
    """The default service behind a fixed per-scan upload latency.

    Only transport changes, so the verdicts — and therefore
    ``cache_version`` — are the base service's (see the base class).
    """

    def __init__(self, latency_s):
        super().__init__()
        self.latency_s = latency_s

    def scan(self, apk):
        if apk.md5 not in self._cache:
            time.sleep(self.latency_s)
        return super().scan(apk)


@pytest.fixture(scope="module")
def base_result():
    """One crawl, shared; each bench re-analyzes it with its own engine."""
    config = StudyConfig(seed=ANALYSIS_SEED, scale=ANALYSIS_SCALE)
    return Study(config).run()


def _fresh(base, engine=None, slow_vt=True, config=None):
    """A StudyResult over the shared crawl with cold analysis artifacts."""
    result = StudyResult(
        config=config or base.config,
        world=base.world,
        stores=base.stores,
        servers=base.servers,
        clock=base.clock,
        snapshot=base.snapshot,
        presence=base.presence,
        removal_outcome=base.removal_outcome,
        second_snapshot=base.second_snapshot,
        update_outcome=base.update_outcome,
        engine=engine,
    )
    if slow_vt:
        result.vt_service = SlowVirusTotal(SCAN_LATENCY_S)
    return result


def _analyze(base, engine):
    result = _fresh(base, engine=engine)
    return digest_reports(run_all(result)), result


def test_bench_analysis_parallel_speedup(base_result):
    start = time.perf_counter()
    serial_digests, _ = _analyze(base_result, AnalysisEngine(workers=1))
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel_digests, result = _analyze(base_result, AnalysisEngine(workers=8))
    parallel_s = time.perf_counter() - start

    # Identical reports at any width — the deterministic-merge invariant.
    assert parallel_digests == serial_digests

    speedup = serial_s / parallel_s
    print(f"\nrun_all serial {serial_s:.2f}s vs 8 workers {parallel_s:.2f}s "
          f"-> {speedup:.1f}x")
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"8-worker run_all only {speedup:.1f}x faster than serial "
        f"({serial_s:.2f}s vs {parallel_s:.2f}s)"
    )


def test_bench_artifact_cache_speedup(base_result, tmp_path):
    cache_dir = tmp_path / "artifacts"
    start = time.perf_counter()
    cold_digests, cold_result = _analyze(
        base_result, AnalysisEngine(workers=1, cache=ArtifactCache(cache_dir)))
    cold_s = time.perf_counter() - start
    assert cold_result.engine.cache.stats.stores > 0

    start = time.perf_counter()
    warm_digests, warm_result = _analyze(
        base_result, AnalysisEngine(workers=1, cache=ArtifactCache(cache_dir)))
    warm_s = time.perf_counter() - start

    stats = warm_result.engine.cache.stats
    assert stats.hits > 0 and stats.misses == 0, stats.as_dict()
    # A resumed-from-cache run reports the very same tables and figures.
    assert warm_digests == cold_digests

    speedup = cold_s / warm_s
    print(f"\ncold cache {cold_s:.2f}s vs warm {warm_s:.2f}s "
          f"-> {speedup:.1f}x ({stats.hits} hits)")
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"warm-cache run_all only {speedup:.1f}x faster than cold "
        f"({cold_s:.2f}s vs {warm_s:.2f}s)"
    )


def test_bench_candidate_blocking(base_result):
    units = base_result.units
    lib = base_result.library_detection
    detector = CodeCloneDetector()
    corpus = detector.extract(units, lib)
    engine = AnalysisEngine(workers=1)

    exhaustive = detector._candidate_pairs_exhaustive(corpus.residual_blocks)
    prefix = detector._candidate_pairs_prefix(corpus.residual_blocks)
    minhash_det = CodeCloneDetector(candidate_strategy="minhash")
    minhash = minhash_det._candidate_pairs_minhash(corpus, engine)

    # All three strategies must report the identical clone set end-to-end.
    pairs_prefix = CodeCloneDetector(candidate_strategy="prefix").detect(
        units, lib).clone_units
    pairs_exhaustive = CodeCloneDetector(candidate_strategy="exhaustive").detect(
        units, lib).clone_units
    pairs_minhash = minhash_det.detect(units, lib).clone_units
    assert pairs_prefix >= pairs_exhaustive
    assert pairs_minhash == pairs_exhaustive

    recall = measure_strategy_recall(units, lib)
    assert recall.recall >= MIN_MINHASH_RECALL

    reduction = 1 - len(prefix) / max(1, len(exhaustive))
    print(f"\ncandidates: exhaustive {len(exhaustive)} vs prefix {len(prefix)} "
          f"vs minhash {len(minhash)} ({reduction:.1%} pruned), "
          f"minhash recall {recall.recall:.4f}")


def test_bench_strategy_digests_identical(base_result):
    """``digest_reports`` is bit-identical across candidate strategies
    (on the default bench corpus) and across minhash worker counts —
    strategy and parallelism are pure performance knobs."""
    digests = {}
    for strategy in CodeCloneDetector.STRATEGIES:
        config = dataclasses.replace(base_result.config, clone_strategy=strategy)
        result = _fresh(
            base_result, engine=AnalysisEngine(workers=4),
            slow_vt=False, config=config,
        )
        digests[strategy] = digest_reports(run_all(result))
    assert digests["prefix"] == digests["exhaustive"] == digests["minhash"]

    minhash_config = dataclasses.replace(
        base_result.config, clone_strategy="minhash"
    )
    per_width = {}
    for workers in (1, 4, 8):
        result = _fresh(
            base_result, engine=AnalysisEngine(workers=workers),
            slow_vt=False, config=minhash_config,
        )
        per_width[workers] = digest_reports(run_all(result))
    assert per_width[1] == per_width[4] == per_width[8]


@pytest.fixture(scope="module")
def adversarial_result():
    """A hostile corpus: boosted repackaging families, clone chains,
    shared-signing-key clusters, and app-factory template spam."""
    config = StudyConfig(
        seed=ANALYSIS_SEED,
        scale=ANALYSIS_SCALE,
        clone_families="adversarial",
    )
    return Study(config).run()


def test_bench_adversarial_families(adversarial_result):
    """The tentpole contract: on the adversarial corpus, MinHash-LSH
    candidate generation beats prefix blocking by >= 3x wall-clock while
    recovering >= 99% of the exhaustive strategy's reported pairs."""
    units = adversarial_result.units
    lib = adversarial_result.library_detection
    detector = CodeCloneDetector(candidate_strategy="minhash")
    corpus = detector.extract(units, lib)
    engine = AnalysisEngine(workers=1)

    prefix_s, minhash_s = [], []
    for _ in range(3):
        start = time.perf_counter()
        prefix = detector._candidate_pairs_prefix(corpus.residual_blocks)
        prefix_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        minhash = detector._candidate_pairs_minhash(corpus, engine)
        minhash_s.append(time.perf_counter() - start)

    recall = measure_strategy_recall(units, lib)
    speedup = min(prefix_s) / min(minhash_s)
    spam = adversarial_result.world.summary()["template_spam"]
    print(f"\nadversarial corpus ({len(corpus.units)} units, {spam} spam): "
          f"prefix {min(prefix_s):.3f}s ({len(prefix)} candidates) vs "
          f"minhash {min(minhash_s):.3f}s ({len(minhash)}) -> {speedup:.1f}x, "
          f"recall {recall.recall:.4f}")
    assert recall.reference_pairs > 0
    assert recall.recall >= MIN_MINHASH_RECALL, (
        f"minhash recovered only {recall.recall:.2%} of exhaustive pairs"
    )
    assert speedup >= MIN_MINHASH_SPEEDUP, (
        f"minhash only {speedup:.1f}x faster than prefix on the "
        f"adversarial corpus ({min(prefix_s):.3f}s vs {min(minhash_s):.3f}s)"
    )
