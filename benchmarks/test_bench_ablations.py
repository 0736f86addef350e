"""Ablation benchmarks for the paper's design choices.

* **Clone-detection thresholds** — the paper picks distance <= 0.05 and
  code-segment overlap >= 85% "experimentally"; the sweep shows the
  detected-clone count across settings (precision/recall against ground
  truth is in EXPERIMENTS.md).
* **Library removal** — Section 6.2 argues third-party libraries cause
  false positives in clone detection; the ablation runs the detector
  with and without LibRadar-style removal.
* **AV-rank threshold** — prior work argues 10 engines is robust; the
  sweep shows how the malware rate moves across thresholds.

The sweeps print their best wall time over their rounds.
"""

from repro.analysis.clones import CodeCloneDetector
from repro.analysis.malware import av_rank_rates
from repro.markets.profiles import CHINESE_MARKET_IDS, GOOGLE_PLAY

from conftest import best_of


def test_bench_ablation_clone_distance(bench_study):
    thresholds = (0.01, 0.05, 0.15)

    def sweep():
        counts = {}
        for threshold in thresholds:
            detector = CodeCloneDetector(distance_threshold=threshold)
            analysis = detector.detect(bench_study.units, bench_study.library_detection)
            counts[threshold] = len(analysis.clone_units)
        return counts

    counts, seconds = best_of(1, sweep)
    print(f"\nclone-count by distance threshold: {counts} ({seconds:.2f}s)")
    assert counts[0.01] <= counts[0.05] <= counts[0.15]


def test_bench_ablation_clone_overlap(bench_study):
    thresholds = (0.70, 0.85, 0.95)

    def sweep():
        counts = {}
        for threshold in thresholds:
            detector = CodeCloneDetector(overlap_threshold=threshold)
            analysis = detector.detect(bench_study.units, bench_study.library_detection)
            counts[threshold] = len(analysis.clone_units)
        return counts

    counts, seconds = best_of(1, sweep)
    print(f"\nclone-count by overlap threshold: {counts} ({seconds:.2f}s)")
    assert counts[0.95] <= counts[0.85] <= counts[0.70]


def test_bench_ablation_library_removal(bench_study):
    def both():
        with_removal = CodeCloneDetector().detect(
            bench_study.units, bench_study.library_detection
        )
        without_removal = CodeCloneDetector().detect(bench_study.units, None)
        return len(with_removal.clone_units), len(without_removal.clone_units)

    (with_removal, without_removal), seconds = best_of(1, both)
    print(f"\nclones with/without library removal: {with_removal}/{without_removal} "
          f"({seconds:.2f}s)")
    # Shared library code inflates pair counts when not removed.
    assert without_removal >= with_removal


def test_bench_ablation_av_threshold(bench_study):
    thresholds = (1, 5, 10, 20, 30)

    def sweep():
        return av_rank_rates(
            bench_study.snapshot, bench_study.units, bench_study.vt_scan,
            thresholds=thresholds,
        )

    rates, seconds = best_of(2, sweep)
    gp = rates[GOOGLE_PLAY]
    print(f"\nGoogle Play rate by AV threshold: { {t: round(gp[t], 4) for t in thresholds} } "
          f"(best of 2: {seconds:.3f}s)")
    for market in (GOOGLE_PLAY,) + tuple(CHINESE_MARKET_IDS[:3]):
        series = [rates[market][t] for t in thresholds]
        assert series == sorted(series, reverse=True)


def test_bench_ablation_detector_ground_truth(bench_study):
    """Detector quality vs injected ground truth — the measurement the
    paper could not make."""

    def evaluate():
        world = bench_study.world
        gt = {
            (a.package, a.developer.fingerprint)
            for a in world.apps
            if a.provenance == "cb_clone"
        }
        detected = bench_study.code_clones.clone_units
        tp = len(gt & detected)
        precision = tp / len(detected) if detected else 1.0
        recall = tp / len(gt) if gt else 1.0
        return precision, recall

    precision, recall = evaluate()
    print(f"\ncode-clone detector precision={precision:.3f} recall={recall:.3f}")
    assert recall > 0.5
    assert precision > 0.7
