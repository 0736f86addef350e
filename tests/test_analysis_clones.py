"""Tests for signature- and code-based clone detection."""

from itertools import combinations

import numpy as np
import pytest

from repro.analysis.clones import (
    CodeCloneDetector,
    block_overlap,
    clone_market_rates,
    derive_lsh_params,
    detect_signature_clones,
    feature_distance,
    lsh_candidate_pairs,
    minhash_jaccard_estimate,
    minhash_signature,
    overlap_to_jaccard,
    _minhash_coeffs,
)
from repro.analysis.corpus import build_units
from repro.analysis.engine import AnalysisEngine
from repro.apk.models import CodePackage
from repro.crawler.snapshot import Snapshot

from conftest import make_parsed, make_record


class TestFeatureDistance:
    def test_identical(self):
        assert feature_distance({1: 2, 3: 4}, {1: 2, 3: 4}) == 0.0

    def test_disjoint(self):
        assert feature_distance({1: 2}, {2: 2}) == 1.0

    def test_formula(self):
        # |3-1| / (3+1) = 0.5
        assert feature_distance({1: 3}, {1: 1}) == pytest.approx(0.5)

    def test_symmetry(self):
        a, b = {1: 3, 2: 1}, {1: 1, 4: 2}
        assert feature_distance(a, b) == feature_distance(b, a)

    def test_empty(self):
        assert feature_distance({}, {}) == 0.0

    def test_triangle_like_monotonicity(self):
        base = {i: 5 for i in range(20)}
        near = {**base, 0: 6}
        far = {**base, **{i: 1 for i in range(20, 30)}}
        assert feature_distance(base, near) < feature_distance(base, far)


class TestBlockOverlap:
    def test_full(self):
        assert block_overlap((1, 2, 3), (1, 2, 3)) == 1.0

    def test_partial_uses_max(self):
        assert block_overlap((1, 2, 3, 4), (1, 2)) == pytest.approx(0.5)

    def test_empty(self):
        assert block_overlap((), (1,)) == 0.0


def _record(package, signer, own_features, blocks, market="tencent",
            downloads=100, version_code=3):
    apk = make_parsed(
        package=package,
        version_code=version_code,
        packages=(CodePackage(package, dict(own_features), tuple(blocks)),),
        signer=signer,
    )
    return make_record(
        market_id=market, package=package, downloads=downloads,
        version_code=version_code, apk=apk,
    )


BASE_FEATURES = {i: 10 for i in range(30)}
BASE_BLOCKS = tuple(range(1000, 1040))


class TestSignatureClones:
    def test_multi_signer_package_flagged(self):
        snap = Snapshot("t")
        snap.add(_record("com.a", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.a", "2" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent", downloads=50))
        analysis = detect_signature_clones(build_units(snap))
        assert ("com.a", "2" * 16) in analysis.clone_units
        assert analysis.originals["com.a"] == ("com.a", "1" * 16)

    def test_single_signer_not_flagged(self):
        snap = Snapshot("t")
        snap.add(_record("com.a", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play"))
        snap.add(_record("com.a", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent"))
        analysis = detect_signature_clones(build_units(snap))
        assert not analysis.clone_units

    def test_market_rates_exclude_original(self):
        snap = Snapshot("t")
        snap.add(_record("com.a", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.a", "2" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent", downloads=50))
        snap.add(_record("com.b", "3" * 16, {50: 1}, (9,), market="tencent"))
        rates = detect_signature_clones(build_units(snap)).market_rates(snap)
        assert rates["tencent"] == pytest.approx(0.5)
        assert rates["google_play"] == 0.0

    def test_developers_per_package(self):
        snap = Snapshot("t")
        for i, market in enumerate(("tencent", "baidu", "anzhi")):
            snap.add(_record("com.a", f"{i}" * 16, BASE_FEATURES, BASE_BLOCKS,
                             market=market, downloads=100 - i))
        counts = detect_signature_clones(build_units(snap)).developers_per_package()
        assert counts == [3]


def _clone_features(extra=1):
    features = dict(BASE_FEATURES)
    for i in range(extra):
        features[100 + i] = 2
    return features


def _clone_blocks(keep=37):
    return BASE_BLOCKS[:keep] + tuple(range(5000, 5000 + len(BASE_BLOCKS) - keep))


class TestCodeClones:
    def _snap_with_clone(self):
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.copy", "2" * 16, _clone_features(), _clone_blocks(),
                         market="tencent", downloads=10))
        snap.add(_record("com.other", "3" * 16, {i: 3 for i in range(200, 230)},
                         tuple(range(8000, 8040)), market="tencent"))
        return snap

    def test_clone_detected(self):
        snap = self._snap_with_clone()
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert ("com.copy", "2" * 16) in analysis.clone_units
        assert analysis.original_of[("com.copy", "2" * 16)] == ("com.orig", "1" * 16)

    def test_unrelated_app_not_flagged(self):
        snap = self._snap_with_clone()
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert ("com.other", "3" * 16) not in analysis.clone_units

    def test_same_signer_excluded(self):
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.port", "1" * 16, _clone_features(), _clone_blocks(),
                         market="tencent", downloads=10))
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert not analysis.clone_units

    def test_same_package_excluded(self):
        snap = Snapshot("t")
        snap.add(_record("com.same", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.same", "2" * 16, _clone_features(), _clone_blocks(),
                         market="tencent", downloads=10))
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert not analysis.clone_units  # signature-based territory

    def test_low_block_overlap_rejected(self):
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.half", "2" * 16, _clone_features(),
                         _clone_blocks(keep=20), market="tencent", downloads=10))
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert not analysis.clone_units

    def test_too_few_shared_blocks_rejected(self):
        # 7 of 8 blocks shared is 0.875 overlap, above the threshold, but
        # one short of min_shared_blocks: no candidate list may report it.
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, tuple(range(1, 9)),
                         market="google_play", downloads=10**7))
        snap.add(_record("com.copy", "2" * 16, BASE_FEATURES,
                         tuple(range(1, 8)) + (99,), market="tencent", downloads=10))
        detector = CodeCloneDetector()
        corpus = detector.extract(build_units(snap))
        lsh = lsh_candidate_pairs(corpus, detector.overlap_threshold)
        assert lsh == [(0, 1)]
        for candidates in (None, [(0, 1)], lsh):
            analysis = detector.detect_extracted(corpus, candidates=candidates)
            assert analysis.pairs == [] and not analysis.clone_units

    def test_large_feature_distance_rejected(self):
        far = dict(BASE_FEATURES)
        for i in range(300, 330):
            far[i] = 10
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.far", "2" * 16, far, _clone_blocks(keep=36),
                         market="tencent", downloads=10))
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert not analysis.clone_units

    def test_orientation_by_downloads(self):
        snap = Snapshot("t")
        snap.add(_record("com.poor", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent", downloads=10))
        snap.add(_record("com.rich", "2" * 16, _clone_features(), _clone_blocks(),
                         market="google_play", downloads=10**7))
        analysis = CodeCloneDetector().detect(build_units(snap))
        assert ("com.poor", "1" * 16) in analysis.clone_units

    def test_library_code_removed_before_comparison(self):
        # Two unrelated apps share a big library; removing it must stop a
        # false positive pairing.
        lib = CodePackage("com.biglib", {i: 10 for i in range(500, 560)},
                          tuple(range(9000, 9060)))
        snap = Snapshot("t")
        for i in range(4):
            own = CodePackage(
                f"com.app{i}", {i * 7 + 1: 2, i * 7 + 2: 1},
                (i * 13 + 1, i * 13 + 2),
            )
            apk = make_parsed(package=f"com.app{i}", packages=(own, lib),
                              signer=f"{i:016x}")
            snap.add(make_record(market_id="tencent", package=f"com.app{i}",
                                 downloads=100, apk=apk))
        units = build_units(snap)
        from repro.analysis.libraries import LibraryDetector

        detection = LibraryDetector().fit(units)
        with_removal = CodeCloneDetector().detect(units, detection)
        assert not with_removal.clone_units
        without_removal = CodeCloneDetector().detect(units, None)
        assert without_removal.clone_units  # the ablation: FPs without LibRadar

    def test_heatmap_source_attribution(self):
        snap = self._snap_with_clone()
        units = build_units(snap)
        analysis = CodeCloneDetector().detect(units)
        units_by_key = {(u.package, u.signer): u for u in units}
        heatmap = analysis.heatmap(units_by_key, ("google_play", "tencent"))
        assert heatmap[("google_play", "tencent")] == 1
        assert heatmap[("tencent", "google_play")] == 0


class TestCandidateBlocking:
    """The prefix filter must generate a superset of every reportable pair."""

    def _random_block_sets(self, seed, n=80):
        import random

        rng = random.Random(seed)
        sets = []
        for _ in range(n):
            size = rng.randint(0, 60)
            base = rng.randint(0, 40) * 25
            sets.append(tuple(rng.randrange(base, base + 120)
                              for _ in range(size)))
        # A few near-duplicate pairs that must qualify.
        for _ in range(8):
            src = rng.randrange(len(sets))
            blocks = list(sets[src])
            for _ in range(min(3, len(blocks))):
                if blocks and rng.random() < 0.5:
                    blocks[rng.randrange(len(blocks))] = rng.randrange(10_000)
            sets.append(tuple(blocks))
        return sets

    def test_prefix_covers_every_reportable_pair(self):
        # The guarantee: any pair that could pass scoring (enough shared
        # blocks AND block overlap >= the threshold) must be generated.
        # Sub-threshold pairs may legitimately be pruned.
        detector = CodeCloneDetector()
        for seed in range(5):
            blocks = self._random_block_sets(seed)
            sets = [set(b) for b in blocks]
            qualifying = {
                (i, j)
                for i in range(len(sets))
                for j in range(i + 1, len(sets))
                if sets[i] and sets[j]
                and len(sets[i] & sets[j]) >= detector.min_shared_blocks
                and (len(sets[i] & sets[j]) / max(len(sets[i]), len(sets[j]))
                     >= detector.overlap_threshold)
            }
            prefix = set(detector.candidate_pairs(blocks))
            assert qualifying <= prefix, (
                f"seed {seed}: reportable pairs missing from prefix: "
                f"{sorted(qualifying - prefix)[:5]}"
            )

    def test_strategies_detect_identically(self):
        # Prefix blocking, LSH and every pair all report the same clones.
        snap = Snapshot("t")
        snap.add(_record("com.orig", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.copy", "2" * 16, _clone_features(), _clone_blocks(),
                         market="tencent", downloads=10))
        snap.add(_record("com.other", "3" * 16, {i: 3 for i in range(200, 230)},
                         tuple(range(8000, 8040)), market="tencent"))
        detector = CodeCloneDetector()
        corpus = detector.extract(build_units(snap))
        prefix = detector.detect_extracted(corpus)
        for candidates in (_every_pair(corpus), lsh_candidate_pairs(corpus)):
            assert detector.detect_extracted(corpus, candidates=candidates) == prefix
        assert ("com.copy", "2" * 16) in prefix.clone_units

    def test_prefix_prunes_sub_threshold_pairs(self):
        # The point of blocking: dissimilar apps sharing a handful of
        # common blocks never collide in each other's prefixes.
        detector = CodeCloneDetector(min_shared_blocks=2)
        # 40 apps all sharing 2 common blocks but otherwise disjoint:
        # every pair meets the shared-block floor, none the overlap.
        blocks = [
            tuple([1, 2] + list(range(100 * i, 100 * i + 40)))
            for i in range(40)
        ]
        sets = [set(b) for b in blocks]
        sharing = [
            (i, j) for i, j in combinations(range(len(sets)), 2)
            if len(sets[i] & sets[j]) >= detector.min_shared_blocks
        ]
        assert len(sharing) == 40 * 39 // 2
        assert detector.candidate_pairs(blocks) == []

    def test_bad_permutation_count_rejected(self):
        corpus = CodeCloneDetector().extract([])
        with pytest.raises(ValueError):
            lsh_candidate_pairs(corpus, num_perm=0)


def _every_pair(corpus):
    """The brute-force candidate list: every unordered unit pair."""
    return list(combinations(range(len(corpus.units)), 2))


class TestPrefixAgainstEveryPair:
    """On a generated world, prefix blocking reports exactly what
    scoring every pair reports."""

    def test_detect_equals_every_pair_scored(self):
        from repro.core.config import StudyConfig
        from repro.core.study import Study

        result = Study(StudyConfig(seed=42, scale=0.0001)).run()
        detector = CodeCloneDetector()
        corpus = detector.extract(result.units, result.library_detection)
        prefix = detector.detect(result.units, result.library_detection)
        every = detector.detect_extracted(corpus, candidates=_every_pair(corpus))
        assert len(corpus.units) > 500
        assert len(prefix.pairs) > 50
        assert prefix == every


class TestMinHashEstimator:
    """The MinHash signature must estimate Jaccard similarity."""

    def _random_pair(self, rng, universe=5000):
        a = {rng.randrange(universe) for _ in range(rng.randint(30, 200))}
        shared = rng.random()
        b = {x for x in a if rng.random() < shared}
        b |= {rng.randrange(universe) for _ in range(rng.randint(0, 80))}
        return a, b

    def test_estimate_converges_to_true_jaccard(self):
        # Each signature position agrees with probability J, so the
        # estimate is a mean of k Bernoulli(J) draws: sd = sqrt(J(1-J)/k).
        # With k=256, a 5-sigma band (~0.16 worst case) never trips on a
        # fixed seed while still catching a broken hash family.
        import random

        k = 256
        coeffs = _minhash_coeffs(seed=0, num_perm=k)
        rng = random.Random(7)
        for _ in range(25):
            a, b = self._random_pair(rng)
            true_j = len(a & b) / len(a | b) if a | b else 1.0
            est = minhash_jaccard_estimate(
                minhash_signature(tuple(a), coeffs),
                minhash_signature(tuple(b), coeffs),
            )
            sigma = max((true_j * (1 - true_j) / k) ** 0.5, 1e-9)
            assert abs(est - true_j) <= max(5 * sigma, 0.02), (
                f"estimate {est:.3f} vs true {true_j:.3f}"
            )

    def test_identical_sets_estimate_one(self):
        coeffs = _minhash_coeffs(seed=0, num_perm=64)
        sig = minhash_signature((1, 2, 3, 4, 5), coeffs)
        assert minhash_jaccard_estimate(sig, sig) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        coeffs = _minhash_coeffs(seed=0, num_perm=128)
        a = minhash_signature(tuple(range(100)), coeffs)
        b = minhash_signature(tuple(range(10_000, 10_100)), coeffs)
        assert minhash_jaccard_estimate(a, b) < 0.05

    def test_signature_ignores_block_order_and_multiplicity(self):
        coeffs = _minhash_coeffs(seed=0, num_perm=64)
        a = minhash_signature((3, 1, 2, 2, 1), coeffs)
        b = minhash_signature((1, 2, 3), coeffs)
        assert np.array_equal(a, b)

    def test_seed_changes_signature(self):
        blocks = tuple(range(50))
        a = minhash_signature(blocks, _minhash_coeffs(seed=0, num_perm=64))
        b = minhash_signature(blocks, _minhash_coeffs(seed=1, num_perm=64))
        assert not np.array_equal(a, b)

    def test_overlap_to_jaccard_bound(self):
        # overlap t guarantees J >= t/(2-t); equality at |A| = |B|.
        assert overlap_to_jaccard(1.0) == 1.0
        assert overlap_to_jaccard(0.85) == pytest.approx(0.85 / 1.15)
        a = frozenset(range(100))
        b = frozenset(range(15, 115))  # |A∩B|=85, overlap 0.85
        jac = len(a & b) / len(a | b)
        assert jac == pytest.approx(overlap_to_jaccard(0.85))


class TestLSHParams:
    def test_default_derivation(self):
        assert derive_lsh_params(0.85, num_perm=128) == (32, 4)

    def test_band_budget_respected(self):
        for t in (0.5, 0.7, 0.85, 0.95):
            bands, rows = derive_lsh_params(t, num_perm=128)
            assert bands * rows <= 128

    def test_collision_probability_meets_target(self):
        for t in (0.5, 0.7, 0.85, 0.95):
            bands, rows = derive_lsh_params(t, num_perm=128)
            j = overlap_to_jaccard(t)
            assert 1 - (1 - j**rows) ** bands >= 0.999

    def test_rows_maximal_for_target(self):
        # The contract: the next-steeper configuration must miss the
        # recall target (otherwise derive should have picked it).
        bands, rows = derive_lsh_params(0.85, num_perm=128)
        j = overlap_to_jaccard(0.85)
        steeper_rows = rows + 1
        steeper_bands = 128 // steeper_rows
        assert 1 - (1 - j**steeper_rows) ** steeper_bands < 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_lsh_params(0.0)
        with pytest.raises(ValueError):
            derive_lsh_params(0.85, num_perm=0)


def _family_snapshot(n_families=6, family_size=5, seed=3):
    """A snapshot of near-duplicate families plus unrelated filler —
    big enough that worker-count determinism is non-trivial."""
    import random

    rng = random.Random(seed)
    snap = Snapshot("t")
    for fam in range(n_families):
        base_features = {fam * 50 + i: 10 for i in range(30)}
        base_blocks = list(range(fam * 10_000, fam * 10_000 + 40))
        for member in range(family_size):
            blocks = list(base_blocks)
            for _ in range(min(3, member)):
                blocks[rng.randrange(len(blocks))] = rng.randrange(10**6)
            features = dict(base_features)
            features[9_000 + member] = 1
            snap.add(_record(
                f"com.fam{fam}.m{member}", f"{fam:02d}{member:02d}" * 4,
                features, tuple(blocks),
                market="tencent" if member else "google_play",
                downloads=10**6 if member == 0 else rng.randint(10, 500),
            ))
    for i in range(20):
        snap.add(_record(
            f"com.noise{i}", f"ee{i:02d}" * 4,
            {5_000 + i * 11 + k: 2 for k in range(10)},
            tuple(range(500_000 + i * 97, 500_000 + i * 97 + 12)),
            market="baidu", downloads=100,
        ))
    return snap


class TestMinHashCandidates:
    def test_minhash_detects_identically_to_prefix(self):
        detector = CodeCloneDetector()
        corpus = detector.extract(build_units(_family_snapshot()))
        minhash = detector.detect_extracted(
            corpus, candidates=lsh_candidate_pairs(corpus)
        )
        assert minhash == detector.detect_extracted(corpus)
        assert len(minhash.pairs) > 0

    def test_candidates_identical_across_worker_counts(self):
        corpus = CodeCloneDetector().extract(build_units(_family_snapshot()))
        per_width = [
            lsh_candidate_pairs(corpus, engine=AnalysisEngine(workers=w))
            for w in (1, 4, 8)
        ]
        assert per_width[0] == per_width[1] == per_width[2]
        assert per_width[0] == sorted(per_width[0])  # canonical order

    def test_reports_identical_across_worker_counts(self):
        detector = CodeCloneDetector()
        corpus = detector.extract(build_units(_family_snapshot()))
        reports = []
        for w in (1, 4, 8):
            engine = AnalysisEngine(workers=w)
            candidates = lsh_candidate_pairs(corpus, engine=engine)
            reports.append(detector.detect_extracted(corpus, engine, candidates))
        assert reports[0].pairs == reports[1].pairs == reports[2].pairs
        assert reports[0].clone_units == reports[1].clone_units

    def test_same_seed_reproduces_candidates(self):
        corpus = CodeCloneDetector().extract(build_units(_family_snapshot()))
        runs = [
            lsh_candidate_pairs(corpus, engine=AnalysisEngine(workers=4), seed=9)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_detection_stable_across_minhash_seeds(self):
        # Different seeds permute the hash family (candidate sets may
        # differ) but every reportable pair must still be recovered.
        detector = CodeCloneDetector()
        corpus = detector.extract(build_units(_family_snapshot()))
        reference = detector.detect_extracted(corpus)
        for seed in (0, 1):
            candidates = lsh_candidate_pairs(corpus, seed=seed)
            probe = detector.detect_extracted(corpus, candidates=candidates)
            assert set(probe.pairs) == set(reference.pairs)

    def test_empty_block_units_never_pair(self):
        snap = _family_snapshot(n_families=2)
        snap.add(_record("com.empty", "aa" * 8, {1: 1}, (), market="tencent"))
        corpus = CodeCloneDetector().extract(build_units(snap))
        empty = corpus.keys.index(("com.empty", "aa" * 8))
        assert all(empty not in pair for pair in lsh_candidate_pairs(corpus))


def _recall(corpus, candidates):
    """Share of prefix blocking's reported pairs that ``candidates``
    also report (1.0 when prefix reports none), and prefix's count."""
    detector = CodeCloneDetector()
    reference = set(detector.detect_extracted(corpus).pairs)
    probe = set(detector.detect_extracted(corpus, candidates=candidates).pairs)
    if not reference:
        return 1.0, 0
    return len(reference & probe) / len(reference), len(reference)


class TestMinHashRecall:
    def test_full_recall_on_synthetic_families(self):
        corpus = CodeCloneDetector().extract(build_units(_family_snapshot()))
        recall, reference = _recall(corpus, lsh_candidate_pairs(corpus))
        assert reference > 0
        assert recall == 1.0

    def test_single_unit_gives_no_candidates(self):
        snap = Snapshot("t")
        snap.add(_record("com.solo", "1" * 16, BASE_FEATURES, BASE_BLOCKS))
        corpus = CodeCloneDetector().extract(build_units(snap))
        assert lsh_candidate_pairs(corpus) == []
        assert CodeCloneDetector().detect_extracted(corpus).pairs == []

    def test_recall_on_repackaging_chain_world(self):
        # End-to-end guardrail on a generated adversarial world: deep
        # repackaging chains and shared-key clusters, the corpus shape
        # LSH candidates exist for.
        from repro.core.config import StudyConfig
        from repro.core.study import Study

        result = Study(StudyConfig(
            seed=7, scale=0.0002, clone_families="adversarial",
        )).run()
        depths = {app.clone_depth for app in result.world.apps}
        assert max(depths) >= 3, "adversarial world should build chains"
        corpus = CodeCloneDetector().extract(result.units, result.library_detection)
        recall, reference = _recall(corpus, lsh_candidate_pairs(corpus))
        assert reference > 50
        assert recall >= 0.99


class TestMarketRatesHelper:
    """Both Table 3 columns rate clones through one shared helper."""

    def _mixed_snapshot(self):
        snap = Snapshot("t")
        # Signature-based clone: same package, two signers.
        snap.add(_record("com.sb", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="google_play", downloads=10**7))
        snap.add(_record("com.sb", "2" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent", downloads=50))
        # Code-based clone: different package, near-identical code —
        # distinct from the SB pair's code so the groups never cross-pair.
        cb_features = {i: 10 for i in range(200, 230)}
        cb_blocks = tuple(range(2000, 2040))
        cb_copy_features = {**cb_features, 300: 2}
        cb_copy_blocks = cb_blocks[:37] + tuple(range(6000, 6003))
        snap.add(_record("com.cb.orig", "3" * 16, cb_features, cb_blocks,
                         market="google_play", downloads=10**6))
        snap.add(_record("com.cb.copy", "4" * 16, cb_copy_features,
                         cb_copy_blocks, market="tencent", downloads=10))
        # Clean filler in both markets.
        snap.add(_record("com.clean", "5" * 16, {900: 3}, (42, 43),
                         market="tencent", downloads=10))
        snap.add(_record("com.clean2", "6" * 16, {901: 3}, (44, 45),
                         market="baidu", downloads=10))
        return snap

    def test_regression_pin_both_columns(self):
        # Pinned outputs: tencent hosts 3 listings (1 SB clone, 1 CB
        # clone), google_play hosts the originals, baidu only filler.
        snap = self._mixed_snapshot()
        units = build_units(snap)
        sb = detect_signature_clones(units).market_rates(snap)
        cb = CodeCloneDetector().detect(units).market_rates(snap)
        assert sb == {
            "google_play": 0.0,
            "tencent": pytest.approx(1 / 3),
            "baidu": 0.0,
        }
        assert cb == {
            "google_play": 0.0,
            "tencent": pytest.approx(1 / 3),
            "baidu": 0.0,
        }

    def test_analyses_delegate_to_shared_helper(self):
        snap = self._mixed_snapshot()
        units = build_units(snap)
        sig = detect_signature_clones(units)
        code = CodeCloneDetector().detect(units)
        assert sig.market_rates(snap) == clone_market_rates(sig.clone_units, snap)
        assert code.market_rates(snap) == clone_market_rates(code.clone_units, snap)

    def test_empty_market_rates_zero(self):
        snap = Snapshot("t")
        snap.add(_record("com.a", "1" * 16, BASE_FEATURES, BASE_BLOCKS,
                         market="tencent"))
        assert clone_market_rates(set(), snap) == {"tencent": 0.0}
