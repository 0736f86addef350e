"""Clone detection (Section 6.2, Table 3, Figure 10).

Two detectors, as in the paper:

* **Signature-based**: apps sharing a package name but signed with
  different developer keys.  Package names are supposed to be globally
  unique, so a multi-signature package cluster means someone repackaged
  someone else's app.  The member with the most downloads is taken as
  the original (the paper's heuristic).
* **Code-based** (WuKong): apps with different package names whose
  feature vectors — Android API calls, Intents, Content Providers, with
  third-party library code removed first — sit within a normalized
  Manhattan distance of 0.05 (95% similarity), refined by a second
  phase requiring >=85% shared code segments.

Candidate pairing for the code-based phase is **prefix-filtered
blocking** over code-segment hashes: each app indexes only a short,
rarest-first prefix of its block set, sized so that any pair meeting
the overlap and shared-block thresholds provably collides on at least
one indexed block.  It is exact (a provable superset of every
reportable pair), but a block shared across a large near-duplicate
family lands inside every member's prefix, so posting lists — and
candidate counts — degrade back toward O(family²) on
repackaging-heavy corpora.

:func:`lsh_candidate_pairs` is the fast alternative over an extracted
:class:`CloneCorpus`: fixed-seed k-permutation MinHash over each unit's
distinct residual block set, with (bands, rows) derived from
``overlap_threshold`` so the collision curve is steep around the
reporting threshold (see :func:`derive_lsh_params`).  It is
probabilistic, so its recall against prefix blocking's reported pairs
is a *measured* floor in the analysis bench, but candidate generation
is fully vectorized, which keeps it sub-quadratic in practice on
adversarial near-duplicate families.  Its candidates feed
:meth:`CodeCloneDetector.detect_extracted`.

Candidate scoring fans out across the analysis engine's worker pool
with a deterministic merge, and both generators return candidates in
canonical sorted order — so reports are bit-identical at any worker
width.  Scoring applies every threshold itself, so the reported set
depends on the thresholds, never on which generator found the
candidates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.corpus import AppUnit
from repro.analysis.engine import INLINE_ENGINE, AnalysisEngine
from repro.analysis.libraries import LibraryDetection
from repro.crawler.snapshot import Snapshot
from repro.util.rng import stable_hash64

__all__ = [
    "feature_distance",
    "block_overlap",
    "clone_market_rates",
    "SignatureCloneAnalysis",
    "detect_signature_clones",
    "ClonePair",
    "CloneCorpus",
    "CodeCloneAnalysis",
    "CodeCloneDetector",
    "derive_lsh_params",
    "overlap_to_jaccard",
    "minhash_signature",
    "minhash_jaccard_estimate",
    "lsh_candidate_pairs",
]

UnitKey = Tuple[str, Optional[str]]

#: Default MinHash signature length (k permutations).
DEFAULT_MINHASH_PERMUTATIONS = 128

#: Predicted collision probability a true-positive pair must reach at
#: the overlap threshold's Jaccard equivalent when deriving (bands,
#: rows).  The *measured* floor lives in the bench; this is the design
#: margin the derivation aims for.
LSH_TARGET_RECALL = 0.999

#: Signature value for a unit with no residual blocks at all.  Empty
#: units are excluded from LSH banding (they can never reach a nonzero
#: overlap), as prefix blocking never pairs them either.
_EMPTY_SIGNATURE = np.uint64(0xFFFFFFFFFFFFFFFF)


def feature_distance(a: Dict[int, int], b: Dict[int, int]) -> float:
    """The paper's normalized Manhattan distance:
    sum(|A_i - B_i|) / sum(A_i + B_i)."""
    num = 0
    den = 0
    for fid, count in a.items():
        other = b.get(fid, 0)
        num += abs(count - other)
        den += count + other
    for fid, count in b.items():
        if fid not in a:
            num += count
            den += count
    if den == 0:
        return 0.0
    return num / den


def block_overlap(a: Sequence[int], b: Sequence[int]) -> float:
    """Shared code-segment ratio (against the larger segment set)."""
    return _set_overlap(set(a), set(b))


def _set_overlap(sa: FrozenSet[int], sb: FrozenSet[int]) -> float:
    """:func:`block_overlap` over pre-built sets (the scoring hot path
    builds one frozenset per unit up front instead of two per pair)."""
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / max(len(sa), len(sb))


def clone_market_rates(
    clone_units: Set[UnitKey], snapshot: Snapshot
) -> Dict[str, float]:
    """Table 3 rates: share of each market's listings whose
    ``(package, signer)`` identity is in ``clone_units``.

    Shared by the SB and CB columns — both analyses flag clones as unit
    keys and rate them against the same listing denominators.
    """
    rates: Dict[str, float] = {}
    clone_index: Dict[str, Set[Optional[str]]] = {}
    for package, signer in clone_units:
        clone_index.setdefault(package, set()).add(signer)
    for market in snapshot.markets():
        records = snapshot.in_market(market)
        if not records:
            rates[market] = 0.0
            continue
        clones = sum(
            1 for record in records
            if record.signer in clone_index.get(record.package, ())
        )
        rates[market] = clones / len(records)
    return rates


# ---------------------------------------------------------------------------
# signature-based clones
# ---------------------------------------------------------------------------


@dataclass
class SignatureCloneAnalysis:
    """Multi-signature package clusters."""

    clusters: Dict[str, List[AppUnit]]  # package -> units (>=2 signers)
    originals: Dict[str, UnitKey]  # package -> original unit key
    clone_units: Set[UnitKey]

    def market_rates(self, snapshot: Snapshot) -> Dict[str, float]:
        """Table 3's SB column: share of each market's listings that are
        signature-based clones (non-original cluster members)."""
        return clone_market_rates(self.clone_units, snapshot)

    def developers_per_package(self) -> List[int]:
        """Figure 8(c)'s data: signer count per multi-signature package."""
        return sorted(
            len({u.signer for u in units}) for units in self.clusters.values()
        )


def detect_signature_clones(units: Sequence[AppUnit]) -> SignatureCloneAnalysis:
    """Cluster units by package; flag multi-signer clusters."""
    by_package: Dict[str, List[AppUnit]] = {}
    for unit in units:
        if unit.signer is None:
            continue
        by_package.setdefault(unit.package, []).append(unit)

    clusters: Dict[str, List[AppUnit]] = {}
    originals: Dict[str, UnitKey] = {}
    clone_units: Set[UnitKey] = set()
    for package, members in by_package.items():
        signers = {u.signer for u in members}
        if len(signers) < 2:
            continue
        clusters[package] = members
        original = max(members, key=lambda u: (u.max_downloads or -1))
        originals[package] = (original.package, original.signer)
        for unit in members:
            if unit.signer != original.signer:
                clone_units.add((unit.package, unit.signer))
    return SignatureCloneAnalysis(
        clusters=clusters, originals=originals, clone_units=clone_units
    )


# ---------------------------------------------------------------------------
# code-based clones (WuKong)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClonePair:
    """One detected (original, clone) pair."""

    original: UnitKey
    clone: UnitKey
    distance: float
    overlap: float


@dataclass
class CloneCorpus:
    """Per-unit inputs of the code-based phase, extracted once.

    ``block_sets`` carries one frozenset per unit so scoring a candidate
    is a single O(min) set intersection — no per-pair set rebuilds — and
    prefix and LSH candidates can be scored over the same extraction.
    """

    units: List[AppUnit]
    keys: List[UnitKey]
    residual_features: List[Dict[int, int]]
    residual_blocks: List[Tuple[int, ...]]
    block_sets: List[FrozenSet[int]]
    downloads: List[int]


@dataclass
class CodeCloneAnalysis:
    pairs: List[ClonePair]
    clone_units: Set[UnitKey]
    original_of: Dict[UnitKey, UnitKey]  # clone -> its best original

    def market_rates(self, snapshot: Snapshot) -> Dict[str, float]:
        """Table 3's CB column."""
        return clone_market_rates(self.clone_units, snapshot)

    def heatmap(
        self, units_by_key: Dict[UnitKey, AppUnit], markets: Sequence[str]
    ) -> Dict[Tuple[str, str], int]:
        """Figure 10: (source market, destination market) -> clone count.

        The source is the market where the original has the most
        downloads; each market listing of the clone counts once.
        """
        counts: Dict[Tuple[str, str], int] = {
            (src, dst): 0 for src in markets for dst in markets
        }
        from repro.analysis.corpus import normalized_downloads

        for clone_key, original_key in self.original_of.items():
            original = units_by_key.get(original_key)
            clone = units_by_key.get(clone_key)
            if original is None or clone is None:
                continue
            best_market = None
            best_downloads = -1
            for record in original.records:
                downloads = normalized_downloads(record) or 0
                if downloads > best_downloads:
                    best_downloads = downloads
                    best_market = record.market_id
            if best_market is None:
                continue
            for market in clone.markets:
                if (best_market, market) in counts:
                    counts[(best_market, market)] += 1
        return counts


# -- MinHash / LSH machinery -------------------------------------------------


def overlap_to_jaccard(overlap: float) -> float:
    """The Jaccard similarity implied by the detector's overlap metric.

    The detector scores ``|A ∩ B| / max(|A|, |B|)``, which upper-bounds
    Jaccard; overlap >= t implies ``J >= t / (2 - t)`` (worst case at
    ``|A| = |B|``).  LSH parameters must guarantee collisions down at
    this Jaccard level, not at ``t`` itself.
    """
    return overlap / (2.0 - overlap)


def derive_lsh_params(
    overlap_threshold: float,
    num_perm: int = DEFAULT_MINHASH_PERMUTATIONS,
    target_recall: float = LSH_TARGET_RECALL,
) -> Tuple[int, int]:
    """Derive ``(bands, rows)`` from the reporting threshold.

    A pair at Jaccard ``j`` collides in at least one band with
    probability ``1 - (1 - j^rows)^bands``.  Larger ``rows`` steepens
    the collision curve (fewer sub-threshold candidates) at the cost of
    recall near the threshold, so the contract is: pick the *largest*
    ``rows`` (with ``bands = num_perm // rows``) whose predicted
    collision probability at ``overlap_to_jaccard(overlap_threshold)``
    still reaches ``target_recall``.  For the defaults (t=0.85, 128
    permutations) this lands on 32 bands x 4 rows.
    """
    if not 0 < overlap_threshold <= 1:
        raise ValueError(
            f"overlap_threshold must be in (0, 1], got {overlap_threshold}"
        )
    if num_perm < 1:
        raise ValueError(f"num_perm must be positive, got {num_perm}")
    jaccard = overlap_to_jaccard(overlap_threshold)
    for rows in range(num_perm, 0, -1):
        bands = num_perm // rows
        collision = 1.0 - (1.0 - jaccard**rows) ** bands
        if collision >= target_recall:
            return bands, rows
    return num_perm, 1


def _minhash_coeffs(seed: int, num_perm: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-seed multiply-add hash family over uint64 (odd multipliers,
    natural mod-2^64 wraparound)."""
    a = np.asarray(
        [stable_hash64("minhash-a", seed, i) | 1 for i in range(num_perm)],
        dtype=np.uint64,
    )
    b = np.asarray(
        [stable_hash64("minhash-b", seed, i) for i in range(num_perm)],
        dtype=np.uint64,
    )
    return a, b


def minhash_signature(
    blocks: Sequence[int], coeffs: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """k-permutation MinHash signature of a block set.

    ``sig[i] = min over blocks x of (a_i * x + b_i) mod 2^64`` — the
    standard universal-hash approximation of row permutations.  Two
    signatures agree at position i with probability equal to the sets'
    Jaccard similarity.
    """
    a, b = coeffs
    if not blocks:
        return np.full(len(a), _EMPTY_SIGNATURE, dtype=np.uint64)
    # No dedup needed: the min over a multiset equals the min over its
    # distinct values, so repeated blocks cannot change the signature.
    x = np.asarray(blocks, dtype=np.uint64)
    hashed = x[None, :] * a[:, None] + b[:, None]
    return hashed.min(axis=1)


def minhash_jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """The unbiased Jaccard estimate: share of agreeing positions."""
    return float(np.mean(sig_a == sig_b))


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) - np.repeat(ends - counts, counts)


def _run_pairs(starts: np.ndarray, widths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All within-run position pairs (p, q), p < q, for ragged runs.

    Given runs ``[starts[r], starts[r] + widths[r])`` of a sorted array,
    returns two flat position arrays enumerating every unordered pair
    inside every run — pure integer cumsum/repeat arithmetic, no
    per-run Python loop (buckets number in the thousands; per-bucket
    numpy calls would dominate the whole candidate stage).
    """
    # Left element p of run r takes every q in (p, widths[r]).
    lefts = _ragged_arange(widths - 1)  # one entry per (run, p)
    run_of_left = np.repeat(np.arange(len(widths)), widths - 1)
    partners = widths[run_of_left] - 1 - lefts  # q count for each p
    base = np.repeat(starts[run_of_left], partners)
    p = np.repeat(lefts, partners)
    q = p + 1 + _ragged_arange(partners)
    return base + p, base + q


def lsh_candidate_pairs(
    corpus: CloneCorpus,
    overlap_threshold: float = 0.85,
    engine: Optional[AnalysisEngine] = None,
    num_perm: int = DEFAULT_MINHASH_PERMUTATIONS,
    seed: int = 0,
) -> List[Tuple[int, int]]:
    """MinHash signatures + banded LSH candidate pairs, in canonical
    sorted order.

    Each unit is signed from its residual blocks, which extraction
    already holds, so signing opens no APK.  Signatures fan out over
    the engine's worker pool.
    """
    bands, rows = derive_lsh_params(overlap_threshold, num_perm)
    coeffs = _minhash_coeffs(seed, bands * rows)
    signatures = (engine or INLINE_ENGINE).map(
        corpus.residual_blocks,
        lambda blocks: minhash_signature(blocks, coeffs),
        stage="analysis.clones.minhash",
    )
    return _banded_pairs(signatures, corpus.block_sets, bands, rows)


def _banded_pairs(
    signatures: Sequence[np.ndarray],
    block_sets: Sequence[FrozenSet[int]],
    bands: int,
    rows: int,
) -> List[Tuple[int, int]]:
    """Banded LSH bucketing with vectorized pair generation.

    Within a genuine near-duplicate family an exact generator must
    emit ~|family|² candidates too — the speed win here is constant
    factor, not asymptotic: band keys, bucket grouping, pair encoding,
    and dedup all run as array operations instead of per-element Python
    set updates.
    """
    n = len(signatures)
    active = np.asarray(
        [i for i in range(n) if block_sets[i]], dtype=np.int64
    )
    if len(active) < 2:
        return []
    sig = np.vstack([signatures[int(i)] for i in active])
    # Collapse each band's rows into one 64-bit key via a multiply-add
    # chain.  A key collision between distinct row vectors only adds a
    # spurious candidate (scoring filters it); it can never lose a pair.
    mult = np.uint64(0x9E3779B97F4A7C15)
    banded = sig[:, : bands * rows].reshape(len(active), bands, rows)
    keys = np.zeros((len(active), bands), dtype=np.uint64)
    for r in range(rows):
        keys = keys * mult + banded[:, :, r]

    stride = np.int64(n)
    encoded: List[np.ndarray] = []
    for band in range(bands):
        col = keys[:, band]
        # Bucket membership is an equality grouping, so any sort order
        # works; pairs are canonicalized (lo, hi) below and the final
        # np.unique fixes the global order — output is sort-agnostic.
        order = np.argsort(col)
        ordered = col[order]
        edges = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
        widths = np.diff(edges)
        multi = widths >= 2
        if not multi.any():
            continue
        ii, jj = _run_pairs(edges[:-1][multi], widths[multi])
        u = active[order[ii]]
        v = active[order[jj]]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        encoded.append(lo * stride + hi)
    if not encoded:
        return []
    # One global sort+dedup yields the canonical (i, j) order directly:
    # codes i*n+j sort exactly like tuples (i, j).
    codes = np.unique(np.concatenate(encoded))
    return list(zip((codes // stride).tolist(), (codes % stride).tolist()))


class CodeCloneDetector:
    """WuKong-style two-phase detector over prefix-filtered blocking.

    A pair is reported when the two units differ in package and signer,
    share at least ``min_shared_blocks`` distinct code segments, reach
    ``overlap_threshold`` block overlap, and sit within
    ``distance_threshold`` feature distance.  Scoring checks all of
    these, so :meth:`detect_extracted` reports the same pairs from any
    candidate superset (prefix blocking's, or every pair).
    """

    def __init__(
        self,
        distance_threshold: float = 0.05,
        overlap_threshold: float = 0.85,
        min_shared_blocks: int = 8,
    ):
        self.distance_threshold = distance_threshold
        self.overlap_threshold = overlap_threshold
        self.min_shared_blocks = min_shared_blocks

    def detect(
        self,
        units: Sequence[AppUnit],
        library_detection: Optional[LibraryDetection] = None,
        engine: Optional[AnalysisEngine] = None,
    ) -> CodeCloneAnalysis:
        engine = engine or INLINE_ENGINE
        corpus = self.extract(units, library_detection, engine)
        return self.detect_extracted(corpus, engine)

    def extract(
        self,
        units: Sequence[AppUnit],
        library_detection: Optional[LibraryDetection] = None,
        engine: Optional[AnalysisEngine] = None,
    ) -> CloneCorpus:
        """Library removal + per-unit feature/block extraction.

        Candidate-independent: the tests and benches extract once and
        score prefix and LSH candidates over the same corpus.
        """
        engine = engine or INLINE_ENGINE
        lib_digests = frozenset(
            library_detection.library_digests if library_detection else ()
        )
        eligible = [u for u in units if u.apk is not None and u.signer is not None]

        def extract_one(unit: AppUnit) -> Tuple[Dict[int, int], Tuple[int, ...]]:
            features: Dict[int, int] = {}
            blocks: List[int] = []
            for pkg in unit.apk.packages:
                if pkg.feature_digest in lib_digests:
                    continue
                for fid, count in pkg.features.items():
                    features[fid] = features.get(fid, 0) + count
                blocks.extend(pkg.blocks)
            return features, tuple(blocks)

        extracted = engine.map(eligible, extract_one, stage="analysis.clones.extract")
        return CloneCorpus(
            units=eligible,
            keys=[(u.package, u.signer) for u in eligible],
            residual_features=[features for features, _ in extracted],
            residual_blocks=[blocks for _, blocks in extracted],
            block_sets=[frozenset(blocks) for _, blocks in extracted],
            downloads=[u.max_downloads or 0 for u in eligible],
        )

    def detect_extracted(
        self,
        corpus: CloneCorpus,
        engine: Optional[AnalysisEngine] = None,
        candidates: Optional[List[Tuple[int, int]]] = None,
    ) -> CodeCloneAnalysis:
        """Candidate generation + scoring over an extracted corpus."""
        engine = engine or INLINE_ENGINE
        if candidates is None:
            candidates = self.candidate_pairs(corpus.residual_blocks)
        keys = corpus.keys
        block_sets = corpus.block_sets
        residual_features = corpus.residual_features
        downloads = corpus.downloads

        def score(pair: Tuple[int, int]) -> Optional[Tuple[int, int, float, float]]:
            i, j = pair
            key_i, key_j = keys[i], keys[j]
            if key_i[0] == key_j[0]:
                return None  # same package: signature-based territory
            if key_i[1] == key_j[1]:
                return None  # same developer: legitimate reuse
            overlap = _set_overlap(block_sets[i], block_sets[j])
            if overlap < self.overlap_threshold:
                return None
            if len(block_sets[i] & block_sets[j]) < self.min_shared_blocks:
                return None  # too few shared segments, whatever the ratio
            distance = feature_distance(residual_features[i], residual_features[j])
            if distance > self.distance_threshold:
                return None
            return i, j, distance, overlap

        # Candidates are scored in parallel (each score is a pure pair
        # comparison) and merged back in candidate order, so the result
        # is identical at any worker count.
        scored = engine.map(candidates, score, stage="analysis.clones.score")

        pairs: List[ClonePair] = []
        best_original: Dict[UnitKey, Tuple[float, UnitKey]] = {}
        clone_units: Set[UnitKey] = set()
        for hit in scored:
            if hit is None:
                continue
            i, j, distance, overlap = hit
            if downloads[i] >= downloads[j]:
                original, clone = keys[i], keys[j]
            else:
                original, clone = keys[j], keys[i]
            pairs.append(
                ClonePair(original=original, clone=clone, distance=distance, overlap=overlap)
            )
            clone_units.add(clone)
            prior = best_original.get(clone)
            if prior is None or distance < prior[0]:
                best_original[clone] = (distance, original)

        return CodeCloneAnalysis(
            pairs=pairs,
            clone_units=clone_units,
            original_of={clone: orig for clone, (_, orig) in best_original.items()},
        )

    def candidate_pairs(
        self, residual_blocks: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[int, int]]:
        """Prefix-filtered blocking over distinct block hashes, in
        canonical sorted order.

        Any reported pair (i, j) must satisfy ``|B_i & B_j| >= c`` with
        ``c = max(min_shared_blocks, ceil(t * max(|B_i|, |B_j|)))``
        (scoring demands ``min_shared_blocks`` shared segments and
        overlap ``>= t``).  Order every unit's distinct blocks by a
        global canonical key (rarest block first) and index only the
        first ``|B_i| - c_i + 1`` of them, where
        ``c_i = max(min_shared_blocks, ceil(t * |B_i|))``.

        Superset proof: let S = B_i & B_j with |S| >= max(c_i, c_j) and
        let s be S's smallest block under the global order.  At least
        |S| - 1 >= c_i - 1 blocks of B_i sort after s, so s sits within
        the first |B_i| - (c_i - 1) = prefix positions of B_i — and
        symmetrically for B_j.  Hence every qualifying pair collides on
        s in both prefixes and is generated; pairs below the thresholds
        may or may not be, which only costs scoring work, never a
        detection.
        """
        t = self.overlap_threshold
        distinct: List[List[int]] = [sorted(set(b)) for b in residual_blocks]
        rarity: Counter = Counter()
        for blocks in distinct:
            rarity.update(blocks)

        index: Dict[int, List[int]] = {}
        candidates: Set[Tuple[int, int]] = set()
        for idx, blocks in enumerate(distinct):
            size = len(blocks)
            # The 1e-9 slack keeps float round-up from over-shrinking
            # the prefix (which could silently drop true pairs).
            required = max(
                self.min_shared_blocks, int(math.ceil(t * size - 1e-9))
            )
            prefix_len = size - required + 1
            if prefix_len <= 0:
                continue  # cannot reach the shared-block floor at all
            blocks.sort(key=lambda b: (rarity[b], b))
            for block in blocks[:prefix_len]:
                posting = index.setdefault(block, [])
                for other in posting:
                    candidates.add((other, idx))
                posting.append(idx)
        return sorted(candidates)
