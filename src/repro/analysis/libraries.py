"""Third-party library detection (Section 4.4, Figure 5, Table 2).

Reimplements the clustering approach of LibRadar on the crawled corpus:
a code package whose feature digest recurs across enough *distinct apps
by distinct developers* is third-party code, not first-party code.  The
feature digest ignores package names entirely, which is what makes the
approach obfuscation-resilient — 360-packed apps cluster with their
unpacked siblings, and name resolution recovers the unobfuscated
identity from markets that serve unpacked builds.

The paper then manually labeled the top clusters using AppBrain,
PrivacyGrade and the Common Library lists; our equivalent knowledge base
is the *public* name/category information of known SDKs (sourced from
the catalog's public attributes — never its usage targets or any
per-world state).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.corpus import AppUnit
from repro.analysis.engine import INLINE_ENGINE, AnalysisEngine, UnitAnalyzer, UnitWalk
from repro.markets.profiles import GOOGLE_PLAY

__all__ = [
    "DetectedLibrary",
    "LibraryDetection",
    "LibraryDetector",
    "known_library_categories",
    "extract_package_digests",
    "AD_CATEGORY",
    "LIBFEATURES",
    "LIBFEATURES_VERSION",
]

AD_CATEGORY = "Advertisement"
UNKNOWN_CATEGORY = "Unknown"

#: Artifact-cache version of the per-APK package-digest extraction.
#: Bump when the digest definition or the extraction output changes.
LIBFEATURES_VERSION = "1"


def extract_package_digests(apk) -> List[Tuple[str, int]]:
    """Per-APK (code-package name, feature digest) pairs.

    A pure function of the APK bytes — this is the per-APK half of
    LibRadar-style detection, and what the artifact cache stores under
    the ``libfeatures`` analyzer.  The corpus-level clustering that
    turns digests into library identities stays in :meth:`fit`.
    """
    return [(pkg.name, pkg.feature_digest) for pkg in apk.packages]


#: The per-APK half of :meth:`LibraryDetector.fit`, as the engine runs it.
LIBFEATURES = UnitAnalyzer(
    "libfeatures",
    LIBFEATURES_VERSION,
    extract_package_digests,
    encode=lambda pairs: [[name, digest] for name, digest in pairs],
    decode=lambda payload: [(str(name), int(digest)) for name, digest in payload],
)

#: Obfuscated package names produced by packers (e.g. 360 Jiagubao).
_OBFUSCATED_RE = re.compile(r"^o\.[0-9a-f]{6,}$")


def known_library_categories() -> Dict[str, str]:
    """Public SDK package -> category knowledge base.

    Mirrors the paper's use of AppBrain / PrivacyGrade / Common Library
    classifications.  Only public identity data (package name, declared
    purpose) is read; usage targets never leave the ecosystem.
    """
    from repro.ecosystem.libraries import default_catalog

    table = {lib.package: lib.category for lib in default_catalog()}
    # Known packer stubs are classified as development tooling.
    table["com.qihoo.util"] = "Development"
    return table


@dataclass
class DetectedLibrary:
    """One detected library: an identity with one digest per version."""

    identity: str
    digests: FrozenSet[int]
    app_count: int
    category: str

    @property
    def version_count(self) -> int:
        return len(self.digests)

    @property
    def is_ad(self) -> bool:
        return AD_CATEGORY in self.category


@dataclass
class LibraryDetection:
    """Result of fitting the detector on a corpus."""

    libraries: List[DetectedLibrary]
    digest_identity: Dict[int, str]
    unit_libraries: Dict[Tuple[str, Optional[str]], FrozenSet[str]]
    category_of: Dict[str, str]

    @property
    def library_digests(self) -> Set[int]:
        return set(self.digest_identity)

    def libraries_of(self, unit: AppUnit) -> FrozenSet[str]:
        """Identities of the libraries embedded in one app unit."""
        return self.unit_libraries.get((unit.package, unit.signer), frozenset())

    def is_ad_identity(self, identity: str) -> bool:
        return AD_CATEGORY in self.category_of.get(identity, UNKNOWN_CATEGORY)

    def usage_table(self, units: Iterable[AppUnit], markets: Optional[Set[str]] = None):
        """Per-library usage share among (APK-backed) units.

        ``markets=None`` counts every unit; otherwise only units listed
        in at least one of the given markets (e.g. Table 2's Google Play
        column vs its all-Chinese-markets column).
        """
        counter: Counter = Counter()
        total = 0
        for unit in units:
            if unit.apk is None:
                continue
            if markets is not None and not (set(unit.markets) & markets):
                continue
            total += 1
            for identity in self.libraries_of(unit):
                counter[identity] += 1
        if total == 0:
            return []
        return [
            (identity, count / total, self.category_of.get(identity, UNKNOWN_CATEGORY))
            for identity, count in counter.most_common()
        ]


class LibraryDetector:
    """Clustering-based detector over code-package feature digests."""

    def __init__(self, min_apps: int = 3, min_signers: int = 2):
        if min_apps < 2 or min_signers < 2:
            raise ValueError("thresholds must be at least 2")
        self._min_apps = min_apps
        self._min_signers = min_signers

    def fit(
        self,
        units: Iterable[AppUnit],
        engine: Optional[AnalysisEngine] = None,
        walk: Optional[UnitWalk] = None,
    ) -> LibraryDetection:
        """Cluster the units' code-package digests into libraries.

        The digests come from :data:`LIBFEATURES` in ``walk`` (a walk
        over ``units`` shared with other analyses), or from a walk of
        its own.  Extraction is pure in the APK bytes: it fans out
        across the engine's workers and lands in the artifact cache, so
        warm reruns skip straight to the clustering below.
        """
        units = list(units)
        if walk is None:
            walk = UnitWalk(
                engine or INLINE_ENGINE, units, [LIBFEATURES],
                stage="analysis.libraries.extract",
            )
        results = walk.take(LIBFEATURES.name)

        app_packages: Dict[int, Set[str]] = {}
        signers: Dict[int, Set[str]] = {}
        names: Dict[int, Counter] = {}
        unit_pairs = [(u, pairs) for u, pairs in zip(units, results) if pairs is not None]
        for unit, pairs in unit_pairs:
            for name, digest in pairs:
                app_packages.setdefault(digest, set()).add(unit.package)
                if unit.signer is not None:
                    bucket = signers.setdefault(digest, set())
                    if len(bucket) < 16:
                        bucket.add(unit.signer)
                names.setdefault(digest, Counter())[name] += 1

        digest_identity: Dict[int, str] = {}
        for digest, apps in app_packages.items():
            if len(apps) < self._min_apps:
                continue
            if len(signers.get(digest, ())) < self._min_signers:
                continue
            digest_identity[digest] = self._resolve_identity(digest, names[digest])

        categories = known_library_categories()

        def classify(identity: str) -> str:
            best = UNKNOWN_CATEGORY
            best_len = -1
            for prefix, category in categories.items():
                if (identity == prefix or identity.startswith(prefix + ".")) and len(
                    prefix
                ) > best_len:
                    best, best_len = category, len(prefix)
            return best

        grouped: Dict[str, Set[int]] = {}
        for digest, identity in digest_identity.items():
            grouped.setdefault(identity, set()).add(digest)

        unit_libraries: Dict[Tuple[str, Optional[str]], FrozenSet[str]] = {}
        identity_apps: Dict[str, Set[str]] = {}
        for unit, pairs in unit_pairs:
            found: Set[str] = set()
            for _name, digest in pairs:
                identity = digest_identity.get(digest)
                if identity is None or identity == unit.package:
                    continue
                found.add(identity)
                identity_apps.setdefault(identity, set()).add(unit.package)
            unit_libraries[(unit.package, unit.signer)] = frozenset(found)

        category_of = {identity: classify(identity) for identity in grouped}
        libraries = [
            DetectedLibrary(
                identity=identity,
                digests=frozenset(digests),
                app_count=len(identity_apps.get(identity, ())),
                category=category_of[identity],
            )
            for identity, digests in sorted(grouped.items())
        ]
        libraries.sort(key=lambda lib: lib.app_count, reverse=True)
        return LibraryDetection(
            libraries=libraries,
            digest_identity=digest_identity,
            unit_libraries=unit_libraries,
            category_of=category_of,
        )

    @staticmethod
    def _resolve_identity(digest: int, name_counts: Counter) -> str:
        """Dominant unobfuscated name; packed-only clusters get a synthetic id."""
        for name, _ in name_counts.most_common():
            if not _OBFUSCATED_RE.match(name):
                return name
        return f"obfuscated.{digest:016x}"


# ---------------------------------------------------------------------------
# Figure 5 statistics
# ---------------------------------------------------------------------------


def market_tpl_stats(
    units: Iterable[AppUnit], detection: LibraryDetection
) -> Dict[str, Dict[str, float]]:
    """Per-market TPL presence / average count / ad-lib presence.

    Returns ``{market: {presence, avg_count, ad_presence, avg_ad_count}}``
    over APK-backed units listed in each market (Figure 5a/5b).
    """
    acc: Dict[str, List[Tuple[int, int]]] = {}
    for unit in units:
        if unit.apk is None:
            continue
        libs = detection.libraries_of(unit)
        n_libs = len(libs)
        n_ads = sum(1 for identity in libs if detection.is_ad_identity(identity))
        for market in unit.markets:
            acc.setdefault(market, []).append((n_libs, n_ads))
    stats: Dict[str, Dict[str, float]] = {}
    for market, values in acc.items():
        n = len(values)
        stats[market] = {
            "presence": sum(1 for libs, _ in values if libs > 0) / n,
            "avg_count": sum(libs for libs, _ in values) / n,
            "ad_presence": sum(1 for _, ads in values if ads > 0) / n,
            "avg_ad_count": sum(ads for _, ads in values) / n,
        }
    return stats


def top_libraries_table(
    units: List[AppUnit], detection: LibraryDetection, top_n: int = 10
):
    """Table 2: top libraries for Google Play vs the Chinese markets."""
    from repro.markets.profiles import CHINESE_MARKET_IDS

    gp = detection.usage_table(units, markets={GOOGLE_PLAY})[:top_n]
    cn = detection.usage_table(units, markets=set(CHINESE_MARKET_IDS))[:top_n]
    return {"google_play": gp, "chinese": cn}
