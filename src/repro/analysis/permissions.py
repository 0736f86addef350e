"""Over-privilege analysis (Section 6.3, Figure 11).

PScout-style: the platform's API->permission specification tells us
which permissions an app's code can actually exercise; anything
requested in the manifest beyond that set is an unused ("over-
privileged") permission.  As in the paper, the static view covers the
whole DEX — first-party code, libraries, and anything else shipped in
the APK.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.corpus import AppUnit
from repro.analysis.engine import INLINE_ENGINE, AnalysisEngine, UnitAnalyzer, UnitWalk
from repro.android.permissions import PermissionSpec, platform_spec
from repro.crawler.snapshot import Snapshot
from repro.markets.profiles import GOOGLE_PLAY
from repro.util.stats import BoxStats

__all__ = [
    "OverprivilegeResult",
    "analyze_overprivilege",
    "overprivilege_analyzer",
    "dangerous_requests_analyzer",
    "market_overprivilege",
    "figure11_series",
    "dangerous_request_stats",
    "OVERPRIVILEGE_VERSION",
]

#: Artifact-cache version of the per-APK unused-permission extraction
#: against the *platform* spec.  Bump when the analysis rule or the
#: platform API->permission map changes.
OVERPRIVILEGE_VERSION = "1"

#: Figure 11 histogram buckets: 0..9 and ">9".
COUNT_BUCKETS = tuple(str(i) for i in range(10)) + (">9",)


@dataclass
class OverprivilegeResult:
    """Per-unit over-privilege measurements."""

    unused: Dict[Tuple[str, Optional[str]], FrozenSet[str]]
    spec: PermissionSpec

    def unused_of(self, unit: AppUnit) -> Optional[FrozenSet[str]]:
        return self.unused.get((unit.package, unit.signer))

    def top_unused_dangerous(self, top_n: int = 10) -> List[Tuple[str, float]]:
        """Most common unused *dangerous* permissions, as the share of
        over-privileged apps requesting each (Section 6.3's list)."""
        over_units = [perms for perms in self.unused.values() if perms]
        if not over_units:
            return []
        counter: Counter = Counter()
        for perms in over_units:
            for perm in perms:
                if self.spec.is_dangerous(perm):
                    counter[perm] += 1
        return [
            (perm, count / len(over_units))
            for perm, count in counter.most_common(top_n)
        ]


def overprivilege_analyzer(spec: Optional[PermissionSpec] = None) -> UnitAnalyzer:
    """Unused permissions per APK against ``spec`` (default: the platform's).

    With the platform spec the result is a pure function of the APK, so
    it is cached; a caller-supplied spec is not part of the cache key,
    so its analyzer stays out of the cache.
    """
    version = OVERPRIVILEGE_VERSION if spec is None else None
    spec = spec or platform_spec()

    def compute(apk) -> FrozenSet[str]:
        requested = set(apk.manifest.permissions)
        # Feature ids are all the spec needs: reading them off the
        # packages leaves no merged-count memo on the APK, which on the
        # memory backend would live as long as its record.
        used = spec.permissions_for(fid for pkg in apk.packages for fid in pkg.features)
        return frozenset(requested - used)

    return UnitAnalyzer(
        "overprivilege",
        version,
        compute,
        encode=sorted,
        decode=lambda payload: frozenset(str(p) for p in payload),
    )


def dangerous_requests_analyzer(spec: Optional[PermissionSpec] = None) -> UnitAnalyzer:
    """Dangerous permissions requested per APK (Figure 11's average).

    Counting a manifest is cheaper than an artifact-cache round trip,
    so the analyzer is uncached.
    """
    spec = spec or platform_spec()
    return UnitAnalyzer(
        "dangerous_requests",
        None,
        lambda apk: sum(1 for perm in apk.manifest.permissions if spec.is_dangerous(perm)),
    )


def analyze_overprivilege(
    units: Sequence[AppUnit],
    spec: Optional[PermissionSpec] = None,
    engine: Optional[AnalysisEngine] = None,
    walk: Optional[UnitWalk] = None,
) -> OverprivilegeResult:
    """Compute unused permissions for every APK-backed unit.

    Per-APK extraction fans out across the engine's workers (see
    :func:`overprivilege_analyzer` for when it is cached).  The results
    come from that analyzer in ``walk`` (a walk over ``units`` shared
    with other analyses; it must use ``spec``), or from a walk of their
    own.
    """
    if walk is None:
        walk = UnitWalk(
            engine or INLINE_ENGINE, units, [overprivilege_analyzer(spec)],
            stage="analysis.overprivilege.map",
        )
    unused: Dict[Tuple[str, Optional[str]], FrozenSet[str]] = {}
    for unit, perms in zip(units, walk.take("overprivilege")):
        if perms is not None:
            unused[(unit.package, unit.signer)] = perms
    return OverprivilegeResult(unused=unused, spec=spec or platform_spec())


def market_overprivilege(
    snapshot: Snapshot, units: Sequence[AppUnit], result: OverprivilegeResult
) -> Dict[str, Dict[str, object]]:
    """Per-market over-privilege statistics.

    Returns ``{market: {share, histogram}}`` where ``share`` is the
    fraction of apps requesting at least one unused permission and
    ``histogram`` the Figure 11 bucket shares.
    """
    per_market_counts: Dict[str, List[int]] = {}
    for unit in units:
        perms = result.unused_of(unit)
        if perms is None:
            continue
        for market in unit.markets:
            per_market_counts.setdefault(market, []).append(len(perms))
    stats: Dict[str, Dict[str, object]] = {}
    for market in snapshot.markets():
        counts = per_market_counts.get(market, [])
        if not counts:
            stats[market] = {
                "share": 0.0,
                "histogram": [0.0] * len(COUNT_BUCKETS),
            }
            continue
        histogram = [0] * len(COUNT_BUCKETS)
        for count in counts:
            histogram[min(count, len(COUNT_BUCKETS) - 1)] += 1
        stats[market] = {
            "share": sum(1 for c in counts if c > 0) / len(counts),
            "histogram": [h / len(counts) for h in histogram],
        }
    return stats


def dangerous_request_stats(
    units: Sequence[AppUnit],
    spec: Optional[PermissionSpec] = None,
    walk: Optional[UnitWalk] = None,
) -> Dict[str, float]:
    """Average number of *dangerous* permissions requested, per market.

    Section 6.3: apps in Chinese markets tend to request more sensitive
    permissions than Google Play apps.  The counts come from
    :func:`dangerous_requests_analyzer` in ``walk`` (a walk over
    ``units`` shared with other analyses), or from a walk of their own.
    """
    if walk is None:
        walk = UnitWalk(
            INLINE_ENGINE, units, [dangerous_requests_analyzer(spec)],
            stage="analysis.dangerous_requests.map",
        )
    sums: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for unit, dangerous in zip(units, walk.take("dangerous_requests")):
        if dangerous is None:
            continue
        for market in unit.markets:
            sums[market] = sums.get(market, 0) + dangerous
            counts[market] = counts.get(market, 0) + 1
    return {
        market: sums[market] / counts[market]
        for market in sums
        if counts[market]
    }


def figure11_series(
    snapshot: Snapshot, units: Sequence[AppUnit], result: OverprivilegeResult
) -> Dict[str, object]:
    """Figure 11: Google Play histogram vs per-bucket Chinese box stats."""
    stats = market_overprivilege(snapshot, units, result)
    gp = stats.get(GOOGLE_PLAY, {"histogram": [0.0] * len(COUNT_BUCKETS)})
    chinese = [v["histogram"] for m, v in stats.items() if m != GOOGLE_PLAY]
    boxes = []
    for i in range(len(COUNT_BUCKETS)):
        values = [row[i] for row in chinese] or [0.0]
        boxes.append(BoxStats(values).as_dict())
    return {
        "buckets": list(COUNT_BUCKETS),
        "google_play": gp["histogram"],
        "chinese_box": boxes,
        "gp_share": stats.get(GOOGLE_PLAY, {}).get("share", 0.0),
        "chinese_share_mean": (
            sum(v["share"] for m, v in stats.items() if m != GOOGLE_PLAY)
            / max(1, len(stats) - 1)
        ),
        "top_unused_dangerous": result.top_unused_dangerous(),
    }
