"""Index-keyed world generation: app plans, app bodies, and their sampler.

Base-population generation runs in three phases:

1. **Plan** (cheap): quota accounting, popularity draws, market picks,
   and unique-package claims — everything whose draws depend on shared
   mutable state (remaining quotas, the package registry).
2. **Build**: body sampling — version history, libraries, permissions,
   own code, display name — a pure function of the plan and its
   index-keyed RNG substream.
3. **Submit** (in index order): vetting, placement, and world
   registration, which consume the per-market vetting streams and the
   append-only world lists.

The determinism contract: the body for plan ``i`` always draws from
``rngs.stream("app-body", i)`` and the finalize pass for listing
``(market, app)`` always draws from ``rngs.stream("finalize-listing",
market, app)`` — keyed by the stable identity of the work item, never by
the order or batch it was built in.  Re-ordering or re-chunking the
build therefore cannot move a single draw.

Body sampling reads tables built once per :class:`BodySampler` (or at
import) and batches same-kind draws; DESIGN.md lists the exact-draw
rewrites that keep every world digest unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.android.permissions import (
    DANGEROUS_PERMISSIONS,
    NORMAL_PERMISSIONS,
    platform_spec,
)
from repro.ecosystem.apps import AppVersion, OwnCode, generate_own_code
from repro.ecosystem.calibration import (
    OVERPRIV_PERMISSION_WEIGHTS,
    sample_min_sdk,
    sample_overprivilege_count,
    sample_release_day,
    sample_version_count,
)
from repro.ecosystem.libraries import LibraryCatalog
from repro.markets.categories import CANONICAL_WEIGHTS, VENDOR_WEIGHTS
from repro.markets.profiles import DOWNLOAD_BIN_EDGES, MarketProfile, iter_profiles
from repro.util import text
from repro.util.rng import RngFactory, choice_cdf

__all__ = [
    "AppPlan",
    "AppBody",
    "BodySampler",
    "build_bodies",
    "downloads_for_percentile",
]


@dataclass(frozen=True)
class AppPlan:
    """The plan-phase decision record for one base-population app.

    Everything here was drawn from shared mutable state (market quotas,
    the package registry); everything *not* here is a pure function of
    the plan plus the app's index-keyed RNG substream.
    """

    index: int
    scope: str  # "global" | "china" | "mixed"
    popularity: float
    markets: Tuple[str, ...]
    package: str


@dataclass(frozen=True)
class AppBody:
    """The build-phase product: one app's sampled content."""

    display_name: str
    category: str
    quality: float
    min_sdk: int
    target_sdk: int
    versions: Tuple[AppVersion, ...]
    own_code: OwnCode
    libraries: Tuple[Tuple[str, int], ...]
    permissions_requested: Tuple[str, ...]


#: The scopes a body is sampled for (see :class:`AppPlan`).
_SCOPES = ("global", "china", "mixed")

_OVERPRIV_PERMS = tuple(OVERPRIV_PERMISSION_WEIGHTS)
_OVERPRIV_CDF = choice_cdf(list(OVERPRIV_PERMISSION_WEIGHTS.values()))


def _category_table(weights) -> Tuple[Tuple[str, ...], List[float]]:
    names = tuple(c for c, w in weights.items() if w > 0)
    return names, choice_cdf([weights[c] for c in names])


class BodySampler:
    """Samples app bodies from an explicit RNG stream.

    Pure with respect to its inputs: holds only immutable shared context
    (library catalog, platform permission spec, display-name pool), so a
    body depends on nothing but its plan and its stream.

    Every table a draw reads is built here once, not per app: per-market
    library targets and vendor flags, the category CDFs, and per-scope
    library adoption rows.  Each table-driven draw consumes exactly the
    draws of the numpy call it replaces (see DESIGN.md), so world
    digests do not move.  The tables are per market or per scope, never
    per market *set*, so their size is fixed.
    """

    def __init__(self, catalog: LibraryCatalog, name_pool: Sequence[str]):
        self._catalog = catalog
        self._name_pool = list(name_pool)
        self._spec = platform_spec()
        profiles = list(iter_profiles())
        self._tpl_presence = {p.market_id: p.tpl_presence for p in profiles}
        self._tpl_avg_count = {p.market_id: p.tpl_avg_count for p in profiles}
        self._is_vendor = {p.market_id: p.kind == "vendor" for p in profiles}
        self._categories = {
            False: _category_table(CANONICAL_WEIGHTS),
            True: _category_table(VENDOR_WEIGHTS),
        }
        self._libraries = {scope: self._library_table(scope) for scope in _SCOPES}
        self._lib_permissions = {
            lib.package: frozenset(lib.permissions) for lib in catalog
        }

    def _library_table(self, scope: str):
        """``(named expected count, tail divisor, rows)`` for one scope.

        A row is ``(package, n_versions, usage, tail)``; a named row's
        usage is already capped at 0.97, a tail row's is capped after
        the per-app tail bias scales it.
        """
        catalog = self._catalog
        if scope == "mixed":
            def expected(tier: str) -> float:
                return 0.5 * (
                    catalog.expected_count("global", tier)
                    + catalog.expected_count("china", tier)
                )

            def usage(lib) -> float:
                return 0.5 * (lib.gp_usage + lib.cn_usage)
        else:
            region = "global" if scope == "global" else "china"

            def expected(tier: str) -> float:
                return catalog.expected_count(region, tier)

            def usage(lib) -> float:
                return catalog.usage(lib, region)

        rows = [
            (lib.package, lib.n_versions,
             usage(lib) if lib.tail else min(0.97, usage(lib)), lib.tail)
            for lib in catalog
        ]
        return expected("named"), max(expected("tail"), 1e-9), rows

    @staticmethod
    def _market_mean(values, markets: Sequence[str]) -> float:
        """``np.mean`` of a per-market value over ``markets``, bit for bit:
        numpy's own pairwise sum divided by the count."""
        total = np.add.reduce(np.array(list(map(values.__getitem__, markets))))
        return float(total) / len(markets)

    # -- individual draws ----------------------------------------------

    def sample_display_name(self, rng: np.random.Generator) -> str:
        """Display name; drawn from a shared pool ~22% of the time.

        Shared-pool draws create the same-name clusters of Figure 8(b)
        (22% of apps share a name with at least one other app).
        """
        roll = rng.random()
        if roll < 0.02:
            return text.COMMON_APP_NAMES[
                int(rng.integers(0, len(text.COMMON_APP_NAMES)))
            ]
        if roll < 0.20 and self._name_pool:
            idx = int(len(self._name_pool) * rng.power(2.5))
            return self._name_pool[min(idx, len(self._name_pool) - 1)]
        return text.app_display_name(rng, common_fraction=0.0)

    def sample_category(
        self, rng: np.random.Generator, markets: Sequence[str]
    ) -> str:
        vendorish = sum(map(self._is_vendor.__getitem__, markets))
        names, cdf = self._categories[vendorish > len(markets) / 2]
        return names[bisect_right(cdf, rng.random())]

    def sample_versions(
        self, rng: np.random.Generator, popularity: float, scope: str
    ) -> Tuple[AppVersion, ...]:
        n = sample_version_count(popularity, rng)
        last_day = sample_release_day(scope, rng)
        days = [last_day]
        for _ in range(n - 1):
            days.append(days[-1] - int(rng.integers(20, 260)))
        days = sorted([max(d, 400) for d in days])
        versions = []
        for i, day in enumerate(days):
            code = (i + 1) * int(rng.integers(1, 4))
            if i > 0:
                code = max(code, versions[-1].version_code + 1)
            versions.append(
                AppVersion(
                    version_code=code,
                    version_name=f"{1 + i // 4}.{i % 4}.{int(rng.integers(0, 10))}",
                    release_day=day,
                )
            )
        return tuple(versions)

    def sample_permissions(
        self,
        rng: np.random.Generator,
        scope: str,
        lib_perms: Set[str],
        own: Optional[Set[str]] = None,
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Return (own_used, requested) permission tuples.

        ``own`` is given for repackaged apps, whose first-party code (and
        thus its permission footprint) is inherited from the victim — a
        repackager ships the original manifest plus its own additions.
        """
        if own is None:
            n_dangerous = int(rng.integers(1, 5))
            n_normal = int(rng.integers(2, 5))
            picked = rng.choice(len(DANGEROUS_PERMISSIONS), size=n_dangerous, replace=False)
            own = set(map(DANGEROUS_PERMISSIONS.__getitem__, picked.tolist()))
            picked = rng.choice(len(NORMAL_PERMISSIONS), size=n_normal, replace=False)
            own.update(map(NORMAL_PERMISSIONS.__getitem__, picked.tolist()))
        used = own | lib_perms

        # Developers habitually paste permission boilerplate; each line
        # that happens to cover an API the app really calls is harmless,
        # the rest become the measured over-privilege.  Draws that hit an
        # already-used permission are NOT redrawn — that would merely
        # funnel probability mass into the rarer permissions and invert
        # the paper's READ_PHONE_STATE-first ranking.
        extra_count = sample_overprivilege_count(scope, rng)
        attempted = {
            _OVERPRIV_PERMS[bisect_right(_OVERPRIV_CDF, u)]
            for u in rng.random(extra_count).tolist()
        }
        return tuple(sorted(own)), tuple(sorted(used | attempted))

    def sample_libraries(
        self, rng: np.random.Generator, scope: str, markets: Sequence[str]
    ) -> Tuple[Tuple[str, int], ...]:
        if rng.random() >= self._market_mean(self._tpl_presence, markets):
            return ()
        target_count = self._market_mean(self._tpl_avg_count, markets)
        named_expected, tail_divisor, rows = self._libraries[scope]

        # Named libraries are adopted at their Table 2 usage rates; the
        # anonymous long tail absorbs per-market library-count targets
        # (Figure 5a) so measured top-10 usages stay faithful.
        tail_bias = max(0.0, (target_count - named_expected) / tail_divisor)

        # Aggressive ad SDK adoption is never amplified: markets whose
        # apps embed more libraries overall do not proportionally
        # attract more grayware (the Table 4 ">=1" top-up handles
        # per-market grayware calibration).  A hit draws its version at
        # once, so these draws stay scalar.
        chosen: List[Tuple[str, int]] = []
        for package, n_versions, usage, tail in rows:
            if rng.random() < (min(0.97, usage * tail_bias) if tail else usage):
                chosen.append((package, int(rng.integers(0, n_versions))))
        return tuple(chosen)

    # -- the full body --------------------------------------------------

    def sample_body(
        self,
        rng: np.random.Generator,
        *,
        scope: str,
        popularity: float,
        markets: Sequence[str],
        package: str,
        display_name: Optional[str] = None,
        own_code: Optional[OwnCode] = None,
        libraries: Optional[Tuple[Tuple[str, int], ...]] = None,
        versions: Optional[Tuple[AppVersion, ...]] = None,
    ) -> AppBody:
        """Sample everything about an app that is not a shared-state draw.

        The draw order is fixed; callers that pre-supply a component
        (clones inherit versions, code, and libraries from their victim)
        simply skip that component's draws.
        """
        if versions is None:
            versions = self.sample_versions(rng, popularity, scope)
        if libraries is None:
            libraries = self.sample_libraries(rng, scope, markets)
        lib_perms: Set[str] = set()
        for lib_package, _ in libraries:
            lib_perms |= self._lib_permissions[lib_package]
        if own_code is None:
            own_perms, requested = self.sample_permissions(rng, scope, lib_perms)
            own_code = generate_own_code(rng, self._spec, package, own_perms)
        else:
            # Repackaged code: the permission footprint comes from the
            # inherited first-party code, not a fresh draw.
            inherited = set(self._spec.permissions_for(own_code.features))
            _, requested = self.sample_permissions(
                rng, scope, lib_perms, own=inherited
            )
        # min/max is np.clip on a scalar, without its Python overhead.
        quality = min(max(0.30 + 0.45 * popularity + rng.normal(0, 0.15), 0.05), 1.0)
        if display_name is None:
            display_name = self.sample_display_name(rng)
        category = self.sample_category(rng, markets)
        min_sdk = sample_min_sdk(versions[0].release_day, rng, scope)
        target_sdk = min_sdk + int(rng.integers(0, 9))
        return AppBody(
            display_name=display_name,
            category=category,
            quality=quality,
            min_sdk=min_sdk,
            target_sdk=target_sdk,
            versions=versions,
            own_code=own_code,
            libraries=libraries,
            permissions_requested=requested,
        )


@lru_cache(maxsize=64)
def _download_bins(shares: Tuple[float, ...]):
    """Per-bin ``(lo, cdf_lo, span, log10 lo, log10 span)`` and the bin CDF
    for one Figure 2 row (``None`` for an all-zero row).

    Keyed by the row itself, so the table is one entry per market row.
    The log terms stay numpy scalars, which keeps ``10 ** exponent`` a
    numpy float64 power, bit for bit the per-call formula's.
    """
    arr = np.asarray(shares, dtype=float)
    total = arr.sum()
    if total <= 0:
        return None
    cdf = np.cumsum(arr / total)
    bins = []
    for bin_idx, lo in enumerate(DOWNLOAD_BIN_EDGES):
        hi = (
            DOWNLOAD_BIN_EDGES[bin_idx + 1]
            if bin_idx + 1 < len(DOWNLOAD_BIN_EDGES)
            else 5_000_000_000
        )
        bin_lo_p = cdf[bin_idx - 1] if bin_idx > 0 else 0.0
        span = max(cdf[bin_idx] - bin_lo_p, 1e-9)
        log_lo = np.log10(lo) if lo else None
        log_span = np.log10(hi) - log_lo if lo else None
        bins.append((lo, float(bin_lo_p), float(span), log_lo, log_span))
    return cdf.tolist(), bins


def downloads_for_percentile(
    rng: np.random.Generator, profile: MarketProfile, percentile: float
) -> Optional[int]:
    """Map a within-market rank percentile onto the market's Figure 2
    bin row, then draw within the bin.

    The within-bin position blends the app's rank position with noise,
    so the market's very top apps reliably land near the top of the
    open-ended ">1M" bin — Section 4.2's power law (top 0.1% of apps
    owning >50% of installs) depends on the head of the distribution,
    not only on the bin mix.
    """
    if not profile.reports_downloads:
        return None
    table = _download_bins(profile.download_bin_shares)
    if table is None:
        return None
    cdf, bins = table
    lo, bin_lo_p, span, log_lo, log_span = bins[
        min(bisect_right(cdf, percentile), len(bins) - 1)
    ]
    if lo == 0:
        return int(rng.integers(0, 10))
    within = min(1.0, max(0.0, (percentile - bin_lo_p) / span))
    position = 0.7 * within + 0.3 * rng.random()
    return int(10 ** (log_lo + log_span * position))


def build_bodies(
    rngs: RngFactory, sampler: BodySampler, plans: Sequence[AppPlan]
) -> List[AppBody]:
    """Sample the body of every plan, each from the stream keyed by its
    plan *index*, so the order or batching of ``plans`` is invisible to
    the output."""
    return [
        sampler.sample_body(
            rngs.stream("app-body", plan.index),
            scope=plan.scope,
            popularity=plan.popularity,
            markets=plan.markets,
            package=plan.package,
        )
        for plan in plans
    ]
