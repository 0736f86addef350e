"""Cross-cutting calibration constants.

Per-market targets live in :mod:`repro.markets.profiles`; this module
holds the ecosystem-wide behavioral parameters of Sections 4–7 that are
not per-market: publishing scope shares, release-date and API-level
distributions, version-history shapes, over-privilege distributions, and
the paper's named Table 5 apps which we seed verbatim for fidelity.
"""

from __future__ import annotations

import datetime
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.rng import choice_cdf
from repro.util.simtime import FIRST_CRAWL_DAY, date_to_day

__all__ = [
    "SINGLE_STORE_GP_SHARE",
    "MIXED_GP_TO_CN_SHARE",
    "sample_cn_market_count",
    "sample_release_day",
    "sample_min_sdk",
    "sample_version_count",
    "sample_overprivilege_count",
    "OVERPRIV_PERMISSION_WEIGHTS",
    "REPACKAGED_MALWARE_SHARE",
    "CELEBRITY_MALWARE",
    "CelebrityApp",
]

#: Section 5.2: 77% of Google Play apps are single-store.
SINGLE_STORE_GP_SHARE = 0.77

#: Section 5.2: 20–30% of Chinese-market apps are also in Google Play;
#: we use the midpoint when deciding whether a Chinese app cross-lists.
MIXED_GP_TO_CN_SHARE = 0.25

#: Section 6.4: 38.3% of malware samples are repackaged (cloned) apps.
REPACKAGED_MALWARE_SHARE = 0.383


def sample_cn_market_count(popularity: float, rng: np.random.Generator) -> int:
    """How many Chinese markets an app publishes to, given popularity.

    Popular apps cross-list widely (Section 5.2: over 80% of each
    market's top-1% apps are shared across all Chinese markets); the long
    tail stays in one or two stores.
    """
    if popularity >= 0.995:
        return int(rng.integers(10, 17))
    if popularity >= 0.99:
        return int(rng.integers(6, 13))
    if popularity >= 0.90:
        return int(rng.integers(3, 9))
    if popularity >= 0.50:
        weights = (0.32, 0.26, 0.18, 0.12, 0.07, 0.05)
    else:
        weights = (0.58, 0.22, 0.11, 0.05, 0.03, 0.01)
    return int(rng.choice(np.arange(1, len(weights) + 1), p=weights))


# ---------------------------------------------------------------------------
# Release dates (Figure 4) and minimum API levels (Figure 3)
# ---------------------------------------------------------------------------

# Year weights for the *last update* date.  Chinese markets: ~90% of apps
# released/updated before 2017 and only ~5% within the final six months;
# Google Play: 66% before 2017 and >23% within six months of the crawl.
_CN_YEAR_WEIGHTS: Sequence[Tuple[int, float]] = (
    (2011, 0.04), (2012, 0.08), (2013, 0.14), (2014, 0.22),
    (2015, 0.24), (2016, 0.18), (2017, 0.10),
)
_GP_YEAR_WEIGHTS: Sequence[Tuple[int, float]] = (
    (2011, 0.01), (2012, 0.03), (2013, 0.06), (2014, 0.12),
    (2015, 0.18), (2016, 0.26), (2017, 0.34),
)
#: Within 2017, the share of updates falling in the last six months
#: before the crawl (2017-02-15 .. 2017-08-15).
_CN_2017_RECENT_SHARE = 0.5
_GP_2017_RECENT_SHARE = 0.7


def _year_table(weights: Sequence[Tuple[int, float]]) -> Tuple[Tuple[int, ...], List[float]]:
    return tuple(y for y, _ in weights), choice_cdf([w for _, w in weights])


_GP_YEARS = _year_table(_GP_YEAR_WEIGHTS)
_CN_YEARS = _year_table(_CN_YEAR_WEIGHTS)
#: First and last day of each pre-2017 year, for the uniform in-year draw.
_YEAR_DAYS: Dict[int, Tuple[int, int]] = {
    year: (date_to_day(datetime.date(year, 1, 1)), date_to_day(datetime.date(year, 12, 31)))
    for year, _ in _CN_YEAR_WEIGHTS + _GP_YEAR_WEIGHTS
}
_START_2017 = date_to_day(datetime.date(2017, 1, 1))
_RECENT_BOUNDARY = FIRST_CRAWL_DAY - 182


def sample_release_day(scope: str, rng: np.random.Generator) -> int:
    """Sample a last-update day (days since epoch) for the given scope."""
    years, cdf = _GP_YEARS if scope == "global" else _CN_YEARS
    year = years[bisect_right(cdf, rng.random())]
    if year < 2017:
        start, end = _YEAR_DAYS[year]
        return int(rng.integers(start, end + 1))
    recent_share = _GP_2017_RECENT_SHARE if scope == "global" else _CN_2017_RECENT_SHARE
    if rng.random() < recent_share:
        return int(rng.integers(_RECENT_BOUNDARY, FIRST_CRAWL_DAY))
    return int(rng.integers(_START_2017, _RECENT_BOUNDARY))


# Min-SDK distributions by developer scope.  Chinese developers declare
# low minimum API levels regardless of release year — their user base
# keeps old devices, and low min-SDK maximizes reach — which is what
# drives Figure 3's 63%-vs-22% "below API 9" split; levels 7-9 are the
# overall mode.  A mild recency adjustment nudges post-2016 releases up.
_MIN_SDK_BY_SCOPE: Dict[str, Sequence[Tuple[int, float]]] = {
    "china": ((4, 0.09), (7, 0.31), (8, 0.33), (9, 0.11), (10, 0.04),
              (14, 0.05), (15, 0.03), (16, 0.02), (19, 0.01), (21, 0.01)),
    "mixed": ((4, 0.04), (7, 0.18), (8, 0.22), (9, 0.15), (10, 0.08),
              (14, 0.11), (15, 0.08), (16, 0.07), (19, 0.04), (21, 0.03)),
    "global": ((4, 0.02), (7, 0.08), (8, 0.12), (9, 0.15), (10, 0.08),
               (14, 0.15), (15, 0.12), (16, 0.12), (19, 0.10), (21, 0.06)),
}


_MIN_SDK_TABLES = {
    scope: (tuple(lvl for lvl, _ in options), choice_cdf([w for _, w in options]))
    for scope, options in _MIN_SDK_BY_SCOPE.items()
}
#: Releases on or after this day fall in 2016 or later.
_FIRST_DAY_2016 = date_to_day(datetime.date(2016, 1, 1))


def sample_min_sdk(
    release_day: int, rng: np.random.Generator, scope: str = "china"
) -> int:
    """Sample a minimum SDK level for an app of the given scope."""
    levels, cdf = _MIN_SDK_TABLES[scope]
    level = levels[bisect_right(cdf, rng.random())]
    # Recent global releases rarely keep Gingerbread support.
    if (
        scope != "china"
        and release_day >= _FIRST_DAY_2016
        and level < 9
        and rng.random() < 0.5
    ):
        level = int(rng.choice([9, 14, 15, 16]))
    return level


def sample_version_count(popularity: float, rng: np.random.Generator) -> int:
    """Number of released versions; popular apps iterate more.

    Shapes Figure 8(a): ~14% of cross-store packages expose multiple
    simultaneous versions, up to 14 in extreme cases.
    """
    if popularity >= 0.99:
        return int(rng.integers(6, 15))
    if popularity >= 0.90:
        return int(rng.integers(3, 9))
    if popularity >= 0.50:
        return int(rng.integers(1, 5))
    return int(rng.integers(1, 3))


# ---------------------------------------------------------------------------
# Over-privilege (Section 6.3, Figure 11)
# ---------------------------------------------------------------------------

#: P(app attempts to over-request), by scope.  Slightly above the
#: paper's measured shares (65% / 82%) because attempted extras that
#: collide with genuinely-used permissions are dropped, not redrawn.
_OVERPRIV_ANY = {"global": 0.70, "china": 0.92, "mixed": 0.86}

#: Distribution of the number of unused permissions, given >=1 (mode 3).
_OVERPRIV_COUNT_WEIGHTS = (0.13, 0.17, 0.20, 0.15, 0.11, 0.08, 0.06, 0.04, 0.03, 0.03)

#: Sampling weights for *which* permissions are over-requested; the
#: paper's top offenders are READ_PHONE_STATE (52.38%), coarse/fine
#: location (36.28%/33.83%), and CAMERA (19.98%).
#: Weighted high for READ_PHONE_STATE: many embedded SDKs legitimately
#: *use* that permission (excluding it from the unused pool for those
#: apps), so the sampling weight overshoots the paper's measured 52.38%
#: to land on it after that exclusion.
OVERPRIV_PERMISSION_WEIGHTS: Dict[str, float] = {
    "READ_PHONE_STATE": 0.55,
    "ACCESS_COARSE_LOCATION": 0.13,
    "ACCESS_FINE_LOCATION": 0.11,
    "CAMERA": 0.05,
    "READ_EXTERNAL_STORAGE": 0.035,
    "WRITE_EXTERNAL_STORAGE": 0.035,
    "GET_ACCOUNTS": 0.025,
    "READ_CONTACTS": 0.02,
    "RECORD_AUDIO": 0.02,
    "SEND_SMS": 0.015,
    "READ_SMS": 0.015,
    "CALL_PHONE": 0.015,
    "RECEIVE_SMS": 0.01,
    "READ_CALL_LOG": 0.01,
    "READ_CALENDAR": 0.005,
    "WRITE_CALENDAR": 0.005,
}


_OVERPRIV_COUNT_CDF = choice_cdf(_OVERPRIV_COUNT_WEIGHTS)


def sample_overprivilege_count(scope: str, rng: np.random.Generator) -> int:
    """How many unused permissions this app requests on top of used ones."""
    if rng.random() >= _OVERPRIV_ANY[scope]:
        return 0
    return bisect_right(_OVERPRIV_COUNT_CDF, rng.random()) + 1


# ---------------------------------------------------------------------------
# Table 5: the paper's named top-malware apps, seeded verbatim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CelebrityApp:
    """A named malicious app from the paper's Table 5."""

    package: str
    family: str
    markets: Tuple[str, ...]
    display_name: str


CELEBRITY_MALWARE: Tuple[CelebrityApp, ...] = (
    CelebrityApp("com.trustport.mobilesecurity_eicar_test_file", "eicar",
                 ("wandoujia", "pp25"), "Trustport EICAR Test"),
    CelebrityApp("games.hexalab.home", "mofin", ("liqu",), "Hexa Lab Home"),
    CelebrityApp("com.wb.gc.ljfk.baidu", "ramnit", ("baidu", "hiapk"),
                 "LJFK Game (Baidu)"),
    CelebrityApp("com.ypt.merchant", "ramnit",
                 ("tencent", "wandoujia", "oppo", "pp25", "liqu"),
                 "YPT Merchant mPOS"),
    CelebrityApp("com.wsljtwinmobi", "ramnit", ("tencent", "pp25"), "WSLJ Twin"),
    CelebrityApp("com.wb.gc.ljfk.tx", "ramnit", ("tencent",), "LJFK Game (TX)"),
    CelebrityApp("com.wgljd", "ramnit", ("tencent", "market360"), "WGLJD"),
    CelebrityApp("com.zoner.android.eicar", "eicar",
                 ("google_play", "wandoujia", "pp25"), "Zoner EICAR Test"),
    CelebrityApp("com.zhiyun.cnhyb.activity", "ramnit", ("baidu",), "CNHYB"),
    CelebrityApp("com.fai.shuiligongcheng", "ramnit", ("pp25",),
                 "Shuili Gongcheng"),
)
