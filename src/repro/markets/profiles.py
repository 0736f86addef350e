"""Profiles of Google Play and the 16 Chinese app markets.

Each :class:`MarketProfile` combines two kinds of data:

* **Policy features** from the paper's Table 1 and Section 2 — openness,
  copyright checks, vetting, incentives, transparency — which drive the
  behavior of the simulated store (vetting pipeline, metadata reporting,
  the 360 obfuscation requirement, ...).
* **Calibration targets** from the paper's measurements (Figure 2's
  download matrix, Table 3/4/6 misbehavior and removal rates, Figure 9's
  version freshness, Section 5.2's single-store shares), used by the
  ecosystem generator to synthesize a world whose measured statistics
  land near the paper's.

The analysis code never reads these targets; it measures the crawled
corpus.  Experiments render paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "MarketProfile",
    "GOOGLE_PLAY",
    "ALL_MARKET_IDS",
    "CHINESE_MARKET_IDS",
    "get_profile",
    "iter_profiles",
    "DOWNLOAD_BIN_LABELS",
    "DOWNLOAD_BIN_EDGES",
]

#: Download bins used by Google Play's install ranges and Figure 2.
DOWNLOAD_BIN_LABELS = ("0-10", "10-100", "100-1K", "1K-10K", "10K-100K", "100K-1M", ">1M")
DOWNLOAD_BIN_EDGES = (0, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

GOOGLE_PLAY = "google_play"


@dataclass(frozen=True)
class MarketProfile:
    """Static description of one app market."""

    market_id: str
    display_name: str
    kind: str  # "official" | "web" | "vendor" | "specialized"

    # ---- Table 1: dataset size & policy features -------------------------
    paper_size: int
    paper_downloads_billions: Optional[float]
    paper_developers: int
    paper_unique_dev_pct: float
    openness: str  # "open" | "partial" | "companies_only"
    copyright_check: bool
    app_vetting: bool
    security_check: bool
    human_inspection: bool
    vetting_days: Optional[Tuple[float, float]]
    quality_rating: bool
    incentive_exclusive: bool
    incentive_quality: bool
    incentive_editors: bool
    privacy_policy_required: bool
    reports_ads: bool
    reports_iap: bool

    # ---- metadata reporting behavior -------------------------------------
    reports_downloads: bool
    download_style: str  # "bins" | "exact"
    download_bin_shares: Tuple[float, ...]  # Figure 2 row (7 shares, sum<=1)
    unrated_share: float  # share of listings without user ratings
    default_rating: Optional[float]  # PC Online reports 3.0 for unrated apps
    rating_high_bias: float  # 0..1, how top-heavy nonzero ratings are
    category_null_share: float  # share of listings with NULL/garbage category
    n_categories: int  # size of the market's own taxonomy

    # ---- store behavior ----------------------------------------------------
    requires_obfuscation: bool  # 360 Jiagubao requirement
    channel_file: Optional[str]  # META-INF channel marker name
    crawl_strategy: str  # "bfs_related" | "int_index" | "category_pages"
    apk_rate_limited: bool  # Google Play limited APK downloads
    discontinued_at_second_crawl: bool  # HiApk shut down by end of 2017
    app_only_at_second_crawl: bool  # OPPO became app-only

    # ---- calibration targets (paper measurements) -------------------------
    highest_version_share: float  # Figure 9
    single_store_share: float  # Section 5.2
    fake_rate: float  # Table 3, %
    sb_clone_rate: float  # Table 3, %
    cb_clone_rate: float  # Table 3, %
    av1_rate: float  # Table 4, % flagged by >=1 engines
    av10_rate: float  # Table 4, % flagged by >=10
    av20_rate: float  # Table 4, % flagged by >=20
    malware_removal_rate: Optional[float]  # Table 6, % (None if excluded)
    tpl_presence: float  # Figure 5a, share of apps with any TPL
    tpl_avg_count: float  # Figure 5a, average #TPLs per app
    adlib_presence: float  # Figure 5b
    vet_catch: float  # share of overtly malicious submissions rejected

    #: Hostility behaviors this market exhibits toward crawlers when the
    #: study opts in (``--hostility profile``); names from
    #: :data:`repro.markets.hostility.HOSTILITY_BEHAVIORS`.  Markets
    #: stay perfectly polite unless the study turns hostility on.
    hostility: Tuple[str, ...] = ()

    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def is_google_play(self) -> bool:
        return self.market_id == GOOGLE_PLAY

    def __post_init__(self) -> None:
        if len(self.download_bin_shares) != len(DOWNLOAD_BIN_LABELS):
            raise ValueError(
                f"{self.market_id}: need {len(DOWNLOAD_BIN_LABELS)} bin shares"
            )
        total = sum(self.download_bin_shares)
        if total > 1.005:
            raise ValueError(f"{self.market_id}: bin shares sum to {total} > 1")
        if self.kind not in ("official", "web", "vendor", "specialized"):
            raise ValueError(f"{self.market_id}: bad kind {self.kind!r}")
        from repro.markets.hostility import HOSTILITY_BEHAVIORS

        for behavior in self.hostility:
            if behavior not in HOSTILITY_BEHAVIORS:
                raise ValueError(
                    f"{self.market_id}: unknown hostility behavior {behavior!r}"
                )


def _pct(*values: float) -> Tuple[float, ...]:
    """Convert Figure 2 percentages to shares."""
    return tuple(v / 100.0 for v in values)


_PROFILES: Dict[str, MarketProfile] = {}


def _register(profile: MarketProfile) -> None:
    if profile.market_id in _PROFILES:
        raise ValueError(f"duplicate market id {profile.market_id}")
    _PROFILES[profile.market_id] = profile


_register(MarketProfile(
    market_id=GOOGLE_PLAY, display_name="Google Play", kind="official",
    paper_size=2_031_946, paper_downloads_billions=193.0,
    paper_developers=538_283, paper_unique_dev_pct=57.04,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(0.2, 0.5),
    quality_rating=True, incentive_exclusive=False, incentive_quality=True,
    incentive_editors=True, privacy_policy_required=True,
    reports_ads=True, reports_iap=True,
    reports_downloads=True, download_style="bins",
    download_bin_shares=_pct(4.05, 17.90, 30.52, 25.38, 15.15, 5.62, 1.21),
    unrated_share=0.093, default_rating=None, rating_high_bias=0.80,
    category_null_share=0.0, n_categories=33,
    requires_obfuscation=False, channel_file=None,
    crawl_strategy="bfs_related", apk_rate_limited=True,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.954, single_store_share=0.77,
    fake_rate=0.03, sb_clone_rate=4.01, cb_clone_rate=17.82,
    av1_rate=17.03, av10_rate=2.09, av20_rate=0.32,
    malware_removal_rate=84.0,
    tpl_presence=0.94, tpl_avg_count=8.0, adlib_presence=0.70,
    vet_catch=0.93,
))

_register(MarketProfile(
    market_id="tencent", display_name="Tencent Myapp", kind="web",
    paper_size=636_265, paper_downloads_billions=82.0,
    paper_developers=294_950, paper_unique_dev_pct=10.61,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 1.0),
    quality_rating=True, incentive_exclusive=True, incentive_quality=True,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(55.87, 12.37, 15.50, 10.38, 4.21, 1.21, 0.35),
    unrated_share=0.82, default_rating=None, rating_high_bias=0.55,
    category_null_share=0.40, n_categories=24,
    requires_obfuscation=False, channel_file="META-INF/txchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.894, single_store_share=0.15,
    fake_rate=0.53, sb_clone_rate=8.24, cb_clone_rate=22.73,
    av1_rate=34.15, av10_rate=11.16, av20_rate=3.45,
    malware_removal_rate=8.75,
    tpl_presence=0.92, tpl_avg_count=13.0, adlib_presence=0.55,
    vet_catch=0.30,
    hostility=("auth", "binary"),
))

_register(MarketProfile(
    market_id="baidu", display_name="Baidu Market", kind="web",
    paper_size=227_454, paper_downloads_billions=94.0,
    paper_developers=107_698, paper_unique_dev_pct=15.10,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=False,
    incentive_editors=False, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.00, 34.98, 25.91, 23.21, 7.65, 5.40, 2.26),
    unrated_share=0.55, default_rating=None, rating_high_bias=0.60,
    category_null_share=0.0, n_categories=22,
    requires_obfuscation=False, channel_file="META-INF/bdchannel",
    crawl_strategy="int_index", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.529, single_store_share=0.10,
    fake_rate=0.48, sb_clone_rate=10.98, cb_clone_rate=17.38,
    av1_rate=42.77, av10_rate=12.24, av20_rate=3.30,
    malware_removal_rate=23.99,
    tpl_presence=0.91, tpl_avg_count=12.0, adlib_presence=0.54,
    vet_catch=0.28,
    hostility=("antibot",),
    extra={"crawls_google_play": True},
))

_register(MarketProfile(
    market_id="market360", display_name="360 Market", kind="web",
    paper_size=163_121, paper_downloads_billions=50.0,
    paper_developers=90_226, paper_unique_dev_pct=6.80,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(1.0, 1.0),
    quality_rating=True, incentive_exclusive=True, incentive_quality=True,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=True, reports_iap=True,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(16.54, 16.08, 19.25, 25.79, 12.78, 7.24, 1.97),
    unrated_share=0.50, default_rating=None, rating_high_bias=0.60,
    category_null_share=0.40, n_categories=20,
    requires_obfuscation=True, channel_file="META-INF/qhchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.825, single_store_share=0.08,
    fake_rate=0.50, sb_clone_rate=5.43, cb_clone_rate=23.26,
    av1_rate=41.40, av10_rate=12.35, av20_rate=3.10,
    malware_removal_rate=43.0,
    tpl_presence=0.93, tpl_avg_count=20.0, adlib_presence=0.58,
    vet_catch=0.30,
    hostility=("auth", "antibot"),
))

_register(MarketProfile(
    market_id="oppo", display_name="OPPO Market", kind="vendor",
    paper_size=426_419, paper_downloads_billions=57.0,
    paper_developers=209_197, paper_unique_dev_pct=14.37,
    openness="partial", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=False,
    incentive_editors=False, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.00, 0.00, 84.31, 10.47, 3.16, 1.55, 0.43),
    unrated_share=0.83, default_rating=None, rating_high_bias=0.55,
    category_null_share=0.40, n_categories=19,
    requires_obfuscation=False, channel_file="META-INF/oppochannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=True,
    highest_version_share=0.902, single_store_share=0.22,
    fake_rate=0.38, sb_clone_rate=5.85, cb_clone_rate=20.94,
    av1_rate=42.97, av10_rate=16.43, av20_rate=6.00,
    malware_removal_rate=None,
    tpl_presence=0.90, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.20,
))

_register(MarketProfile(
    market_id="xiaomi", display_name="Xiaomi Market", kind="vendor",
    paper_size=91_190, paper_downloads_billions=None,
    paper_developers=55_669, paper_unique_dev_pct=5.78,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=False, download_style="exact",
    download_bin_shares=_pct(0, 0, 0, 0, 0, 0, 0),
    unrated_share=0.45, default_rating=None, rating_high_bias=0.62,
    category_null_share=0.0, n_categories=20,
    requires_obfuscation=False, channel_file="META-INF/michannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.639, single_store_share=0.06,
    fake_rate=0.0, sb_clone_rate=8.00, cb_clone_rate=20.11,
    av1_rate=55.11, av10_rate=9.12, av20_rate=1.82,
    malware_removal_rate=32.50,
    tpl_presence=0.91, tpl_avg_count=13.0, adlib_presence=0.53,
    vet_catch=0.35,
    hostility=("binary",),
))

_register(MarketProfile(
    market_id="meizu", display_name="MeiZu Market", kind="vendor",
    paper_size=80_573, paper_downloads_billions=19.0,
    paper_developers=50_451, paper_unique_dev_pct=0.58,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(7.63, 13.50, 45.37, 19.54, 7.97, 4.28, 1.42),
    unrated_share=0.50, default_rating=None, rating_high_bias=0.62,
    category_null_share=0.0, n_categories=18,
    requires_obfuscation=False, channel_file="META-INF/mzchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.691, single_store_share=0.008,
    fake_rate=1.14, sb_clone_rate=6.65, cb_clone_rate=18.42,
    av1_rate=51.40, av10_rate=10.70, av20_rate=3.14,
    malware_removal_rate=29.18,
    tpl_presence=0.90, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.30,
))

_register(MarketProfile(
    market_id="huawei", display_name="Huawei Market", kind="vendor",
    paper_size=51_303, paper_downloads_billions=83.0,
    paper_developers=32_927, paper_unique_dev_pct=5.66,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(3.0, 5.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=True,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.10, 0.00, 38.05, 27.33, 17.64, 11.73, 4.16),
    unrated_share=0.35, default_rating=None, rating_high_bias=0.68,
    category_null_share=0.0, n_categories=18,
    requires_obfuscation=False, channel_file="META-INF/hwchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.727, single_store_share=0.05,
    fake_rate=0.33, sb_clone_rate=11.54, cb_clone_rate=18.76,
    av1_rate=57.48, av10_rate=4.71, av20_rate=0.57,
    malware_removal_rate=26.92,
    tpl_presence=0.92, tpl_avg_count=13.0, adlib_presence=0.54,
    vet_catch=0.62,
    hostility=("package_list",),
))

_register(MarketProfile(
    market_id="lenovo", display_name="Lenovo MM", kind="vendor",
    paper_size=37_716, paper_downloads_billions=24.0,
    paper_developers=24_565, paper_unique_dev_pct=0.79,
    openness="companies_only", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(2.0, 2.0),
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.04, 14.70, 0.00, 53.54, 16.78, 11.02, 3.19),
    unrated_share=0.40, default_rating=None, rating_high_bias=0.64,
    category_null_share=0.0, n_categories=19,
    requires_obfuscation=False, channel_file="META-INF/lnchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.604, single_store_share=0.04,
    fake_rate=0.67, sb_clone_rate=7.81, cb_clone_rate=16.37,
    av1_rate=54.20, av10_rate=7.53, av20_rate=1.52,
    malware_removal_rate=22.75,
    tpl_presence=0.90, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.50,
))

_register(MarketProfile(
    market_id="pp25", display_name="25PP", kind="specialized",
    paper_size=1_013_208, paper_downloads_billions=56.0,
    paper_developers=470_073, paper_unique_dev_pct=19.06,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=True,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.27, 4.63, 68.02, 20.34, 4.82, 1.49, 0.37),
    unrated_share=0.85, default_rating=None, rating_high_bias=0.55,
    category_null_share=0.40, n_categories=23,
    requires_obfuscation=False, channel_file="META-INF/ppchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.918, single_store_share=0.21,
    fake_rate=0.35, sb_clone_rate=7.16, cb_clone_rate=24.08,
    av1_rate=32.36, av10_rate=8.26, av20_rate=2.06,
    malware_removal_rate=19.63,
    tpl_presence=0.89, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.22,
))

_register(MarketProfile(
    market_id="wandoujia", display_name="Wandoujia", kind="specialized",
    paper_size=554_138, paper_downloads_billions=38.0,
    paper_developers=291_114, paper_unique_dev_pct=0.97,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(1.96, 4.74, 43.66, 35.24, 12.17, 1.77, 0.38),
    unrated_share=0.60, default_rating=None, rating_high_bias=0.60,
    category_null_share=0.0, n_categories=21,
    requires_obfuscation=False, channel_file="META-INF/wdjchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.900, single_store_share=0.008,
    fake_rate=0.39, sb_clone_rate=5.98, cb_clone_rate=21.23,
    av1_rate=31.99, av10_rate=7.98, av20_rate=2.19,
    malware_removal_rate=34.51,
    tpl_presence=0.91, tpl_avg_count=12.0, adlib_presence=0.53,
    vet_catch=0.30,
))

_register(MarketProfile(
    market_id="hiapk", display_name="HiApk", kind="specialized",
    paper_size=246_023, paper_downloads_billions=17.0,
    paper_developers=115_191, paper_unique_dev_pct=3.65,
    openness="open", copyright_check=False, app_vetting=False,
    security_check=False, human_inspection=False, vetting_days=None,
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=False, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.00, 0.00, 78.24, 13.15, 5.93, 2.05, 0.53),
    unrated_share=0.65, default_rating=None, rating_high_bias=0.58,
    category_null_share=0.0, n_categories=20,
    requires_obfuscation=False, channel_file="META-INF/hichannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=True, app_only_at_second_crawl=False,
    highest_version_share=0.666, single_store_share=0.09,
    fake_rate=0.64, sb_clone_rate=7.51, cb_clone_rate=20.08,
    av1_rate=41.89, av10_rate=11.12, av20_rate=2.72,
    malware_removal_rate=None,
    tpl_presence=0.89, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.0,
))

_register(MarketProfile(
    market_id="anzhi", display_name="AnZhi Market", kind="specialized",
    paper_size=223_043, paper_downloads_billions=12.0,
    paper_developers=74_145, paper_unique_dev_pct=21.93,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.10, 1.35, 49.72, 42.83, 4.86, 0.84, 0.23),
    unrated_share=0.70, default_rating=None, rating_high_bias=0.58,
    category_null_share=0.0, n_categories=21,
    requires_obfuscation=False, channel_file="META-INF/azchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.759, single_store_share=0.22,
    fake_rate=0.57, sb_clone_rate=4.92, cb_clone_rate=20.71,
    av1_rate=55.32, av10_rate=11.37, av20_rate=2.41,
    malware_removal_rate=27.61,
    tpl_presence=0.90, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.18,
))

_register(MarketProfile(
    market_id="liqu", display_name="LIQU", kind="specialized",
    paper_size=179_147, paper_downloads_billions=26.0,
    paper_developers=101_336, paper_unique_dev_pct=6.10,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=None,
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.01, 0.03, 0.01, 71.83, 22.32, 5.14, 0.61),
    unrated_share=0.60, default_rating=None, rating_high_bias=0.58,
    category_null_share=0.0, n_categories=20,
    requires_obfuscation=False, channel_file="META-INF/lqchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.797, single_store_share=0.09,
    fake_rate=0.40, sb_clone_rate=5.32, cb_clone_rate=16.68,
    av1_rate=45.91, av10_rate=13.00, av20_rate=4.27,
    malware_removal_rate=14.08,
    tpl_presence=0.89, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.12,
))

_register(MarketProfile(
    market_id="pconline", display_name="PC Online", kind="specialized",
    paper_size=134_863, paper_downloads_billions=0.2,
    paper_developers=65_225, paper_unique_dev_pct=2.58,
    openness="open", copyright_check=False, app_vetting=False,
    security_check=False, human_inspection=False, vetting_days=None,
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=False, privacy_policy_required=False,
    reports_ads=False, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(13.07, 74.19, 8.62, 2.98, 0.91, 0.21, 0.02),
    unrated_share=0.75, default_rating=3.0, rating_high_bias=0.50,
    category_null_share=0.0, n_categories=19,
    requires_obfuscation=False, channel_file="META-INF/pcchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.841, single_store_share=0.12,
    fake_rate=1.89, sb_clone_rate=8.60, cb_clone_rate=23.34,
    av1_rate=55.93, av10_rate=24.01, av20_rate=8.37,
    malware_removal_rate=0.01,
    tpl_presence=0.85, tpl_avg_count=11.0, adlib_presence=0.50,
    vet_catch=0.0,
))

_register(MarketProfile(
    market_id="sougou", display_name="Sougou", kind="specialized",
    paper_size=128_403, paper_downloads_billions=3.0,
    paper_developers=66_759, paper_unique_dev_pct=4.04,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=False, vetting_days=(1.0, 1.0),
    quality_rating=False, incentive_exclusive=True, incentive_quality=True,
    incentive_editors=False, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=True, download_style="exact",
    download_bin_shares=_pct(0.77, 17.83, 55.13, 22.27, 2.51, 1.15, 0.31),
    unrated_share=0.65, default_rating=None, rating_high_bias=0.56,
    category_null_share=0.0, n_categories=20,
    requires_obfuscation=False, channel_file="META-INF/sgchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.693, single_store_share=0.08,
    fake_rate=1.83, sb_clone_rate=4.86, cb_clone_rate=18.28,
    av1_rate=52.41, av10_rate=16.53, av20_rate=4.59,
    malware_removal_rate=24.24,
    tpl_presence=0.90, tpl_avg_count=12.0, adlib_presence=0.52,
    vet_catch=0.10,
))

_register(MarketProfile(
    market_id="appchina", display_name="App China", kind="specialized",
    paper_size=42_435, paper_downloads_billions=None,
    paper_developers=23_699, paper_unique_dev_pct=3.22,
    openness="open", copyright_check=True, app_vetting=True,
    security_check=True, human_inspection=True, vetting_days=(1.0, 3.0),
    quality_rating=False, incentive_exclusive=False, incentive_quality=False,
    incentive_editors=True, privacy_policy_required=False,
    reports_ads=True, reports_iap=False,
    reports_downloads=False, download_style="exact",
    download_bin_shares=_pct(0, 0, 0, 0, 0, 0, 0),
    unrated_share=0.60, default_rating=None, rating_high_bias=0.56,
    category_null_share=0.0, n_categories=20,
    requires_obfuscation=False, channel_file="META-INF/acchannel",
    crawl_strategy="category_pages", apk_rate_limited=False,
    discontinued_at_second_crawl=False, app_only_at_second_crawl=False,
    highest_version_share=0.772, single_store_share=0.07,
    fake_rate=0.0, sb_clone_rate=10.17, cb_clone_rate=13.23,
    av1_rate=48.55, av10_rate=14.13, av20_rate=4.27,
    malware_removal_rate=20.51,
    tpl_presence=0.88, tpl_avg_count=11.0, adlib_presence=0.51,
    vet_catch=0.15,
    extra={"max_apk_mb": 50},
))

#: All 17 market ids in the paper's Table 1 order.
ALL_MARKET_IDS: Tuple[str, ...] = (
    GOOGLE_PLAY, "tencent", "baidu", "market360", "oppo", "xiaomi",
    "meizu", "huawei", "lenovo", "pp25", "wandoujia", "hiapk", "anzhi",
    "liqu", "pconline", "sougou", "appchina",
)

#: The 16 alternative Chinese markets.
CHINESE_MARKET_IDS: Tuple[str, ...] = tuple(
    m for m in ALL_MARKET_IDS if m != GOOGLE_PLAY
)

if set(ALL_MARKET_IDS) != set(_PROFILES):
    raise AssertionError("market id list out of sync with registered profiles")


def get_profile(market_id: str) -> MarketProfile:
    """Look up a market profile by id."""
    try:
        return _PROFILES[market_id]
    except KeyError:
        raise KeyError(f"unknown market id: {market_id!r}") from None


def iter_profiles() -> Iterable[MarketProfile]:
    """Iterate over all 17 profiles in Table 1 order."""
    return (get_profile(m) for m in ALL_MARKET_IDS)
