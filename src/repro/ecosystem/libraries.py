"""Third-party library catalog.

Models the SDK ecosystem of Section 4.4: global libraries (Google
services, Facebook, game engines) versus Chinese-market libraries
(WeChat, Alipay, Baidu, Umeng, dozens of Chinese ad networks).  Each
library has per-region adoption targets taken from Table 2 where the
paper reports them, several versions with overlapping feature multisets
(so detector clustering behaves like LibRadar's), the permissions its
code exercises, and — for aggressive ad SDKs — a grayware family label
that weak anti-virus engines match on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apk.models import API_FEATURE_RANGE, CodePackage
from repro.util.rng import stable_hash64

__all__ = [
    "LIB_DEVELOPMENT",
    "LIB_ADVERTISEMENT",
    "LIB_ANALYTICS",
    "LIB_SOCIAL",
    "LIB_PAYMENT",
    "LIB_GAME_ENGINE",
    "LIB_MAP",
    "Library",
    "LibraryVersionCode",
    "LibraryCatalog",
    "default_catalog",
]

LIB_DEVELOPMENT = "Development"
LIB_ADVERTISEMENT = "Advertisement"
LIB_ANALYTICS = "Analytics"
LIB_SOCIAL = "Social Networking"
LIB_PAYMENT = "Payment"
LIB_GAME_ENGINE = "Game Engine"
LIB_MAP = "Map"


@dataclass(frozen=True)
class Library:
    """One third-party library.

    ``gp_usage`` / ``cn_usage`` are target adoption probabilities for
    apps aimed at Google Play versus the Chinese markets (Table 2 lists
    the measured values for the top 10 of each side).
    """

    package: str
    vendor: str
    category: str
    gp_usage: float
    cn_usage: float
    n_versions: int = 5
    permissions: Tuple[str, ...] = ()
    grayware_family: Optional[str] = None  # aggressive ad SDKs only
    tail: bool = False  # long-tail utility SDK (absorbs count calibration)

    @property
    def is_ad(self) -> bool:
        # Dual-purpose SDKs (e.g. Umeng "Analytics, Advertisement") count.
        return LIB_ADVERTISEMENT in self.category

    @property
    def is_aggressive(self) -> bool:
        return self.grayware_family is not None


@dataclass(frozen=True)
class LibraryVersionCode:
    """Generated code for one library version."""

    library: Library
    version_index: int
    features: Dict[int, int]
    blocks: Tuple[int, ...]

    def as_code_package(self) -> CodePackage:
        # Memoized on the frozen instance: every APK embedding this
        # library version packages the identical code.
        try:
            return self._code_package
        except AttributeError:
            pkg = CodePackage(
                name=self.library.package,
                features=dict(self.features),
                blocks=self.blocks,
            )
            object.__setattr__(self, "_code_package", pkg)
            return pkg


def _lib(package, vendor, category, gp, cn, versions=5, perms=(), grayware=None):
    return Library(
        package=package, vendor=vendor, category=category,
        gp_usage=gp, cn_usage=cn, n_versions=versions,
        permissions=tuple(perms), grayware_family=grayware,
    )


def _default_libraries() -> List[Library]:
    """The built-in catalog.

    Usage targets for the top-10 libraries come from Table 2; the long
    tail is shaped so that the expected library count per app is ~8 for
    Google-Play-oriented apps and ~12–13 for Chinese-market apps, with
    ad-library presence ~70% (GP) and ~53% (Chinese markets), matching
    Figure 5.  The paper labels 282 ad libraries out of 5,102 clusters;
    we keep the same structure with a smaller named tail (documented in
    DESIGN.md).
    """
    libs: List[Library] = [
        # ---- Table 2, Google Play side ------------------------------------
        _lib("com.google.android.gms", "Google", LIB_DEVELOPMENT, 0.661, 0.205,
             versions=8, perms=("ACCESS_NETWORK_STATE", "INTERNET")),
        _lib("com.google.ads", "Google AdMob", LIB_ADVERTISEMENT, 0.621, 0.257,
             versions=8, perms=("INTERNET", "ACCESS_NETWORK_STATE")),
        _lib("com.facebook", "Facebook", LIB_SOCIAL, 0.215, 0.107,
             versions=6, perms=("INTERNET",)),
        _lib("org.apache", "Apache", LIB_DEVELOPMENT, 0.205, 0.241, versions=6),
        _lib("com.squareup", "Square", LIB_PAYMENT, 0.138, 0.050, versions=5,
             perms=("INTERNET",)),
        _lib("com.google.gson", "Google", LIB_DEVELOPMENT, 0.129, 0.163, versions=5),
        _lib("com.android.vending", "Google", LIB_PAYMENT, 0.125, 0.030,
             versions=4, perms=("INTERNET",)),
        _lib("com.unity3d", "Unity", LIB_GAME_ENGINE, 0.118, 0.080, versions=6,
             perms=("INTERNET", "WAKE_LOCK")),
        _lib("org.fmod", "FMOD", LIB_GAME_ENGINE, 0.096, 0.050, versions=4),
        _lib("com.google.firebase", "Google", LIB_DEVELOPMENT, 0.090, 0.020,
             versions=6, perms=("INTERNET",)),
        # ---- Table 2, Chinese-market side ----------------------------------
        _lib("com.tencent.mm", "Tencent WeChat", LIB_SOCIAL, 0.010, 0.242,
             versions=6, perms=("INTERNET",)),
        _lib("com.baidu", "Baidu", LIB_MAP, 0.015, 0.237, versions=7,
             perms=("INTERNET", "ACCESS_COARSE_LOCATION", "ACCESS_FINE_LOCATION")),
        _lib("com.umeng", "Umeng", "Analytics, Advertisement", 0.020, 0.231,
             versions=7,
             perms=("INTERNET", "READ_PHONE_STATE", "ACCESS_NETWORK_STATE")),
        _lib("com.alipay", "Alipay", LIB_PAYMENT, 0.010, 0.154, versions=6,
             perms=("INTERNET",)),
        _lib("com.nostra13", "UIL", LIB_DEVELOPMENT, 0.080, 0.148, versions=4),
        # ---- other well-known global SDKs ----------------------------------
        _lib("com.crashlytics", "Crashlytics", LIB_ANALYTICS, 0.110, 0.020,
             versions=5, perms=("INTERNET",)),
        _lib("com.flurry", "Flurry", LIB_ANALYTICS, 0.090, 0.015, versions=5,
             perms=("INTERNET", "ACCESS_COARSE_LOCATION")),
        _lib("com.twitter.sdk", "Twitter", LIB_SOCIAL, 0.040, 0.005, versions=4),
        _lib("io.fabric", "Fabric", LIB_DEVELOPMENT, 0.080, 0.010, versions=4),
        _lib("com.mopub", "MoPub", LIB_ADVERTISEMENT, 0.040, 0.010, versions=5,
             perms=("INTERNET", "ACCESS_COARSE_LOCATION")),
        _lib("com.chartboost", "Chartboost", LIB_ADVERTISEMENT, 0.035, 0.010,
             versions=4, perms=("INTERNET",)),
        _lib("com.applovin", "AppLovin", LIB_ADVERTISEMENT, 0.030, 0.008,
             versions=4, perms=("INTERNET",)),
        _lib("com.inmobi", "InMobi", LIB_ADVERTISEMENT, 0.030, 0.020, versions=4,
             perms=("INTERNET", "READ_PHONE_STATE")),
        _lib("com.tapjoy", "Tapjoy", LIB_ADVERTISEMENT, 0.025, 0.008, versions=4,
             perms=("INTERNET",)),
        _lib("com.vungle", "Vungle", LIB_ADVERTISEMENT, 0.020, 0.005, versions=4),
        _lib("com.adcolony", "AdColony", LIB_ADVERTISEMENT, 0.018, 0.005, versions=4),
        _lib("com.startapp", "StartApp", LIB_ADVERTISEMENT, 0.020, 0.006,
             versions=4, perms=("INTERNET", "ACCESS_COARSE_LOCATION")),
        _lib("com.cocos2dx", "Cocos2d-x", LIB_GAME_ENGINE, 0.040, 0.110, versions=5),
        _lib("com.badlogic.gdx", "libGDX", LIB_GAME_ENGINE, 0.035, 0.015, versions=4),
        _lib("com.loopj.android", "AsyncHttp", LIB_DEVELOPMENT, 0.090, 0.090,
             versions=4, perms=("INTERNET",)),
        _lib("com.github.retrofit", "Retrofit", LIB_DEVELOPMENT, 0.110, 0.060,
             versions=5, perms=("INTERNET",)),
        _lib("org.greenrobot", "greenrobot", LIB_DEVELOPMENT, 0.080, 0.070, versions=4),
        _lib("com.jakewharton", "Butterknife", LIB_DEVELOPMENT, 0.070, 0.040,
             versions=4),
        _lib("io.realm", "Realm", LIB_DEVELOPMENT, 0.035, 0.015, versions=4),
        _lib("com.airbnb.lottie", "Lottie", LIB_DEVELOPMENT, 0.025, 0.012, versions=3),
        # ---- aggressive global ad SDKs (grayware families of Fig. 12) ------
        _lib("com.airpush", "Airpush", LIB_ADVERTISEMENT, 0.060, 0.012,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE",
                                "ACCESS_COARSE_LOCATION"),
             grayware="airpush"),
        _lib("com.revmob", "RevMob", LIB_ADVERTISEMENT, 0.035, 0.006,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="revmob"),
        _lib("com.pad.android", "LeadBolt", LIB_ADVERTISEMENT, 0.020, 0.012,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="leadbolt"),
        # ---- Chinese SDK long tail ------------------------------------------
        _lib("com.tencent.open", "Tencent QQ", LIB_SOCIAL, 0.005, 0.168,
             versions=5, perms=("INTERNET",)),
        _lib("com.tencent.bugly", "Tencent Bugly", LIB_ANALYTICS, 0.004, 0.154,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE")),
        _lib("com.sina.weibo", "Sina Weibo", LIB_SOCIAL, 0.005, 0.126,
             versions=4, perms=("INTERNET",)),
        _lib("cn.jpush", "JPush", LIB_DEVELOPMENT, 0.004, 0.168, versions=5,
             perms=("INTERNET", "READ_PHONE_STATE", "RECEIVE_BOOT_COMPLETED")),
        _lib("com.amap.api", "AMap", LIB_MAP, 0.003, 0.126, versions=5,
             perms=("ACCESS_FINE_LOCATION", "ACCESS_COARSE_LOCATION", "INTERNET")),
        _lib("com.xiaomi.push", "Mi Push", LIB_DEVELOPMENT, 0.002, 0.070,
             versions=4, perms=("INTERNET",)),
        _lib("com.huawei.hms", "Huawei HMS", LIB_DEVELOPMENT, 0.004, 0.060,
             versions=4, perms=("INTERNET",)),
        _lib("com.qq.e", "Tencent GDT Ads", LIB_ADVERTISEMENT, 0.003, 0.050,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE")),
        _lib("com.baidu.mobads", "Baidu Ads", LIB_ADVERTISEMENT, 0.002, 0.045,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE",
                                "ACCESS_COARSE_LOCATION")),
        _lib("com.qihoo.sdk", "Qihoo 360 SDK", LIB_DEVELOPMENT, 0.001, 0.050,
             versions=4, perms=("INTERNET",)),
        _lib("com.unionpay", "UnionPay", LIB_PAYMENT, 0.002, 0.040, versions=4,
             perms=("INTERNET",)),
        _lib("com.iflytek", "iFlytek", LIB_DEVELOPMENT, 0.001, 0.035,
             versions=4, perms=("RECORD_AUDIO", "INTERNET")),
        _lib("com.igexin", "Getui Push", LIB_DEVELOPMENT, 0.001, 0.112,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE")),
        _lib("com.ta.utdid2", "Alibaba UTDID", LIB_ANALYTICS, 0.001, 0.060,
             versions=3, perms=("READ_PHONE_STATE",)),
        _lib("com.duiba", "Duiba", LIB_DEVELOPMENT, 0.001, 0.020, versions=3),
        _lib("com.pingplusplus", "Ping++", LIB_PAYMENT, 0.001, 0.018, versions=3,
             perms=("INTERNET",)),
        _lib("com.tendcloud", "TalkingData", LIB_ANALYTICS, 0.002, 0.055,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE",
                                "ACCESS_COARSE_LOCATION")),
        _lib("com.meiqia", "Meiqia", LIB_DEVELOPMENT, 0.001, 0.015, versions=3),
        _lib("org.android.agoo", "Taobao Agoo", LIB_DEVELOPMENT, 0.001, 0.045,
             versions=3, perms=("INTERNET",)),
        # ---- aggressive Chinese ad SDKs (grayware families of Fig. 12) -----
        _lib("com.kuguo.ad", "Kuguo", LIB_ADVERTISEMENT, 0.002, 0.030,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE", "SEND_SMS"),
             grayware="kuguo"),
        _lib("com.dowgin.sdk", "Dowgin", LIB_ADVERTISEMENT, 0.002, 0.022,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="dowgin"),
        _lib("net.youmi.android", "Youmi", LIB_ADVERTISEMENT, 0.002, 0.020,
             versions=5, perms=("INTERNET", "READ_PHONE_STATE",
                                "ACCESS_COARSE_LOCATION"),
             grayware="youmi"),
        _lib("com.adwo.adsdk", "Adwo", LIB_ADVERTISEMENT, 0.001, 0.013,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="adwo"),
        _lib("cn.domob.android", "Domob", LIB_ADVERTISEMENT, 0.001, 0.013,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="domob"),
        _lib("cn.waps", "Waps", LIB_ADVERTISEMENT, 0.001, 0.011,
             versions=4, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="waps"),
        _lib("com.commplat.pay", "Commplat", LIB_ADVERTISEMENT, 0.001, 0.009,
             versions=3, perms=("SEND_SMS", "READ_PHONE_STATE"),
             grayware="commplat"),
        _lib("com.adend.sdk", "AdEnd", LIB_ADVERTISEMENT, 0.001, 0.008,
             versions=3, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="adend"),
        _lib("com.secapk.wrapper", "SecApk", LIB_ADVERTISEMENT, 0.001, 0.010,
             versions=3, perms=("INTERNET", "READ_PHONE_STATE"),
             grayware="secapk"),
        _lib("com.gappusin.sdk", "Gappusin", LIB_ADVERTISEMENT, 0.001, 0.009,
             versions=3, perms=("INTERNET",),
             grayware="gappusin"),
    ]
    libs.extend(_tail_libraries())
    return libs


# Names used to synthesize the long tail of utility SDKs; combined with a
# numeric index they yield stable, unique package prefixes.
_TAIL_WORDS = (
    "swiftnet", "volleyx", "okio", "eventhub", "imagecache", "jsonkit",
    "pushcore", "netkit", "dbflow", "chartview", "pulltorefresh",
    "viewpager", "slidemenu", "qrcode", "downloadmgr", "logkit",
    "cryptoutil", "httpdns", "socketio", "webcache", "emojilib",
    "audiokit", "videocache", "gifview", "lockpattern", "calendarview",
    "wheelpicker", "tagflow", "bannerview", "badgeview", "floatwin",
    "keyboardfix", "statusbar", "permissionhelper", "filepicker",
    "richeditor", "markdownview", "zipcore", "patchfix", "hotswap",
    "netprobe", "imagezoom", "jsonpath", "cachewarm", "uikitx",
)

_TAIL_COUNT = 90


def _tail_libraries() -> List[Library]:
    """The long tail of generic utility SDKs.

    The paper's rebuilt feature set contains 5,102 libraries; beyond the
    named leaders, the bulk are small development/analytics helpers.
    Their usage rates lift the expected library count per app to ~8 for
    Google-Play-facing apps and ~12.5 for Chinese-market apps (Figure 5a)
    while each stays below the Table 2 top-10 usage floor, so the named
    leaders keep their ranks.  Tail libraries are marked ``tail=True``;
    the generator scales only their adoption when a market's average
    library count calls for it (e.g. the 360 market's 20 TPLs per app).
    """
    tail: List[Library] = []
    for i in range(_TAIL_COUNT):
        word = _TAIL_WORDS[i % len(_TAIL_WORDS)]
        suffix = "" if i < len(_TAIL_WORDS) else str(i // len(_TAIL_WORDS) + 1)
        category = LIB_ANALYTICS if i % 5 == 0 else LIB_DEVELOPMENT
        gp = 0.030 + 0.035 * ((i * 7) % 10) / 10.0
        cn = 0.060 + 0.035 * ((i * 3) % 10) / 10.0
        tail.append(
            Library(
                package=f"com.{word}{suffix}.sdk",
                vendor=word.capitalize(),
                category=category,
                gp_usage=round(gp, 4),
                cn_usage=round(cn, 4),
                n_versions=3 + (i % 4),
                permissions=("INTERNET",) if i % 3 == 0 else (),
                tail=True,
            )
        )
    return tail


class LibraryCatalog:
    """Indexed catalog of libraries with generated per-version code."""

    def __init__(self, libraries: List[Library]):
        self._libraries = list(libraries)
        self._by_package = {lib.package: lib for lib in self._libraries}
        if len(self._by_package) != len(self._libraries):
            raise ValueError("duplicate library package in catalog")
        self._version_cache: Dict[Tuple[str, int], LibraryVersionCode] = {}

    def __len__(self) -> int:
        return len(self._libraries)

    def __iter__(self):
        return iter(self._libraries)

    def get(self, package: str) -> Library:
        try:
            return self._by_package[package]
        except KeyError:
            raise KeyError(f"unknown library {package!r}") from None

    @property
    def aggressive_libraries(self) -> List[Library]:
        return [lib for lib in self._libraries if lib.is_aggressive]

    def usage(self, lib: Library, region: str) -> float:
        """Adoption target for ``region`` in ("global", "china")."""
        return lib.gp_usage if region == "global" else lib.cn_usage

    def expected_count(self, region: str, tier: Optional[str] = None) -> float:
        """Expected libraries per app under unit bias.

        ``tier`` restricts the sum to "named" or "tail" libraries.
        """
        libs = self._libraries
        if tier == "named":
            libs = [l for l in libs if not l.tail]
        elif tier == "tail":
            libs = [l for l in libs if l.tail]
        elif tier is not None:
            raise ValueError(f"unknown tier {tier!r}")
        return sum(self.usage(lib, region) for lib in libs)

    def version_code(self, package: str, version_index: int) -> LibraryVersionCode:
        """Generate (and cache) code for one library version.

        Feature multisets evolve slowly across versions (~80% overlap),
        which is what makes per-version clusters related yet distinct —
        the structure LibRadar's clustering exploits.
        """
        lib = self.get(package)
        if not 0 <= version_index < lib.n_versions:
            raise ValueError(
                f"{package} has versions 0..{lib.n_versions - 1}, "
                f"got {version_index}"
            )
        key = (package, version_index)
        if key in self._version_cache:
            return self._version_cache[key]

        from repro.android.permissions import platform_spec

        spec = platform_spec()
        rng = np.random.default_rng(stable_hash64("libcode", package) % 2**63)
        api_lo, api_hi = API_FEATURE_RANGE
        unguarded_hi = api_lo + (api_hi - api_lo) // 2
        # Base features shared by all versions of this library.
        base_size = int(rng.integers(18, 30))
        base_ids = rng.choice(
            np.arange(api_lo, unguarded_hi), size=base_size, replace=False
        )
        features: Dict[int, int] = {
            int(fid): int(rng.integers(1, 6)) for fid in base_ids
        }
        for perm in lib.permissions:
            features[spec.sample_feature(perm, rng)] = int(rng.integers(1, 4))
        blocks = [int(stable_hash64("libblock", package, i) & 0xFFFFFFFF)
                  for i in range(12)]

        # Per-version drift: each version adds/replaces a few features.
        # Permission-guarded calls are never dropped — the library keeps
        # exercising the permissions it declares, so version drift cannot
        # manufacture artificial over-privilege.
        guarded = {fid for fid in features if fid in spec.feature_permission}
        for v in range(version_index + 1):
            vrng = np.random.default_rng(
                stable_hash64("libver", package, v) % 2**63
            )
            n_changes = int(vrng.integers(2, 6))
            for _ in range(n_changes):
                fid = int(vrng.integers(api_lo, unguarded_hi))
                features[fid] = int(vrng.integers(1, 4))
            droppable = sorted(set(features) - guarded)
            if len(features) > base_size + 8 and droppable:
                features.pop(droppable[int(vrng.integers(0, len(droppable)))], None)
            blocks.append(int(stable_hash64("libblock", package, "v", v) & 0xFFFFFFFF))

        code = LibraryVersionCode(
            library=lib,
            version_index=version_index,
            features=features,
            blocks=tuple(blocks),
        )
        self._version_cache[key] = code
        return code


_DEFAULT: Optional[LibraryCatalog] = None


def default_catalog() -> LibraryCatalog:
    """The built-in catalog singleton."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = LibraryCatalog(_default_libraries())
    return _DEFAULT
