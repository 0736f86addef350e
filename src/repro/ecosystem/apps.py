"""App blueprints, own-code generation, and APK building.

An :class:`AppBlueprint` is the ground-truth description of one app: who
wrote it, what its code looks like, which libraries it embeds, which
permissions it uses versus requests, its version history, its per-market
placements, and (optionally) its threat profile or clone/fake
provenance.  :func:`build_apk` turns a blueprint into the binary archive
a market serves for a given version and channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Optional, Tuple

import numpy as np

from repro.android.permissions import PermissionSpec
from repro.apk.models import API_FEATURE_RANGE, Apk, ChannelFile, CodePackage, Manifest
from repro.apk.obfuscation import JiaguObfuscator
from repro.apk.archive import SegmentCache, serialize_apk
from repro.ecosystem.developers import Developer
from repro.ecosystem.libraries import LibraryCatalog
from repro.ecosystem.threats import ThreatProfile, payload_code
from repro.markets.profiles import MarketProfile
from repro.util.rng import stable_hash64
from repro.util.simtime import day_to_date

__all__ = [
    "AppVersion",
    "Placement",
    "OwnCode",
    "AppBlueprint",
    "generate_own_code",
    "perturb_own_code",
    "template_spam_code",
    "build_apk",
]

PROVENANCE_LEGIT = "legit"
PROVENANCE_FAKE = "fake"
PROVENANCE_SB_CLONE = "sb_clone"
PROVENANCE_CB_CLONE = "cb_clone"
PROVENANCE_TEMPLATE_SPAM = "template_spam"


@dataclass(frozen=True)
class AppVersion:
    """One released version of an app."""

    version_code: int
    version_name: str
    release_day: int


@dataclass
class Placement:
    """How one market lists this app."""

    market_id: str
    version_index: int  # index into the blueprint's versions at 1st crawl
    category_label: str  # market-reported category (may be NULL-ish)
    downloads: Optional[int]  # market-reported installs (None: not reported)
    rating: Optional[float]  # market-reported rating (None: unrated)
    listed_day: int
    removed_at: Optional[float] = None  # simulated day of removal, if any

    def live_at(self, day: float) -> bool:
        return self.removed_at is None or day < self.removed_at


@dataclass(frozen=True)
class OwnCode:
    """The app's first-party code: package name, features, blocks."""

    main_package: str
    features: Dict[int, int]
    blocks: Tuple[int, ...]

    def as_code_package(self) -> CodePackage:
        # Memoized on the frozen instance: the same own code is packaged
        # for every (market, version) blob of the app.
        try:
            return self._code_package
        except AttributeError:
            pkg = CodePackage(
                name=self.main_package, features=dict(self.features), blocks=self.blocks
            )
            object.__setattr__(self, "_code_package", pkg)
            return pkg


@dataclass
class AppBlueprint:
    """Ground truth for one app across all markets."""

    app_id: int
    package: str
    display_name: str
    category: str  # canonical taxonomy
    developer: Developer
    scope: str  # "global" | "china" | "mixed"
    popularity: float  # global percentile in [0, 1)
    quality: float  # drives ratings, in [0, 1]
    min_sdk: int
    target_sdk: int
    release_day: int
    versions: Tuple[AppVersion, ...]
    own_code: OwnCode
    libraries: Tuple[Tuple[str, int], ...]  # (lib package, version index)
    permissions_requested: Tuple[str, ...]
    placements: Dict[str, Placement] = field(default_factory=dict)
    threat: Optional[ThreatProfile] = None
    provenance: str = PROVENANCE_LEGIT
    related_app_id: Optional[int] = None  # fake target / clone source
    #: Repackaging-chain position: 0 = not a repack, 1 = direct clone,
    #: 2 = clone of a clone, ...  ``related_app_id`` points one link up
    #: the chain, so full provenance (A -> B -> C) is walkable.
    clone_depth: int = 0
    template_id: Optional[int] = None  # shared code template, if any

    @property
    def latest_version_index(self) -> int:
        return len(self.versions) - 1

    @property
    def last_update_day(self) -> int:
        return self.versions[-1].release_day

    @property
    def markets(self) -> Tuple[str, ...]:
        return tuple(sorted(self.placements))

    def version_at(self, index: int) -> AppVersion:
        return self.versions[index]


_API_LO = API_FEATURE_RANGE[0]
#: Own code calls only the unguarded lower half of the API space.
_UNGUARDED_SPAN = (API_FEATURE_RANGE[1] - _API_LO) // 2
_OWNBLOCK_PREFIX = repr("ownblock") + "\x1f"


def generate_own_code(
    rng: np.random.Generator,
    spec: PermissionSpec,
    package: str,
    permissions_used: Tuple[str, ...],
    template_seed: Optional[int] = None,
) -> OwnCode:
    """Generate first-party code for an app.

    When ``template_seed`` is given, the bulk of the code comes from the
    shared template (knock-off studios stamping out near-identical apps);
    otherwise features are app-unique.  Either way the code calls a
    couple of guarded APIs per used permission, which is what the
    over-privilege analysis statically recovers.
    """
    seed = template_seed if template_seed is not None else int(rng.integers(0, 2**62))
    code_rng = np.random.default_rng(stable_hash64("owncode", seed) % 2**63)

    # Own code carries enough call volume that a small injected payload
    # (or a couple of cosmetic edits) keeps a clone within WuKong's 0.05
    # normalized-Manhattan distance of its source.  Each sized draw is the
    # scalar loop it replaces, draw for draw (see DESIGN.md).
    size = int(code_rng.integers(16, 34))
    ids = code_rng.choice(_UNGUARDED_SPAN, size=size, replace=False) + _API_LO
    features: Dict[int, int] = dict(
        zip(ids.tolist(), code_rng.integers(4, 20, size=size).tolist())
    )
    # Block ``i`` is ``stable_hash64("ownblock", seed, i)``'s low 32 bits.
    prefix = _OWNBLOCK_PREFIX + repr(seed) + "\x1f"
    blocks = [
        int.from_bytes(blake2b(f"{prefix}{i}".encode(), digest_size=8).digest()[4:], "big")
        for i in range(int(code_rng.integers(22, 42)))
    ]

    # Permission-guarded calls are app-specific even under a template
    # (each knock-off wires its own feature set).
    for perm in permissions_used:
        for _ in range(int(rng.integers(1, 3))):
            features[spec.sample_feature(perm, rng)] = int(rng.integers(1, 4))

    return OwnCode(
        main_package=_main_package_of(package),
        features=features,
        blocks=tuple(blocks),
    )


def perturb_own_code(
    rng: np.random.Generator,
    source: OwnCode,
    new_package: Optional[str] = None,
    block_keep_ratio: float = 0.92,
    feature_edits: int = 2,
) -> OwnCode:
    """Derive repackaged code from ``source``.

    Used for clones: the result keeps almost all code segments and
    features (WuKong-level similarity) with a few cosmetic edits.
    """
    features = dict(source.features)
    api_lo, api_hi = API_FEATURE_RANGE
    unguarded_hi = api_lo + (api_hi - api_lo) // 2
    for _ in range(feature_edits):
        features[int(rng.integers(api_lo, unguarded_hi))] = int(rng.integers(1, 4))

    n_keep = max(1, int(round(len(source.blocks) * block_keep_ratio)))
    kept = list(source.blocks[:n_keep])
    for i in range(len(source.blocks) - n_keep):
        kept.append(int(rng.integers(0, 2**32)))

    main = _main_package_of(new_package) if new_package else source.main_package
    return OwnCode(main_package=main, features=features, blocks=tuple(kept))


def template_spam_code(
    rng: np.random.Generator,
    package: str,
    pool: Tuple[int, ...],
    sample_ratio: float,
) -> OwnCode:
    """Own code for one app-factory ("studio") boilerplate app.

    Each spam app carries a random ``sample_ratio`` subset of its
    studio's shared block pool plus a short unique tail, so any two
    studio-mates share a moderate slab of code — far below the
    clone-reporting overlap threshold, but enough shared rare-ish
    blocks to flood posting-list-based candidate blocking.  Features
    are app-unique, so no two spam apps ever share a package feature
    digest (the library detector must not absorb the pool).
    """
    api_lo, api_hi = API_FEATURE_RANGE
    unguarded_hi = api_lo + (api_hi - api_lo) // 2
    size = int(rng.integers(16, 34))
    ids = rng.choice(np.arange(api_lo, unguarded_hi), size=size, replace=False)
    features: Dict[int, int] = {int(f): int(rng.integers(4, 20)) for f in ids}
    take = max(2, int(round(sample_ratio * len(pool))))
    picked = rng.choice(len(pool), size=min(take, len(pool)), replace=False)
    blocks = [pool[int(i)] for i in np.sort(picked)]
    # A short unique tail: enough to vary prefix contents, small enough
    # that pool blocks still reach every unit's blocking prefix.
    blocks.extend(
        int(rng.integers(0, 2**32)) for _ in range(int(rng.integers(0, 4)))
    )
    return OwnCode(
        main_package=_main_package_of(package),
        features=features,
        blocks=tuple(blocks),
    )


def _main_package_of(app_package: str) -> str:
    """The app's own top-level code package name."""
    return app_package


def build_apk(
    blueprint: AppBlueprint,
    version_index: int,
    market: MarketProfile,
    catalog: LibraryCatalog,
    segments: Optional[SegmentCache] = None,
) -> bytes:
    """Build the binary APK a market serves for this app version.

    Per Section 5.3, the same (package, version, developer) differs
    across markets only by its META-INF channel file — unless the market
    forces repackaging (360's Jiagubao requirement), in which case the
    whole archive is packed.

    ``segments`` shares encoded dex fragments across the app's
    market×version fan-out; blob bytes are unaffected.  Obfuscating
    markets skip the cache: Jiagu rewrites package names per app, so
    their segments never recur.
    """
    version = blueprint.versions[version_index]
    manifest = Manifest(
        package=blueprint.package,
        version_code=version.version_code,
        version_name=version.version_name,
        min_sdk=blueprint.min_sdk,
        target_sdk=blueprint.target_sdk,
        permissions=blueprint.permissions_requested,
    )
    packages = [blueprint.own_code.as_code_package()]
    for lib_package, lib_version in blueprint.libraries:
        packages.append(catalog.version_code(lib_package, lib_version).as_code_package())
    if blueprint.threat is not None:
        packages.append(payload_code(blueprint.threat.family, blueprint.threat.variant))

    meta_inf = [
        ChannelFile("META-INF/MANIFEST.MF", f"built:{day_to_date(version.release_day)}")
    ]
    if market.channel_file is not None:
        meta_inf.append(ChannelFile(market.channel_file, market.market_id))

    apk = Apk(
        manifest=manifest,
        packages=tuple(packages),
        signer_fingerprint=blueprint.developer.fingerprint,
        signer_name=blueprint.developer.name_for_market(market.market_id),
        meta_inf=tuple(meta_inf),
    )
    if market.requires_obfuscation:
        apk = JiaguObfuscator().obfuscate(apk)
        return serialize_apk(apk)
    return serialize_apk(apk, segments)
