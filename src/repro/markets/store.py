"""Market store: the catalog one market serves.

A :class:`MarketStore` holds the listings a market exposes at crawl
time, translates ground truth into *market-reported* metadata (exact
installs vs Google Play's install ranges, default ratings, NULL
categories, per-market developer display names — including Baidu's
"crawled from Google Play" labels from Section 4.4), and builds APK
binaries on demand with the market's channel file and packing rules.

Construction happens through :func:`build_stores`; after that the store
only hands out serialized artifacts and plain metadata dictionaries, so
crawler and analysis never see blueprint objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.markets.profiles import (
    ALL_MARKET_IDS,
    DOWNLOAD_BIN_EDGES,
    MarketProfile,
    get_profile,
)
from repro.util.rng import stable_hash32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apk.archive import SegmentCache
    from repro.ecosystem.world import World

__all__ = ["Listing", "MarketStore", "build_stores", "install_range_for"]


def install_range_for(downloads: int) -> Tuple[int, int]:
    """Google Play's install range for an exact install count.

    Above 1M the store keeps decade ranges (1M-5M reported as
    "1,000,000 - 10,000,000", a billion as "1,000,000,000+"), so the
    range lower bound preserves the head of the download distribution —
    which is what the paper's lower-bound aggregation (footnote 8) sums.
    """
    if downloads >= 1_000_000:
        import math

        lo = 10 ** int(math.log10(downloads))
        return (lo, lo * 10)
    edges = DOWNLOAD_BIN_EDGES
    for i in range(len(edges) - 1, -1, -1):
        if downloads >= edges[i]:
            lo = edges[i]
            hi = edges[i + 1] if i + 1 < len(edges) else edges[i] * 10
            return (lo, hi)
    return (0, edges[1])


@dataclass
class Listing:
    """One app listing in one market."""

    package: str
    app_name: str
    version_name: str
    version_code: int
    category: str
    downloads: Optional[int]
    install_range: Optional[Tuple[int, int]]
    rating: float
    update_day: int
    developer_name: str
    # internal handles (used only by the store itself to build APKs)
    app_id: int
    version_index: int
    removed_at: Optional[float] = None

    def live_at(self, day: float) -> bool:
        return self.removed_at is None or day < self.removed_at

    def metadata(self) -> Dict[str, object]:
        """The JSON payload a market endpoint returns."""
        return {
            "package": self.package,
            "name": self.app_name,
            "version_name": self.version_name,
            "version_code": self.version_code,
            "category": self.category,
            "downloads": self.downloads,
            "install_range": list(self.install_range) if self.install_range else None,
            "rating": self.rating,
            "updated_day": self.update_day,
            "developer": self.developer_name,
        }


class MarketStore:
    """The catalog one market serves, plus APK building.

    :meth:`apk_bytes` builds each blob on request and keeps none: a
    campaign downloads each listing once, so a kept blob would never be
    served again, and the build is deterministic, so a repeat request
    gets the same bytes.  The shared segment cache already spares a
    rebuild its costly part, the code packages' encoding.
    """

    PAGE_SIZE = 20

    def __init__(
        self,
        profile: MarketProfile,
        world: "World",
        segments: Optional["SegmentCache"] = None,
    ):
        self._profile = profile
        self._world = world
        self._segments = segments
        self._listings: Dict[str, Listing] = {}
        self._order: List[str] = []  # insertion order (incremental index)
        self._by_name: Dict[str, List[str]] = {}
        self._by_category: Dict[str, List[str]] = {}
        self._by_developer: Dict[str, List[str]] = {}

    @property
    def profile(self) -> MarketProfile:
        return self._profile

    @property
    def market_id(self) -> str:
        return self._profile.market_id

    def __len__(self) -> int:
        return len(self._listings)

    # -- construction ---------------------------------------------------

    def add_listing(self, listing: Listing) -> None:
        if listing.package in self._listings:
            raise ValueError(
                f"{self.market_id}: duplicate package {listing.package}"
            )
        self._listings[listing.package] = listing
        self._order.append(listing.package)
        self._by_name.setdefault(listing.app_name, []).append(listing.package)
        self._by_category.setdefault(listing.category, []).append(listing.package)
        self._by_developer.setdefault(listing.developer_name, []).append(listing.package)

    # -- catalog maintenance ---------------------------------------------

    def update_listing_version(self, package: str, version_index: int, version) -> bool:
        """Advance a live listing to a newer app version.

        ``version`` carries ``version_code``/``version_name``/
        ``release_day`` (an ecosystem ``AppVersion``); the next download
        serves the new version's build.
        """
        listing = self._listings.get(package)
        if listing is None or listing.removed_at is not None:
            return False
        if version.version_code <= listing.version_code:
            return False
        listing.version_index = version_index
        listing.version_code = version.version_code
        listing.version_name = version.version_name
        listing.update_day = version.release_day
        return True

    def remove_listing(self, package: str, day: float) -> bool:
        """Mark a listing removed as of ``day`` (post-analysis cleanup)."""
        listing = self._listings.get(package)
        if listing is None or listing.removed_at is not None:
            return False
        listing.removed_at = day
        return True

    # -- lookups ----------------------------------------------------------

    def get(self, package: str, day: float) -> Optional[Listing]:
        listing = self._listings.get(package)
        if listing is None or not listing.live_at(day):
            return None
        return listing

    def get_any(self, package: str) -> Optional[Listing]:
        """Lookup ignoring removal state (for ground-truth bookkeeping)."""
        return self._listings.get(package)

    def by_index(self, index: int, day: float) -> Optional[Listing]:
        """Baidu-style incremental index: the i-th listing ever published."""
        if not 0 <= index < len(self._order):
            return None
        return self.get(self._order[index], day)

    @property
    def index_size(self) -> int:
        return len(self._order)

    def search(self, query: str, day: float, limit: int = 50) -> List[Listing]:
        """Search by exact package or exact app name."""
        results: List[Listing] = []
        direct = self.get(query, day)
        if direct is not None:
            results.append(direct)
        for package in self._by_name.get(query, ()):
            listing = self.get(package, day)
            if listing is not None and listing.package != query:
                results.append(listing)
        return results[:limit]

    def categories(self) -> List[str]:
        return sorted(self._by_category)

    def category_page(self, category: str, page: int, day: float) -> List[Listing]:
        packages = self._by_category.get(category, ())
        start = page * self.PAGE_SIZE
        chunk = packages[start : start + self.PAGE_SIZE]
        return [l for l in (self.get(p, day) for p in chunk) if l is not None]

    def related(self, package: str, day: float, limit: int = 10) -> List[Listing]:
        """Recommendations: same category, similar popularity (BFS food)."""
        listing = self.get(package, day)
        if listing is None:
            return []
        peers = self._by_category.get(listing.category, ())
        if not peers:
            return []
        anchor = stable_hash32("related", self.market_id, package) % max(len(peers), 1)
        out: List[Listing] = []
        for offset in range(1, len(peers)):
            peer = peers[(anchor + offset) % len(peers)]
            if peer == package:
                continue
            peer_listing = self.get(peer, day)
            if peer_listing is not None:
                out.append(peer_listing)
            if len(out) >= limit:
                break
        return out

    def by_developer(self, developer_name: str, day: float) -> List[Listing]:
        packages = self._by_developer.get(developer_name, ())
        return [l for l in (self.get(p, day) for p in packages) if l is not None]

    def iter_live(self, day: float):
        for package in self._order:
            listing = self.get(package, day)
            if listing is not None:
                yield listing

    # -- artifacts ----------------------------------------------------------

    def apk_bytes(self, package: str, day: float) -> Optional[bytes]:
        listing = self.get(package, day)
        if listing is None:
            return None
        from repro.ecosystem.apps import build_apk

        return build_apk(
            self._world.app(listing.app_id),
            listing.version_index,
            self._profile,
            self._world.catalog,
            segments=self._segments,
        )


def _developer_display_name(profile: MarketProfile, app, market_id: str) -> str:
    name = app.developer.name_for_market(market_id)
    if (
        profile.extra.get("crawls_google_play")
        and app.scope == "mixed"
        and stable_hash32("gp-crawled", app.package) % 100 < 15
    ):
        # Section 4.4: >30,000 Baidu listings are explicitly labeled as
        # crawled from Google Play in the developer-name field.
        return f"{name} (crawled from Google Play)"
    return name


def build_stores(
    world: "World",
    segments: Optional["SegmentCache"] = None,
    segment_cache: bool = True,
) -> Dict[str, MarketStore]:
    """Materialize every market's store from the generated world.

    One :class:`~repro.apk.archive.SegmentCache` is shared across all
    stores (code segments recur across markets, not just within one);
    pass ``segments`` to share it wider still, or ``segment_cache=False``
    to build every blob cold.
    """
    if segments is None and segment_cache:
        from repro.apk.archive import SegmentCache

        segments = SegmentCache()
    stores = {
        m: MarketStore(get_profile(m), world, segments=segments)
        for m in ALL_MARKET_IDS
    }
    for app in world.apps:
        for market_id, placement in app.placements.items():
            profile = stores[market_id].profile
            version = app.versions[placement.version_index]
            if profile.download_style == "bins" and placement.downloads is not None:
                install_range = install_range_for(placement.downloads)
                downloads = None
            else:
                install_range = None
                downloads = placement.downloads
            listing = Listing(
                package=app.package,
                app_name=app.display_name,
                version_name=version.version_name,
                version_code=version.version_code,
                category=placement.category_label,
                downloads=downloads,
                install_range=install_range,
                rating=placement.rating if placement.rating is not None else 0.0,
                update_day=version.release_day,
                developer_name=_developer_display_name(profile, app, market_id),
                app_id=app.app_id,
                version_index=placement.version_index,
                removed_at=placement.removed_at,
            )
            stores[market_id].add_listing(listing)
    return stores
