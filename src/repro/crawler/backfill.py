"""Offline APK archive backfill (the AndroZoo substitution).

Google Play's rate limiting stopped the paper's APK collection at
287,110 files; they recovered 1,553,382 of the missing APKs from
AndroZoo using (package name, version name) as the join key.

:class:`ArchiveBackfill` plays AndroZoo's role: an offline archive
indexed by the same key, covering a configurable share of the world's
Google Play APKs.  Coverage membership is decided by a stable hash of
the package so that repeated lookups agree.  Each lookup builds its
blob afresh and the archive keeps none: a campaign looks up each
(package, version) once, and the build is deterministic, so a repeat
lookup returns the same bytes.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.util.rng import stable_hash32

if TYPE_CHECKING:  # pragma: no cover
    from repro.ecosystem.world import World

__all__ = ["ArchiveBackfill", "DEFAULT_ARCHIVE_COVERAGE"]

#: AndroZoo held APKs for ~89% of the Google Play apps the paper's crawl
#: could not download (1,553,382 / 1,744,836).
DEFAULT_ARCHIVE_COVERAGE = 0.89


class ArchiveBackfill:
    """An offline (package, version_name) -> APK archive."""

    def __init__(
        self,
        world: "World",
        market_id: str = "google_play",
        coverage: float = DEFAULT_ARCHIVE_COVERAGE,
        segments=None,
    ):
        if not 0 <= coverage <= 1:
            raise ValueError(f"coverage must be in [0, 1], got {coverage}")
        self._world = world
        self._market_id = market_id
        self._coverage = coverage
        self._segments = segments  # shared SegmentCache, or None
        # The archive is shared by every market's download lane; the
        # lock keeps the hit/miss counters exact under the parallel
        # crawl engine.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _covered(self, package: str, version_name: str) -> bool:
        bucket = stable_hash32("androzoo", package, version_name) % 10_000
        return bucket < int(self._coverage * 10_000)

    def lookup(self, package: str, version_name: str) -> Optional[bytes]:
        """Fetch an APK from the archive, or None if not archived."""
        blob = self._build(package, version_name)
        with self._lock:
            if blob is None:
                self.misses += 1
            else:
                self.hits += 1
        return blob

    def _build(self, package: str, version_name: str) -> Optional[bytes]:
        if not self._covered(package, version_name):
            return None
        from repro.ecosystem.apps import build_apk
        from repro.markets.profiles import get_profile

        profile = get_profile(self._market_id)
        for app in self._world.find_by_package(package):
            placement = app.placements.get(self._market_id)
            if placement is None:
                continue
            version = app.versions[placement.version_index]
            if version.version_name != version_name:
                continue
            return build_apk(
                app,
                placement.version_index,
                profile,
                self._world.catalog,
                segments=self._segments,
            )
        return None
