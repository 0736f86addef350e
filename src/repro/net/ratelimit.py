"""Server-side download quota.

Google Play's APK download endpoint rate-limited the paper's crawler
(the reason their APK sample stops at 287,110 files); the market server
uses a :class:`QuotaLimiter` to reproduce that mechanic, and the
crawler's client surfaces the resulting 429s so the coordinator can
fall back to the offline archive.
"""

from __future__ import annotations

__all__ = ["QuotaLimiter"]


class QuotaLimiter:
    """A hard cumulative quota: after ``limit`` acquisitions, always refuse.

    Models per-account download caps that no amount of waiting lifts —
    the behavior that forced the paper to backfill Google Play APKs from
    AndroZoo.
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self._limit = int(limit)
        self._used = 0

    def try_acquire(self) -> bool:
        if self._used >= self._limit:
            return False
        self._used += 1
        return True

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int:
        return self._limit - self._used

    def restore(self, used: int) -> None:
        """Reset the consumed count (checkpoint/resume support)."""
        if used < 0:
            raise ValueError("used must be non-negative")
        self._used = int(used)
