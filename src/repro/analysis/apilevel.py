"""Minimum API level analysis (Section 4.3, Figure 3).

The minimum SDK each app declares comes from the parsed APK's manifest;
records without an APK are excluded (as in the paper, which needed the
binary to read the manifest).  ``apk.min_sdk`` is a row scalar, so on
the spilled backend these walks never open the blob vault.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.crawler.snapshot import Snapshot
from repro.markets.profiles import GOOGLE_PLAY
from repro.util.stats import BoxStats

__all__ = [
    "API_LEVEL_BUCKETS",
    "min_api_distribution",
    "min_api_matrix",
    "low_api_share",
    "figure3_series",
]

#: Figure 3's x-axis buckets: <7, 7..16 individually, >16.
API_LEVEL_BUCKETS: Sequence[str] = (
    "<7", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", ">16",
)


def _bucket(min_sdk: int) -> int:
    if min_sdk < 7:
        return 0
    if min_sdk > 16:
        return len(API_LEVEL_BUCKETS) - 1
    return min_sdk - 6


def min_api_distribution(snapshot: Snapshot, market_id: str) -> List[float]:
    """Share of a market's (APK-backed) apps per Figure 3 bucket."""
    counts = [0] * len(API_LEVEL_BUCKETS)
    total = 0
    for record in snapshot.in_market(market_id):
        if record.apk is None:
            continue
        counts[_bucket(record.apk.min_sdk)] += 1
        total += 1
    if total == 0:
        return [0.0] * len(API_LEVEL_BUCKETS)
    return [c / total for c in counts]


def min_api_matrix(snapshot: Snapshot) -> Dict[str, List[float]]:
    return {m: min_api_distribution(snapshot, m) for m in snapshot.markets()}


def low_api_share(snapshot: Snapshot, market_id: str, below: int = 9) -> float:
    """Share of apps declaring min SDK below ``below``.

    Section 4.3: ~63% of apps in Chinese markets support API levels
    lower than 9, versus ~22% in Google Play.
    """
    total = 0
    low = 0
    for record in snapshot.in_market(market_id):
        if record.apk is None:
            continue
        total += 1
        if record.apk.min_sdk < below:
            low += 1
    return low / total if total else 0.0


def figure3_series(snapshot: Snapshot) -> Dict[str, object]:
    """Figure 3's rendering data: Google Play values plus per-bucket
    box statistics across the 16 Chinese markets."""
    matrix = min_api_matrix(snapshot)
    gp = matrix.get(GOOGLE_PLAY, [0.0] * len(API_LEVEL_BUCKETS))
    chinese = [v for m, v in matrix.items() if m != GOOGLE_PLAY]
    boxes = []
    for i in range(len(API_LEVEL_BUCKETS)):
        values = [row[i] for row in chinese] or [0.0]
        boxes.append(BoxStats(values).as_dict())
    return {"buckets": list(API_LEVEL_BUCKETS), "google_play": gp, "chinese_box": boxes}
