"""Stage profiling: wall time per pipeline stage.

``--profile`` answers the operator question *where does the time go?*
for one study run: ecosystem synthesis, each crawl campaign, every
analysis stage (unit building, library/clone/fake detection, VT scans),
and each experiment render.  A stage is nothing but a ``stage.<name>``
span (:meth:`repro.obs.Observability.stage`), so it nests wherever the
context puts it — under the experiment pool's ``experiments.run_all``
stage on a pool thread, under ``crawl.first`` when an analysis artifact
is forced lazily — and the stage table is derived from the recorded
spans by :func:`stage_rows`.

``render_profile()`` renders the stage table plus the critical path:
the slowest stage by wall time and — when given the campaign telemetry
— the slowest market lane by accumulated simulated back-off, which is
what stretches a real fleet's calendar.  A run's memory is measured as
a whole (the end-to-end benchmark's peak RSS), not per stage.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional

__all__ = ["STAGE_PREFIX", "stage_rows", "render_profile", "export_profile"]

#: Span-name prefix that marks a pipeline stage.
STAGE_PREFIX = "stage."


def stage_rows(records: Iterable[dict]) -> List[dict]:
    """One row per recorded stage span, in recorded (completion) order.

    A row holds the stage ``name`` (prefix stripped), ``wall_seconds``
    and ``depth``: how many stage spans enclose it.
    """
    spans = {r["span_id"]: r for r in records if r["kind"] == "span"}
    rows = []
    for span in spans.values():
        if not span["name"].startswith(STAGE_PREFIX):
            continue
        depth = 0
        parent = spans.get(span["parent_id"])
        while parent is not None:
            depth += parent["name"].startswith(STAGE_PREFIX)
            parent = spans.get(parent["parent_id"])
        rows.append({
            "name": span["name"][len(STAGE_PREFIX):],
            "wall_seconds": span["wall_seconds"],
            "depth": depth,
        })
    return rows


def export_profile(rows: List[dict], path) -> int:
    """Write one ``kind=stage`` JSON object per row, in order (the
    profile artifact ``--profile-out``); returns the line count."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps({"kind": "stage", **row}, separators=(",", ":")) + "\n")
    return len(rows)


def render_profile(rows: List[dict], telemetry=None) -> str:
    """Render the stage table and the critical-path summary.

    ``telemetry`` (a :class:`~repro.crawler.telemetry.CrawlTelemetry`)
    adds the slowest-market-lane line.
    """
    if not rows:
        return "stage profile: no stages recorded"
    header = f"{'stage':<28}{'wall(s)':>10}"
    lines = ["stage profile", header, "-" * len(header)]
    for row in rows:
        indent = "  " * row["depth"]
        lines.append(f"{indent + row['name']:<28}{row['wall_seconds']:>10.3f}")
    lines.append("-" * len(header))
    # Critical path: only top-level stages compete (a nested stage's
    # time is already inside its parent's).
    top = [r for r in rows if r["depth"] == 0] or rows
    slowest = max(top, key=lambda r: r["wall_seconds"])
    lines.append(
        f"critical path: slowest stage '{slowest['name']}' "
        f"({slowest['wall_seconds']:.3f}s of "
        f"{sum(r['wall_seconds'] for r in top):.3f}s total)"
    )
    lane = _slowest_lane(telemetry)
    if lane is not None:
        lines.append(lane)
    return "\n".join(lines)


def _slowest_lane(telemetry) -> Optional[str]:
    if telemetry is None or not getattr(telemetry, "markets", None):
        return None
    lanes = list(telemetry.markets.values())
    slowest = max(lanes, key=lambda m: m.sim_days_backoff)
    return (
        f"slowest lane:  '{slowest.market_id}' waited "
        f"{slowest.sim_days_backoff:.4f} sim days over {slowest.requests} requests"
    )
