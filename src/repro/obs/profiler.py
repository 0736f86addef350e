"""Stage profiling: wall time and peak memory per pipeline stage.

``--profile`` answers the operator question *where does the time (and
memory) go?* for one study run: ecosystem synthesis, each crawl
campaign, every analysis stage (unit building, library/clone/fake
detection, VT scans), and each experiment render.  A stage is nothing
but a ``stage.<name>`` span (:meth:`repro.obs.Observability.stage`),
so it nests wherever the context puts it — under the experiment pool's
``experiments.run_all`` stage on a pool thread, under ``crawl.first``
when an analysis artifact is forced lazily — and the stage table is
derived from the recorded spans by :func:`stage_rows`.

``--profile`` is wall-only.  Memory profiling is a separate opt-in
(``Observability(profile=True, trace_memory=True)``) that adds a
``peak_bytes`` attribute to every stage span through
:class:`StagePeaks`.  Its cost — ``tracemalloc``, several times the
wall time — is paid only by runs that asked for it.

``render_profile()`` renders the stage table plus the critical path:
the slowest stage by wall time, the peak-memory stage (when peaks were
traced), and — when given the campaign telemetry — the slowest market
lane by accumulated simulated waiting (back-off + pacing), which is
what stretches a real fleet's calendar.
"""

from __future__ import annotations

import json
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.obs.trace import Span

__all__ = ["STAGE_PREFIX", "StagePeaks", "stage_rows", "render_profile", "export_profile"]

#: Span-name prefix that marks a pipeline stage.
STAGE_PREFIX = "stage."


def _enclosing_stage(span: Optional[Span]) -> Optional[Span]:
    while span is not None and not span.name.startswith(STAGE_PREFIX):
        span = span.parent
    return span


def _fold(stage: Span, peak: int) -> None:
    stage["peak_bytes"] = max(stage.attrs.get("peak_bytes", 0), peak)


class StagePeaks:
    """tracemalloc high-water marks, folded through nested stage spans.

    The high-water mark is process-wide, so only the thread that started
    tracing — the one that opened the outermost stage — measures; a
    stage opened on another thread (an experiment on a ``run_all`` pool
    thread) records ``peak_bytes`` 0.  A stage that triggers a lazy
    analysis artifact (an experiment render forcing ``build_units``)
    must not lose its own peak when the inner stage resets the mark, so
    each segment's peak is folded into the enclosing stage span on the
    inner stage's entry and exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: Optional[int] = None
        self._started = False

    @contextmanager
    def track(self, span: Span) -> Iterator[Span]:
        """Enter ``span``, recording its ``peak_bytes`` attribute."""
        me = threading.get_ident()
        with self._lock:
            claimed = self._owner is None
            if claimed:
                self._owner = me
                self._started = not tracemalloc.is_tracing()
                if self._started:
                    tracemalloc.start()
        span["peak_bytes"] = 0
        if self._owner != me:
            with span:
                yield span
            return
        parent = _enclosing_stage(span.parent)
        try:
            if parent is not None:
                # Close out the parent's running segment before this
                # stage resets the high-water mark.
                _fold(parent, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            with span:
                try:
                    yield span
                finally:
                    _fold(span, tracemalloc.get_traced_memory()[1])
                    if parent is not None:
                        _fold(parent, span.attrs["peak_bytes"])
                    tracemalloc.reset_peak()
        finally:
            if claimed:
                with self._lock:
                    if self._started:
                        tracemalloc.stop()
                    self._owner = None
                    self._started = False


def stage_rows(records: Iterable[dict]) -> List[dict]:
    """One row per recorded stage span, in recorded (completion) order.

    A row holds the stage ``name`` (prefix stripped), ``wall_seconds``,
    ``peak_bytes`` (0 without memory profiling) and ``depth``: how many
    stage spans enclose it.
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
            "peak_bytes": span.get("attrs", {}).get("peak_bytes", 0),
            "depth": depth,
        })
    return rows


def export_profile(rows: List[dict], path) -> int:
    """Write one ``kind=stage`` JSON object per row, in order (the
    profile artifact ``--profile-out`` and the warehouse ingest read);
    returns the line count."""
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
    header = f"{'stage':<28}{'wall(s)':>10}{'peak(MiB)':>11}"
    lines = ["stage profile", header, "-" * len(header)]
    for row in rows:
        indent = "  " * row["depth"]
        lines.append(
            f"{indent + row['name']:<28}{row['wall_seconds']:>10.3f}"
            f"{row['peak_bytes'] / (1024 * 1024):>11.2f}"
        )
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
    if any(r["peak_bytes"] for r in rows):
        hungriest = max(top, key=lambda r: r["peak_bytes"])
        lines.append(
            f"peak memory:   stage '{hungriest['name']}' "
            f"({hungriest['peak_bytes'] / (1024 * 1024):.2f} MiB)"
        )
    else:
        lines.append("peak memory:   not traced")
    lane = _slowest_lane(telemetry)
    if lane is not None:
        lines.append(lane)
    return "\n".join(lines)


def _slowest_lane(telemetry) -> Optional[str]:
    if telemetry is None or not getattr(telemetry, "markets", None):
        return None
    lanes = list(telemetry.markets.values())
    slowest = max(lanes, key=lambda m: m.sim_days_backoff + m.sim_days_paced)
    waited = slowest.sim_days_backoff + slowest.sim_days_paced
    return (
        f"slowest lane:  '{slowest.market_id}' waited {waited:.4f} sim days "
        f"(back-off {slowest.sim_days_backoff:.4f} + pacing "
        f"{slowest.sim_days_paced:.4f}) over {slowest.requests} requests"
    )
