"""Render a human-readable campaign report from exported artifacts.

``python -m repro run-report --trace trace.jsonl --metrics metrics.jsonl``
is the offline counterpart of the live run's console output: it
validates the artifacts against :mod:`repro.obs.schema`, re-hydrates
the metrics into a :class:`~repro.obs.metrics.MetricsRegistry`, and
renders the *same* per-market telemetry table the live run printed —
through :meth:`~repro.crawler.telemetry.CrawlTelemetry.from_registry`,
the same view class, over the same series names.  A number in this
report can therefore never disagree with the one the operator saw.

The trace section summarizes the span tree (count / total / max wall
per span name), prints the stage table ``--profile`` prints live (read
off the trace's ``stage.*`` spans by the same
:func:`~repro.obs.profiler.stage_rows`), and replays the breaker's
state-transition events, which is usually the fastest way to see *why*
a campaign degraded.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.obs import counts_from_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import render_profile, stage_rows
from repro.obs.schema import (
    HOSTILITY_EVENTS,
    validate_metrics_file,
    validate_trace_file,
)

__all__ = ["render_run_report"]


def _campaigns(registry: MetricsRegistry) -> List[str]:
    """Campaign labels present in the registry (one per crawl)."""
    return registry.label_values("crawl_workers", "campaign")


def _campaign_markets(registry: MetricsRegistry, campaign: str) -> List[str]:
    markets: Set[str] = set()
    for series in registry.series():
        if series.name != "crawl_requests_total":
            continue
        labels = dict(series.labels)
        if labels.get("campaign") == campaign and "market" in labels:
            markets.add(labels["market"])
    return sorted(markets)


def _telemetry_section(docs: List[dict]) -> List[str]:
    # Imported here, not at module top: telemetry itself imports
    # repro.obs.metrics, and keeping the edge one-way at import time
    # makes the layering obvious.
    from repro.crawler.telemetry import CrawlTelemetry

    registry = MetricsRegistry()
    registry.load_dicts(docs)
    lines: List[str] = []
    for campaign in _campaigns(registry):
        telemetry = CrawlTelemetry.from_registry(
            campaign, registry, markets=_campaign_markets(registry, campaign)
        )
        lines.append(telemetry.stats_report())
        lines.append("")
        lines.extend(_hostility_section(telemetry))
    lines.extend(_latency_section(registry))
    return lines


def _hostility_section(telemetry) -> List[str]:
    """Per-market breakdown of the hostile-market counters.

    The totals line in ``stats_report()`` says the fleet fought; this
    table says *which markets* — the operator view that decides where
    identity budget goes.  Omitted entirely for a polite campaign.
    """
    lanes = [
        lane for lane in telemetry.markets.values()
        if lane.logins or lane.token_refreshes or lane.bans_hit
        or lane.identity_rotations
    ]
    if not lanes:
        return []
    header = (
        f"{'market':<14}{'logins':>8}{'refreshes':>11}{'bans':>7}"
        f"{'rotations':>11}"
    )
    lines = [
        f"hostility by market [{telemetry.label}]:",
        header,
        "-" * len(header),
    ]
    for lane in sorted(lanes, key=lambda m: (-m.bans_hit, m.market_id)):
        lines.append(
            f"{lane.market_id:<14}{lane.logins:>8}{lane.token_refreshes:>11}"
            f"{lane.bans_hit:>7}{lane.identity_rotations:>11}"
        )
    lines.append("")
    return lines


def _latency_section(registry: MetricsRegistry) -> List[str]:
    rows = []
    for series in registry.series():
        if series.name != "http_request_wall_seconds" or series.count == 0:
            continue
        market = dict(series.labels).get("market", "?")
        rows.append((series.total / series.count, series.count, market))
    if not rows:
        return []
    total_count = sum(count for _, count, _ in rows)
    total_wall = sum(mean * count for mean, count, _ in rows)
    slowest = max(rows)
    lines = [
        "http service time:",
        f"  fleet: {total_count:,} requests, "
        f"mean {total_wall / total_count * 1e6:.1f}us",
        f"  slowest market: '{slowest[2]}' "
        f"mean {slowest[0] * 1e6:.1f}us over {slowest[1]:,} requests",
        "",
    ]
    return lines


def _trace_section(records: List[dict]) -> List[str]:
    campaigns = sorted({
        r["trace_id"] for r in records
        if r["kind"] == "span" and r["name"] == "crawl.campaign"
    })
    summary = counts_from_spans(records)
    lines = [
        f"trace: {len(records)} records, "
        f"campaigns: {', '.join(campaigns) or 'none'}"
    ]
    if summary:
        header = f"{'span':<22}{'count':>8}{'total(s)':>11}{'max(s)':>10}"
        lines.extend([header, "-" * len(header)])
        for name in sorted(summary, key=lambda n: -summary[n][1]):
            count, total, peak = summary[name]
            lines.append(f"{name:<22}{count:>8}{total:>11.3f}{peak:>10.3f}")
    stages = stage_rows(records)
    if stages:
        lines.append("")
        lines.extend(render_profile(stages).splitlines())
    failed: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "span" and record.get("status") != "ok":
            failed[record["status"]] = failed.get(record["status"], 0) + 1
    if failed:
        lines.append(
            "failed spans: "
            + ", ".join(f"{k}={v}" for k, v in sorted(failed.items()))
        )
    hostile: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "event" and record.get("name") in HOSTILITY_EVENTS:
            hostile[record["name"]] = hostile.get(record["name"], 0) + 1
    if hostile:
        lines.append(
            "hostility events: "
            + ", ".join(f"{k}={v}" for k, v in sorted(hostile.items()))
        )
    stalls = [
        r for r in records
        if r.get("kind") == "event" and r.get("name") == "lane.stalled"
    ]
    if stalls:
        lines.append("stalled lanes:")
        for event in stalls:
            attrs = event.get("attrs", {})
            sim = event.get("sim_time")
            at = f" @ sim day {sim:.3f}" if sim is not None else ""
            lines.append(
                f"  {event.get('market', '?')}: idle "
                f"{attrs.get('idle_days', 0):.2f}d >= budget "
                f"{attrs.get('budget', 0):.2f}d "
                f"({attrs.get('phase', '?')}){at}"
            )
    transitions = [
        r for r in records
        if r.get("kind") == "event" and r.get("name") == "breaker.transition"
    ]
    if transitions:
        lines.append("breaker transitions:")
        for event in transitions:
            attrs = event.get("attrs", {})
            note = " QUARANTINED" if attrs.get("quarantined") else ""
            sim = event.get("sim_time")
            at = f" @ sim day {sim:.3f}" if sim is not None else ""
            lines.append(
                f"  {event.get('market', '?')}: {attrs.get('from_state', '?')}"
                f" -> {attrs.get('to_state', '?')}"
                f" (trip {attrs.get('trips', '?')}){note}{at}"
            )
    lines.append("")
    return lines


def render_run_report(
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
) -> str:
    """Validate the given artifacts and render the campaign report.

    Either artifact may be omitted; its section is skipped.  Raises
    :class:`~repro.obs.schema.SchemaError` when a line fails validation.
    """
    if trace_path is None and metrics_path is None:
        raise ValueError("run-report needs a trace and/or a metrics artifact")
    lines: List[str] = ["campaign run report"]
    sources = [str(p) for p in (trace_path, metrics_path) if p is not None]
    lines.append("artifacts: " + ", ".join(sources))
    lines.append("")
    if metrics_path is not None:
        lines.extend(_telemetry_section(validate_metrics_file(metrics_path)))
    if trace_path is not None:
        lines.extend(_trace_section(validate_trace_file(trace_path)))
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)
