"""Metric formulas: from the passes of one repeat to named values.

A repeat is one or two child passes (``main``, then ``resume`` for the
checkpointed workload).  Spans, counters and the program's counts are
summed over the passes, so every layer metric is the time or work the
whole workload spent there and the layers add up to ``total_s``.
Ratios are taken over the summed counts.  Disk sizes and peak RSS are
states, not work, so they take the largest pass.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

from probes import ANALYZERS, SETUP_SPANS

__all__ = ["EXPERIMENT_IDS", "end_to_end", "failed_share", "per_layer", "quartiles"]

#: ``repro.experiments.EXPERIMENT_IDS``, listed here because the parent
#: process never imports the program.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "table5", "table6",
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "figure13", "section52", "section53", "section64", "churn", "fidelity",
)

_STATE_FACTS = ("disk_bytes", "journal_bytes")


class _Pooled:
    """The summed view of one repeat's passes."""

    def __init__(self, passes: Sequence[dict]):
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.facts: Dict[str, float] = {}
        for p in passes:
            for name, agg in p["spans"].items():
                into = self.spans.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(agg):
                    into[i] += value
            for name, value in p["counters"].items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            for name, value in p["facts"].items():
                if name in _STATE_FACTS:
                    self.facts[name] = max(self.facts.get(name, 0), value)
                else:
                    self.facts[name] = self.facts.get(name, 0) + value

    def calls(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def fact(self, name: str) -> float:
        return self.facts.get(name, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; with fewer than two values all three agree."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(sorted_values: Sequence[float], share: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def failed_share(passes: Sequence[dict]) -> float:
    """Abandoned requests plus dead letters, over requests issued."""
    p = _Pooled(passes)
    return _ratio(p.fact("failures") + p.fact("dead_letters"), p.fact("requests"))


def end_to_end(passes: Sequence[dict]) -> Dict[str, float]:
    """What a user of the study sees, from one untraced repeat."""
    pooled = _Pooled(passes)
    main = _Pooled(passes[:1])
    return {
        "total_s": sum(p["wall_s"] for p in passes),
        "setup_s": sum(pooled.total(name) for name in SETUP_SPANS),
        "crawl_rps": _ratio(main.fact("requests"), main.total("crawler.crawl.first")),
        "peak_rss_mib": max(p["rss_kib"] for p in passes) / 1024.0,
    }


def per_layer(passes: Sequence[dict]) -> Dict[str, float]:
    """Per-layer work and time, from one traced repeat."""
    p = _Pooled(passes)
    resume = next((one for one in passes if one["role"] == "resume"), None)
    resumed = _Pooled([resume]) if resume is not None else None
    requests = sorted(ms for one in passes for ms in one["request_ms"])
    analysis = {
        f"analysis.{suffix}_s": p.total("analysis." + suffix)
        for suffix in ANALYZERS.values()
    }
    out = {
        "ecosystem.generate_s": p.total("ecosystem.init") + p.total("ecosystem.generate"),
        "ecosystem.find_by_package_calls": p.calls("ecosystem.find_by_package"),
        "ecosystem.find_by_package_s": p.total("ecosystem.find_by_package"),
        "markets.build_stores_s": p.total("markets.build_stores"),
        "markets.handle_calls": p.calls("markets.handle"),
        "markets.handle_self_s": p.self_s("markets.handle"),
        "markets.apk_cache_hit_ratio": _ratio(
            p.count("markets.apk_served") - p.count("markets.apk_builds"),
            p.count("markets.apk_served"),
        ),
        "markets.cleanup_s": p.total("markets.cleanup"),
        "apk.build_calls": p.calls("apk.build"),
        "apk.build_s": p.total("apk.build"),
        "apk.blob_bytes": p.count("apk.blob_bytes"),
        "apk.segment_cache_hit_ratio": _ratio(
            p.fact("segment_hits"), p.fact("segment_hits") + p.fact("segment_misses")
        ),
        "apk.parse_calls": p.calls("apk.parse"),
        "apk.parse_s": p.total("apk.parse"),
        "net.send_calls": p.calls("net.send"),
        "net.send_s": p.total("net.send"),
        # A send's only child is the server's handle, in process or on
        # the serving tier's loop thread: its self time is the wire.
        "net.wire_overhead_s": p.self_s("net.send"),
        "net.request_p50_ms": nearest_rank(requests, 0.50),
        "net.request_p99_ms": nearest_rank(requests, 0.99),
        "net.retries": p.fact("retries"),
        "serving.frames_served": p.fact("frames_served"),
        "serving.connections_accepted": p.fact("connections_accepted"),
        "crawler.crawl_s": p.total("crawler.crawl.first"),
        "crawler.recheck_s": p.total("crawler.recheck"),
        "crawler.records": p.fact("records"),
        "crawler.backfill_lookup_calls": p.calls("crawler.backfill_lookup"),
        "crawler.backfill_lookup_s": p.total("crawler.backfill_lookup"),
        "crawler.backfill_hit_ratio": _ratio(
            p.count("crawler.backfill_hits"), p.calls("crawler.backfill_lookup")
        ),
        "crawler.journal_bytes": p.fact("journal_bytes"),
        "crawler.resume_crawl_s": (
            resumed.total("crawler.crawl.first") if resumed is not None else 0.0
        ),
        "store.spill_s": p.total("store.spill"),
        "store.append_calls": p.calls("store.append"),
        "store.append_s": p.total("store.append"),
        "store.scan_calls": p.count("store.scan_calls"),
        "store.scan_s": p.count("store.scan_s"),
        "store.blob_put_calls": p.calls("store.blob_put"),
        "store.blob_load_calls": p.calls("store.blob_load"),
        "store.blob_load_s": p.total("store.blob_load"),
        "store.disk_bytes": p.fact("disk_bytes"),
        **analysis,
        "analysis.cache_hit_ratio": _ratio(
            p.fact("cache_hits"), p.fact("cache_hits") + p.fact("cache_misses")
        ),
        "analysis.cache_stores": p.fact("cache_stores"),
        **{f"experiments.{e}_s": p.total("experiments." + e) for e in EXPERIMENT_IDS},
        "obs.unattributed_s": sum(one["wall_s"] - one["roots_s"] for one in passes),
        "analysis_s": sum(analysis.values()),
        "experiments_s": p.count("experiments_s"),
        "resume_s": resume["wall_s"] if resume is not None else 0.0,
        "failed_share": failed_share(passes),
    }
    return out
