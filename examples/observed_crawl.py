#!/usr/bin/env python
"""Scenario: watching a crawl campaign through the observability layer.

One metadata campaign runs with every recorder on — span tracing,
the metrics registry, and stage profiling — then the exported
artifacts are re-rendered offline with ``run-report``:

* the span trace is the campaign's work tree: discovery, search
  rounds, APK batches, and every HTTP request with its retries and
  back-off, on both the wall clock and the simulated campaign clock;
* the metrics registry is the source of truth for the operator table —
  the telemetry printed live is a *view* over the same series that are
  exported, so the two can never disagree;
* each pipeline stage is a ``stage.*`` span in the same trace, carrying
  its wall time; the stage profile (and its critical path) is read off
  those spans.

    python examples/observed_crawl.py
"""

import tempfile
from pathlib import Path

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.obs import Observability, counts_from_spans
from repro.obs.report import render_run_report
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock


def crawl(world, obs):
    """One metadata campaign, reporting through ``obs``."""
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(s, clock) for m, s in stores.items()}
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    coordinator = CrawlCoordinator(
        servers, clock, gp_seeds=seeds, download_apks=False,
        workers=4, obs=obs,
    )
    with obs.stage("crawl"):
        return coordinator.crawl("august-2017", duration_days=15.0)


def main() -> None:
    obs = Observability.from_flags(trace=True, metrics=True, profile=True)

    print("synthesizing the ecosystem...")
    with obs.stage("ecosystem"):
        world = EcosystemGenerator(seed=7, scale=0.0004).generate()

    snapshot = crawl(world, obs)
    print(f"crawled {len(snapshot):,} records, "
          f"digest {snapshot.content_digest():016x}\n")

    # The live operator table, straight off the registry-backed view.
    print(snapshot.stats.telemetry.stats_report())

    # The span tree, summarized per span name.
    print("\nbusiest spans (count, total wall):")
    summary = counts_from_spans(obs.tracer.records())
    for name in sorted(summary, key=lambda n: -summary[n][1])[:5]:
        count, total, _ = summary[name]
        print(f"  {name:<22}{count:>8}  {total:.3f}s")

    # The stage profile with the pipeline's critical path.
    print()
    print(obs.profile_report(snapshot.stats.telemetry))

    # Export, then prove the offline report re-renders the same table.
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        metrics = Path(tmp) / "metrics.jsonl"
        obs.export_trace(trace)
        obs.export_metrics(metrics)
        report = render_run_report(trace, metrics)
        assert snapshot.stats.telemetry.stats_report() in report
        print("\nrun-report re-rendered the identical telemetry table "
              "from the exported artifacts")


if __name__ == "__main__":
    main()
