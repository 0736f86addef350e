"""End-to-end observability: a traced campaign and its artifacts.

The acceptance contract for the observability layer:

* a traced campaign exports schema-valid trace and metrics artifacts,
* the artifact totals *exactly* match the live ``stats_report()`` —
  telemetry is a view over the registry, so the re-rendered table is
  byte-identical,
* recording never perturbs the crawl: the traced snapshot's content
  digest equals the untraced one,
* parentage follows the context, so the span tree is the same at any
  lane width.
"""

from collections import Counter

import pytest

from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.telemetry import CrawlTelemetry
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability, counts_from_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_run_report
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.util.simtime import FIRST_CRAWL_DAY, SimClock

SEED = 11
SCALE = 0.0001
BLACKOUT = {"oppo": FaultPlan.blackout(FIRST_CRAWL_DAY, 20.0)}


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=SEED, scale=SCALE).generate()


def _crawl(world, obs: Observability, market_faults=None):
    clock = SimClock()
    market_faults = market_faults or {}
    servers = {
        m: MarketServer(store, clock, faults=market_faults.get(m))
        for m, store in build_stores(world).items()
    }
    coordinator = CrawlCoordinator(
        servers, clock, download_apks=False, workers=2, obs=obs
    )
    return coordinator.crawl("first", duration_days=15.0)


@pytest.fixture(scope="module")
def traced(world, tmp_path_factory):
    obs = Observability.from_flags(trace=True, metrics=True)
    snapshot = _crawl(world, obs)
    outdir = tmp_path_factory.mktemp("artifacts")
    trace_path = outdir / "trace.jsonl"
    metrics_path = outdir / "metrics.jsonl"
    obs.export_trace(trace_path)
    obs.export_metrics(metrics_path)
    return snapshot, obs, trace_path, metrics_path


class TestTracedCampaign:
    def test_artifacts_are_schema_valid(self, traced):
        _, _, trace_path, metrics_path = traced
        assert len(validate_trace_file(trace_path)) > 0
        assert len(validate_metrics_file(metrics_path)) > 0

    def test_tracing_does_not_perturb_the_crawl(self, world, traced):
        snapshot, _, _, _ = traced
        untraced = _crawl(world, NULL_OBS)
        assert snapshot.content_digest() == untraced.content_digest()

    def test_campaign_is_one_trace(self, traced):
        _, obs, _, _ = traced
        campaign_spans = obs.tracer.spans("crawl.campaign")
        assert len(campaign_spans) == 1
        assert campaign_spans[0]["trace_id"] == "first"
        # Phase spans parent to the campaign root.
        root_id = campaign_spans[0]["span_id"]
        discoveries = obs.tracer.spans("crawl.discovery")
        assert discoveries
        assert all(s["parent_id"] == root_id for s in discoveries)

    def test_request_spans_roll_up_to_telemetry(self, traced):
        snapshot, obs, _, _ = traced
        telemetry = snapshot.stats.telemetry
        spans = obs.tracer.spans("http.request")
        # Attempts across logical requests == the client counters the
        # telemetry folded in (the span covers the whole retry loop).
        attempts = sum(s["attrs"]["attempts"] for s in spans)
        assert attempts == telemetry.total_requests
        retries = sum(s["attrs"]["retries"] for s in spans)
        assert retries == telemetry.total_retries

    def test_exported_metrics_match_stats_report_exactly(self, traced):
        snapshot, _, _, metrics_path = traced
        telemetry = snapshot.stats.telemetry
        registry = MetricsRegistry()
        registry.load_dicts(validate_metrics_file(metrics_path))
        rendered = CrawlTelemetry.from_registry(
            "first", registry, markets=list(telemetry.markets)
        )
        assert rendered.stats_report() == telemetry.stats_report()
        assert rendered.total_requests == telemetry.total_requests
        assert rendered.total_records == telemetry.total_records
        assert rendered.wall_seconds == telemetry.wall_seconds

    def test_run_report_contains_the_live_table(self, traced):
        snapshot, _, trace_path, metrics_path = traced
        report = render_run_report(trace_path, metrics_path)
        assert snapshot.stats.telemetry.stats_report() in report
        assert "http.request" in report

    def test_span_summary_counts(self, traced):
        _, obs, _, _ = traced
        summary = counts_from_spans(obs.tracer.records())
        assert summary["crawl.campaign"][0] == 1
        assert summary["crawl.discovery"][0] == 17
        assert summary["http.request"][0] > 0


class TestFaultyTracedCampaign:
    def test_breaker_events_and_failed_spans_recorded(self, world):
        obs = Observability.from_flags(trace=True, metrics=True)
        snapshot = _crawl(world, obs, market_faults=BLACKOUT)
        assert "oppo" in snapshot.degraded_markets()
        transitions = obs.tracer.events("breaker.transition")
        assert any(e["market"] == "oppo" for e in transitions)
        assert any(
            e["attrs"]["to_state"] == "open" for e in transitions
        )
        # The quarantining trip is visible on its transition event.
        assert any(e["attrs"].get("quarantined") for e in transitions)
        failed = [
            s for s in obs.tracer.spans("http.request") if s["status"] != "ok"
        ]
        assert failed

    def test_degraded_market_rendered_in_run_report(self, world, tmp_path):
        obs = Observability.from_flags(trace=True, metrics=True)
        _crawl(world, obs, market_faults=BLACKOUT)
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        obs.export_trace(trace_path)
        obs.export_metrics(metrics_path)
        report = render_run_report(trace_path, metrics_path)
        assert "degraded markets (breaker quarantine): oppo" in report
        assert "breaker transitions:" in report
        assert "QUARANTINED" in report


def _span_tree(obs: Observability):
    """The multiset of (span name, market, parent span name)."""
    spans = obs.tracer.spans()
    names = {s["span_id"]: s["name"] for s in spans}
    return Counter(
        (s["name"], s.get("market"), names.get(s["parent_id"])) for s in spans
    )


def _traced_campaign(world, workers, obs=None, recheck=True):
    obs = obs or Observability.from_flags(trace=True, metrics=True)
    clock = SimClock()
    servers = {
        m: MarketServer(store, clock) for m, store in build_stores(world).items()
    }
    coordinator = CrawlCoordinator(
        servers, clock, download_apks=False, workers=workers, obs=obs,
    )
    try:
        with obs.stage("crawl.first"):
            snapshot = coordinator.crawl("first", duration_days=15.0)
        if recheck:
            targets = {
                market_id: sorted(r.package for r in snapshot.in_market(market_id))[:3]
                for market_id in snapshot.markets()
            }
            with obs.stage("crawl.recheck"):
                coordinator.recheck(targets)
    finally:
        coordinator.close()
    return snapshot, obs


class TestContextParentage:
    def test_span_tree_is_the_same_at_any_width(self, world):
        _, serial = _traced_campaign(world, workers=1)
        _, parallel = _traced_campaign(world, workers=4)
        tree = _span_tree(parallel)
        assert tree == _span_tree(serial)
        # Lane work on pool threads nests under the submitting span.
        assert tree[("crawl.recheck", "baidu", "stage.crawl.recheck")] == 1
        roots = {name for (name, _, parent) in tree if parent is None}
        assert roots == {"stage.crawl.first", "stage.crawl.recheck"}

    def test_profile_only_records_stage_spans_alone(self, world):
        obs = Observability.from_flags(profile=True)
        assert obs.tracer is None and obs.lane("oppo", SimClock()) is None
        _traced_campaign(world, workers=2, obs=obs)
        names = {s["name"] for s in obs.stage_tracer.records()}
        assert names == {"stage.crawl.first", "stage.crawl.recheck"}
        assert [r["name"] for r in obs.stage_rows()] == ["crawl.first", "crawl.recheck"]
