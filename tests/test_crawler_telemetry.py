"""Tests for the crawl telemetry layer."""

import pytest

from repro.crawler.telemetry import CrawlTelemetry, MarketTelemetry
from repro.net.client import HttpClient
from repro.net.http import NotFoundError, Response
from repro.obs.metrics import MetricsRegistry
from repro.util.simtime import SimClock


def _script(responses):
    """A handler answering with ``responses`` in order."""
    answers = iter(responses)
    return lambda request: next(answers)


class TestMarketTelemetry:
    def test_client_increments_land_in_the_bound_lane_series(self):
        registry = MetricsRegistry()
        lane = MarketTelemetry("tencent", registry, campaign="first")
        client = HttpClient(
            _script([Response.rate_limited(0.01), Response.timeout(),
                     Response.json_ok([]), Response.not_found()]),
            SimClock(now=0.0),
        )
        client.stats = lane
        client.get_json("/search")
        with pytest.raises(NotFoundError):
            client.get_json("/app")
        assert (lane.requests, lane.rate_limited, lane.timeouts, lane.retries,
                lane.not_found, lane.failures) == (4, 1, 1, 1, 1, 0)
        assert lane.sim_days_backoff > 0.01
        series = {
            s.name: s.value for s in registry.series()
            if dict(s.labels) == {"campaign": "first", "market": "tencent"}
        }
        assert series["crawl_requests_total"] == 4
        assert series["crawl_backoff_sim_days_total"] == lane.sim_days_backoff
        # The coordinator-owned counters share the view, untouched.
        assert series["crawl_records_total"] == 0

    def test_counters_live_in_the_registry(self):
        registry = MetricsRegistry()
        lane = MarketTelemetry("baidu", registry, campaign="first")
        lane.requests += 7
        series = registry.counter(
            "crawl_requests_total", campaign="first", market="baidu"
        )
        assert series.value == 7
        # The attribute is a *view*: a registry write is visible back.
        series.inc(3)
        assert lane.requests == 10

    def test_health_is_a_degraded_gauge(self):
        registry = MetricsRegistry()
        lane = MarketTelemetry("oppo", registry, campaign="c")
        assert lane.health == "ok"
        lane.health = "degraded"
        assert lane.health == "degraded"
        gauge = registry.gauge("crawl_market_degraded", campaign="c", market="oppo")
        assert gauge.value == 1.0


class TestCrawlTelemetry:
    def test_market_lazily_creates_lanes(self):
        telemetry = CrawlTelemetry(label="t")
        lane = telemetry.market("baidu")
        assert lane.market_id == "baidu"
        assert telemetry.market("baidu") is lane
        assert set(telemetry.markets) == {"baidu"}

    def test_queue_peak_tracks_maximum(self):
        telemetry = CrawlTelemetry()
        for depth in (3, 9, 4):
            telemetry.observe_queue_depth(depth)
        assert telemetry.queue_peak == 9

    def test_aggregates(self):
        telemetry = CrawlTelemetry()
        a = telemetry.market("a")
        a.requests, a.retries, a.records = 10, 2, 5
        a.rate_limited, a.timeouts, a.malformed = 1, 1, 1
        b = telemetry.market("b")
        b.requests, b.retries, b.records = 4, 1, 2
        assert telemetry.total_requests == 14
        assert telemetry.total_retries == 3
        assert telemetry.total_records == 7
        assert telemetry.total_faults_absorbed == 6

    def test_stats_report_renders_lanes_and_totals(self):
        telemetry = CrawlTelemetry(label="first", workers=8, search_rounds=3)
        big = telemetry.market("tencent")
        big.requests, big.records, big.timeouts = 120, 90, 2
        small = telemetry.market("wandoujia")
        small.requests, small.records = 30, 20
        report = telemetry.stats_report()
        lines = report.splitlines()
        assert "crawl telemetry [first]" in lines[0]
        assert "workers=8" in lines[0]
        # Lanes sort by request volume, totals close the table.
        assert lines[3].startswith("tencent")
        assert lines[4].startswith("wandoujia")
        assert lines[-1].startswith("total")
        assert f"{telemetry.total_requests:>10}" in lines[-1]
        # Fixed-width: every data row lines up with the header.
        assert len({len(line) for line in lines[1:]} - {len(lines[2])}) <= 1

    def test_stats_report_top_limits_rows(self):
        telemetry = CrawlTelemetry()
        for i, market_id in enumerate(["a", "b", "c"]):
            telemetry.market(market_id).requests = 10 - i
        report = telemetry.stats_report(top=1)
        assert "a" in report
        assert "\nb" not in report
        assert "\nc" not in report
        # The totals row still reflects every lane.
        assert f"{telemetry.total_requests:>10}" in report.splitlines()[-1]

    def test_stats_report_empty_campaign(self):
        report = CrawlTelemetry(label="empty").stats_report()
        assert "total" in report

    def test_stats_report_shows_not_found_column(self):
        telemetry = CrawlTelemetry(label="t")
        lane = telemetry.market("baidu")
        lane.requests, lane.not_found = 100, 37
        report = telemetry.stats_report()
        assert "404s" in report.splitlines()[1]
        baidu_row = next(line for line in report.splitlines()
                         if line.startswith("baidu"))
        assert f"{37:>7}" in baidu_row
        assert f"{telemetry.total_not_found:>7}" in report.splitlines()[-1]

    def test_stats_report_wall_time_and_throughput_header(self):
        telemetry = CrawlTelemetry(label="first", workers=2)
        telemetry.market("baidu").requests = 500
        telemetry.wall_seconds = 2.5
        title = telemetry.stats_report().splitlines()[0]
        assert "wall=2.50s" in title
        assert "(200 req/s)" in title

    def test_stats_report_omits_wall_when_not_recorded(self):
        telemetry = CrawlTelemetry(label="first")
        telemetry.market("baidu").requests = 500
        assert "wall=" not in telemetry.stats_report().splitlines()[0]

    def test_stats_report_degraded_branch(self):
        telemetry = CrawlTelemetry(label="t")
        telemetry.market("tencent").requests = 10
        for market_id in ("oppo", "hiapk"):
            lane = telemetry.market(market_id)
            lane.requests = 5
            lane.health = "degraded"
        report = telemetry.stats_report()
        lines = report.splitlines()
        assert telemetry.degraded_markets() == ["hiapk", "oppo"]
        # The totals row flags the count; the footer names the markets.
        totals = next(line for line in lines if line.startswith("total"))
        assert "degraded:2" in totals
        assert "degraded markets (breaker quarantine): hiapk, oppo" in report

    def test_stats_report_dead_letters_branch(self):
        telemetry = CrawlTelemetry(label="t")
        lane = telemetry.market("oppo")
        lane.requests, lane.dead_letters = 5, 3
        telemetry.market("baidu").dead_letters = 1
        assert "dead letters: 4" in telemetry.stats_report()

    def test_stats_report_clean_run_omits_failure_footers(self):
        telemetry = CrawlTelemetry(label="t")
        telemetry.market("baidu").requests = 5
        report = telemetry.stats_report()
        assert "dead letters:" not in report
        assert "degraded markets" not in report


class TestRegistryView:
    def test_counters_shared_with_registry_export(self):
        registry = MetricsRegistry()
        telemetry = CrawlTelemetry(label="first", workers=4, registry=registry)
        lane = telemetry.market("baidu")
        lane.requests += 11
        lane.records += 2
        telemetry.observe_queue_depth(9, at=1.5)
        docs = {(d["name"], d["labels"].get("market")): d
                for d in registry.to_dicts()}
        assert docs[("crawl_requests_total", "baidu")]["value"] == 11
        assert docs[("crawl_records_total", "baidu")]["value"] == 2
        assert docs[("crawl_queue_depth", None)]["samples"] == [[1.5, 9.0]]
        assert docs[("crawl_workers", None)]["value"] == 4

    def test_from_registry_rebuilds_identical_report(self):
        registry = MetricsRegistry()
        telemetry = CrawlTelemetry(label="first", workers=4, registry=registry)
        lane = telemetry.market("baidu")
        lane.requests, lane.records, lane.not_found = 11, 2, 1
        # The dead-letter footer must re-hydrate too.
        telemetry.record_dead_letter("baidu", "banned")
        telemetry.market("oppo").health = "degraded"
        telemetry.search_rounds = 3
        telemetry.wall_seconds = 1.25

        rehydrated = MetricsRegistry()
        rehydrated.load_dicts(registry.to_dicts())
        view = CrawlTelemetry.from_registry(
            "first", rehydrated, markets=["baidu", "oppo"]
        )
        assert view.stats_report() == telemetry.stats_report()
        assert view.workers == 4
        assert view.search_rounds == 3
        assert view.wall_seconds == 1.25

    def test_from_registry_writes_nothing(self):
        registry = MetricsRegistry()
        CrawlTelemetry(label="first", workers=8, registry=registry)
        view = CrawlTelemetry.from_registry("first", registry)
        # Attaching the view must not clobber the recorded gauges.
        assert view.workers == 8
