"""Tests for the live campaign monitor and the folded-stacks export."""

import pytest

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.obs.flame import export_folded, folded_stacks
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    HEARTBEAT_METRIC,
    STALL_METRIC,
    CampaignMonitor,
)
from repro.obs.trace import SpanTracer
from repro.util.simtime import FIRST_CRAWL_DAY, SimClock


class _FakeLane:
    def __init__(self, clock):
        self.clock = clock


class _FakeEngine:
    """Just enough engine surface for the monitor: lanes and back-off."""

    def __init__(self, market_ids):
        self.market_ids = list(market_ids)
        self._lanes = {m: _FakeLane(SimClock(now=0.0)) for m in market_ids}

    def lane(self, market_id):
        return self._lanes[market_id]

    @property
    def max_lane_backoff(self):
        return max(lane.clock.now for lane in self._lanes.values())


class _FakeMarket:
    def __init__(self):
        self.records = 0


class _FakeTelemetry:
    def __init__(self, market_ids):
        self._markets = {m: _FakeMarket() for m in market_ids}
        self.total_requests = 0
        self.total_dead_letters = 0

    def market(self, market_id):
        return self._markets[market_id]

    @property
    def total_records(self):
        return sum(m.records for m in self._markets.values())


def _monitored(market_ids=("baidu",), interval=1.0, stall_budget=5.0,
               tracer=None):
    registry = MetricsRegistry()
    monitor = CampaignMonitor(
        registry, tracer=tracer, interval=interval, stall_budget=stall_budget
    )
    engine = _FakeEngine(market_ids)
    telemetry = _FakeTelemetry(market_ids)
    clock = SimClock(now=0.0)
    monitor.begin("first", engine, telemetry, clock)
    return monitor, registry, engine, telemetry


class TestHeartbeat:
    def test_catches_up_missed_intervals(self):
        monitor, registry, engine, telemetry = _monitored(interval=1.0)
        telemetry.total_requests = 40
        telemetry.market("baidu").records = 4
        # The fleet jumped 3.5 simulated days between phase boundaries:
        # the monitor back-fills a beat for every elapsed interval.
        engine.lane("baidu").clock.advance(3.5)
        monitor.tick("search")
        assert monitor.heartbeats == 3
        gauge = registry.gauge("monitor_requests_total", campaign="first")
        assert gauge.samples == [(1.0, 40.0), (2.0, 40.0), (3.0, 40.0)]
        counter = registry.counter(HEARTBEAT_METRIC, campaign="first")
        assert counter.value == 3

    def test_no_beat_before_interval(self):
        monitor, registry, engine, _ = _monitored(interval=1.0)
        engine.lane("baidu").clock.advance(0.5)
        monitor.tick("search")
        assert monitor.heartbeats == 0

    def test_finish_emits_final_beat_and_clears(self):
        tracer = SpanTracer()
        monitor, registry, engine, _ = _monitored(tracer=tracer)
        monitor.finish()
        assert monitor.heartbeats == 1
        events = tracer.events("monitor.heartbeat")
        assert len(events) == 1
        assert events[0]["attrs"]["phase"] == "finish"
        # After finish the monitor is idle: ticks are no-ops.
        monitor.tick("search")
        assert monitor.heartbeats == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            CampaignMonitor(MetricsRegistry(), interval=0)
        with pytest.raises(ValueError):
            CampaignMonitor(MetricsRegistry(), stall_budget=-1)


class TestWatchdog:
    def test_stall_fires_once_and_rearms_on_progress(self):
        tracer = SpanTracer()
        monitor, registry, engine, telemetry = _monitored(
            stall_budget=5.0, tracer=tracer
        )
        lane = engine.lane("baidu")

        # 6 idle days with no records: one stall, not one per tick.
        lane.clock.advance(6.0)
        monitor.tick("search")
        monitor.tick("search")
        assert monitor.stalls == 1
        counter = registry.counter(STALL_METRIC, campaign="first", market="baidu")
        assert counter.value == 1
        events = tracer.events("lane.stalled")
        assert len(events) == 1
        assert events[0]["market"] == "baidu"
        assert events[0]["attrs"]["idle_days"] == pytest.approx(6.0)

        # Progress re-arms the watchdog...
        telemetry.market("baidu").records = 10
        monitor.tick("search")
        assert monitor.stalls == 1
        # ...and a second stall is counted again.
        lane.clock.advance(6.0)
        monitor.tick("search")
        assert monitor.stalls == 2
        assert counter.value == 2

    def test_progressing_lane_never_stalls(self):
        monitor, _, engine, telemetry = _monitored(stall_budget=2.0)
        lane = engine.lane("baidu")
        for step in range(1, 6):
            lane.clock.advance(1.5)
            telemetry.market("baidu").records = step
            monitor.tick("search")
        assert monitor.stalls == 0

    def test_only_the_stalled_lane_is_flagged(self):
        monitor, registry, engine, telemetry = _monitored(
            market_ids=("baidu", "oppo"), stall_budget=3.0
        )
        engine.lane("baidu").clock.advance(4.0)
        engine.lane("oppo").clock.advance(4.0)
        telemetry.market("oppo").records = 7
        monitor.tick("search")
        assert monitor.stalls == 1
        assert registry.counter(
            STALL_METRIC, campaign="first", market="baidu"
        ).value == 1


class TestMonitoredCrawl:
    def test_monitor_does_not_perturb_the_snapshot(self):
        world = EcosystemGenerator(seed=5, scale=0.0001).generate()

        def crawl(obs):
            clock = SimClock()
            servers = {
                m: MarketServer(store, clock)
                for m, store in build_stores(world).items()
            }
            coordinator = CrawlCoordinator(
                servers, clock, download_apks=False, workers=1, obs=obs
            )
            return coordinator.crawl("first", duration_days=5.0)

        plain = crawl(NULL_OBS)
        obs = Observability.from_flags(
            trace=True, metrics=True, monitor=True
        )
        monitored = crawl(obs)
        assert monitored.content_digest() == plain.content_digest()
        assert obs.monitor.heartbeats > 0
        # The heartbeat series landed in the registry for export.
        docs = {d["name"] for d in obs.metrics.to_dicts()}
        assert "monitor_requests_total" in docs
        assert HEARTBEAT_METRIC in docs

    def test_heartbeats_sample_live_counters(self):
        # Client requests and parked dead letters reach the telemetry as
        # they happen, so mid-campaign heartbeats see them, not zeros.
        world = EcosystemGenerator(seed=5, scale=0.0001).generate()
        clock = SimClock()
        servers = {
            m: MarketServer(store, clock, faults=FaultPlan(
                transient_500=0.1, burst_429_period=50, burst_429_length=3,
            ) if m != "baidu" else FaultPlan.blackout(FIRST_CRAWL_DAY, 20.0))
            for m, store in build_stores(world).items()
        }
        registry = MetricsRegistry()
        obs = Observability(
            metrics=registry, monitor=CampaignMonitor(registry, interval=0.02)
        )
        coordinator = CrawlCoordinator(
            servers, clock, download_apks=False, workers=1, obs=obs
        )
        snapshot = coordinator.crawl("first", duration_days=5.0)
        telemetry = snapshot.stats.telemetry
        assert snapshot.dead_letters[0].kind == "discovery"
        finals = {
            "monitor_requests_total": telemetry.total_requests,
            "monitor_dead_letters_total": telemetry.total_dead_letters,
        }
        for name, final in finals.items():
            values = [v for _, v in obs.metrics.gauge(name, campaign="first").samples]
            mid = values[:-1]
            assert mid, name
            assert all(v > 0 for v in mid), name
            assert mid == sorted(mid), name
            assert values[-1] == final > 0, name


def _span(span_id, name, wall, parent_id=None, market=None):
    doc = {
        "kind": "span",
        "trace_id": "first",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "wall_seconds": wall,
    }
    if market is not None:
        doc["market"] = market
    return doc


class TestFoldedStacks:
    def test_self_time_weights_and_nesting(self):
        records = [
            _span(1, "campaign", 1.0),
            _span(2, "discovery", 0.25, parent_id=1, market="baidu"),
            _span(3, "http.request", 0.10, parent_id=2, market="baidu"),
            {"kind": "event", "trace_id": "first", "span_id": 2,
             "name": "breaker.transition"},
        ]
        folded = dict(folded_stacks(records))
        # Self time: campaign 1.0 - 0.25, discovery 0.25 - 0.10.
        assert folded["campaign"] == 750_000
        assert folded["campaign;discovery[baidu]"] == 150_000
        assert folded["campaign;discovery[baidu];http.request[baidu]"] == 100_000

    def test_identical_stacks_fold_and_negatives_clamp(self):
        records = [
            _span(1, "campaign", 0.1),
            # Concurrent lanes: children legitimately out-sum the parent.
            _span(2, "lane", 0.08, parent_id=1),
            _span(3, "lane", 0.07, parent_id=1),
        ]
        folded = dict(folded_stacks(records))
        assert folded["campaign"] == 0  # clamped, not negative
        assert folded["campaign;lane"] == 150_000  # summed across spans

    def test_orphan_parent_roots_children(self):
        records = [_span(5, "late", 0.5, parent_id=99)]
        assert folded_stacks(records) == [("late", 500_000)]

    def test_reserved_separators_are_rewritten(self):
        records = [_span(1, "a;b c", 0.001, market="m x")]
        stacks = dict(folded_stacks(records))
        assert "a,b_c[m_x]" in stacks

    def test_export_is_byte_stable(self, tmp_path):
        records = [
            _span(1, "campaign", 1.0),
            _span(2, "b", 0.2, parent_id=1),
            _span(3, "a", 0.3, parent_id=1),
        ]
        first, second = tmp_path / "a.folded", tmp_path / "b.folded"
        assert export_folded(records, first) == 3
        assert export_folded(list(reversed(records)), second) == 3
        assert first.read_bytes() == second.read_bytes()
        # Lexicographic line order, "stack weight" format.
        lines = first.read_text().splitlines()
        assert lines == sorted(lines)
        assert lines[0].rsplit(" ", 1)[1].isdigit()
