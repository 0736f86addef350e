"""Observability overhead benchmarks.

The PR's acceptance bound: a crawl run *without* ``--trace-out`` /
``--metrics-out`` must stay within 3% of the pre-observability crawl
wall time.  The disabled path's only per-request addition is
``HttpClient.request()`` testing ``self.obs is None`` before delegating
to ``_request()`` — which *is* the pre-PR request body, verbatim.  The
bound is therefore proved from two measurements:

1. the wrapper delta: per-call cost of ``request()`` (disabled path)
   minus ``_request()`` (the pre-PR body) against a no-op handler —
   the absolute overhead with zero server work, i.e. the overhead at
   its *most* visible;
2. a real disabled-recorder crawl's mean per-request wall cost.

``wrapper_delta / real_per_request_cost`` is the worst-case fraction
the observability layer can add to any crawl, and must sit far below
the 3% budget.  A full enabled-vs-disabled crawl comparison is printed
for context (tracing is allowed to cost; it is opt-in).
"""

import time

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.client import HttpClient
from repro.net.http import Response
from repro.obs import NULL_OBS, Observability
from repro.util.simtime import SimClock

OBS_SEED = 7
OBS_SCALE = 0.0001
#: Scale for the monitor-overhead bench: long enough crawls that the
#: interleaved best-of-N walls sit well above timer noise.
MONITOR_SCALE = 0.0002
OVERHEAD_BUDGET = 0.03
#: The live monitor (heartbeat + watchdog) vs. the same crawl with only
#: the metrics registry it rides on — its marginal cost is a handful of
#: phase-boundary ticks, and must stay within the 3% budget.
MONITOR_BUDGET = 1.0 + OVERHEAD_BUDGET

WRAPPER_CALLS = 50_000


def _noop_client() -> HttpClient:
    ok = Response.json_ok([])
    return HttpClient(lambda req: ok, SimClock(), breaker=None)


def _per_call(fn, path: str, calls: int) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            fn(path, None)
        best = min(best, time.perf_counter() - start)
    return best / calls


def _crawl(world, obs: Observability):
    clock = SimClock()
    servers = {
        m: MarketServer(store, clock)
        for m, store in build_stores(world).items()
    }
    coordinator = CrawlCoordinator(
        servers, clock, download_apks=False, workers=1, obs=obs
    )
    started = time.perf_counter()
    snapshot = coordinator.crawl("bench-obs", duration_days=5.0)
    return snapshot, time.perf_counter() - started


def test_bench_disabled_path_within_budget():
    world = EcosystemGenerator(seed=OBS_SEED, scale=OBS_SCALE).generate()

    client = _noop_client()
    wrapped = _per_call(client.request, "/app", WRAPPER_CALLS)
    raw = _per_call(client._request, "/app", WRAPPER_CALLS)
    wrapper_delta = max(0.0, wrapped - raw)

    snapshot, wall = _crawl(world, NULL_OBS)
    requests = snapshot.stats.telemetry.total_requests
    assert requests > 0
    per_request = wall / requests

    overhead = wrapper_delta / per_request
    print(
        f"\ndisabled-path overhead: wrapper {wrapper_delta * 1e9:.0f}ns/req "
        f"vs crawl {per_request * 1e6:.1f}us/req -> {overhead:.3%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled observability adds {overhead:.2%} per request "
        f"({wrapper_delta * 1e9:.0f}ns on {per_request * 1e6:.1f}us), "
        f"over the {OVERHEAD_BUDGET:.0%} budget"
    )


def test_bench_enabled_vs_disabled_crawl():
    world = EcosystemGenerator(seed=OBS_SEED, scale=OBS_SCALE).generate()

    baseline_snapshot, baseline_wall = _crawl(world, NULL_OBS)
    obs = Observability.from_flags(trace=True, metrics=True)
    traced_snapshot, traced_wall = _crawl(world, obs)

    # Recording must never perturb the crawl itself.
    assert traced_snapshot.content_digest() == baseline_snapshot.content_digest()
    assert len(obs.tracer.spans("http.request")) > 0
    assert len(obs.metrics) > 0

    ratio = traced_wall / baseline_wall if baseline_wall > 0 else 1.0
    print(
        f"\nfull recording: disabled {baseline_wall:.2f}s vs "
        f"trace+metrics {traced_wall:.2f}s ({ratio:.2f}x, "
        f"{len(obs.tracer)} trace records)"
    )


def test_bench_monitor_overhead():
    """Heartbeat + stall watchdog must be digest-invariant and ~free.

    A full crawl's wall time jitters by far more than 3% between
    back-to-back runs, so — like the disabled-path test above — the
    bound is proved from direct marginal costs: price one monitor tick
    (fleet-time read + full watchdog scan) and one heartbeat against
    the live engine/telemetry the crawl used, multiply by the counts
    the monitored crawl actually performed, and take the total as a
    fraction of the crawl's wall time.  The raw wall-clock comparison
    is printed as context only.
    """
    from repro.obs import CampaignMonitor, MetricsRegistry

    world = EcosystemGenerator(seed=OBS_SEED, scale=MONITOR_SCALE).generate()

    baseline_obs = Observability.from_flags(trace=False, metrics=True)
    baseline_snapshot, baseline_wall = _crawl(world, baseline_obs)

    clock = SimClock()
    servers = {
        m: MarketServer(store, clock)
        for m, store in build_stores(world).items()
    }
    monitored_obs = Observability.from_flags(
        trace=False, metrics=True, monitor=True
    )
    coordinator = CrawlCoordinator(
        servers, clock, download_apks=False, workers=1, obs=monitored_obs
    )
    started = time.perf_counter()
    monitored_snapshot = coordinator.crawl("bench-obs", duration_days=5.0)
    monitored_wall = time.perf_counter() - started

    # The monitor only reads engine/telemetry state: bit-identical crawl.
    assert (
        monitored_snapshot.content_digest()
        == baseline_snapshot.content_digest()
    )
    monitor = monitored_obs.monitor
    # It did actually run: at least the end-of-campaign heartbeat fired.
    assert monitor.heartbeats > 0

    telemetry = monitored_snapshot.stats.telemetry
    # One tick per phase boundary: discovery, each search round, finish.
    ticks = 2 + telemetry.search_rounds
    beats = monitor.heartbeats

    # Price the marginal operations against the same live fleet, with
    # thresholds armed so nothing fires spuriously mid-measurement.
    probe = CampaignMonitor(MetricsRegistry(), interval=1e9, stall_budget=1e9)
    engine = coordinator._engine
    probe.begin("probe", engine, telemetry, clock)
    probe_ticks = 2_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(probe_ticks):
            probe.tick("probe")
        best = min(best, time.perf_counter() - start)
    per_tick = best / probe_ticks

    # begin() + finish() emits exactly one heartbeat (plus a watchdog
    # arm/scan, deliberately over-counted on the heartbeat's tab).
    probe_beats = 500
    start = time.perf_counter()
    for _ in range(probe_beats):
        probe.begin("probe", engine, telemetry, clock)
        probe.finish()
    per_beat = (time.perf_counter() - start) / probe_beats

    crawl_wall = min(baseline_wall, monitored_wall)
    overhead = (ticks * per_tick + beats * per_beat) / crawl_wall
    ratio = 1.0 + overhead
    print(
        f"\nmonitor overhead: {ticks} ticks x {per_tick * 1e6:.1f}us + "
        f"{beats} beats x {per_beat * 1e6:.1f}us over a {crawl_wall:.3f}s "
        f"crawl -> {overhead:.4%} ({ratio:.4f}x, budget {MONITOR_BUDGET:.2f}x; "
        f"raw walls {baseline_wall:.3f}s vs {monitored_wall:.3f}s)"
    )
    assert ratio <= MONITOR_BUDGET, (
        f"live monitor costs {ratio:.4f}x the metrics-only crawl "
        f"({ticks} ticks x {per_tick * 1e6:.1f}us, {beats} beats x "
        f"{per_beat * 1e6:.1f}us), over the {MONITOR_BUDGET:.2f}x budget"
    )
