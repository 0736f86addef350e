"""Crawl telemetry.

The paper's fleet was operated with per-market dashboards (which market
is rate limiting, which is flaky, how deep the search backlog runs);
:class:`CrawlTelemetry` is that layer for one campaign.  The crawl
engine owns one instance per campaign and each market lane reports only
to its own :class:`MarketTelemetry`, so recording is lock-free under
the lane-per-market threading model.

Telemetry is a **view over the metrics registry**
(:mod:`repro.obs.metrics`), and the only set of crawl counters there
is: every counter a lane records lives in a registry series labeled
``{campaign, market}``, and the attribute (``lane.requests``) is a
property over that series.  :class:`MarketTelemetry` extends the HTTP
client's :class:`~repro.net.client.ClientStats` view, and the engine
binds each lane's client to its campaign's ``MarketTelemetry`` for the
campaign, so client requests, retries and bans count straight into the
campaign's series — the live monitor sees them mid-campaign, and no
copy, delta or fold keeps two tallies in agreement.  The operator
table rendered by ``stats_report()`` and the ``--metrics-out`` export
read the *same storage* and can never disagree — and ``run-report``
re-renders the table from an exported artifact by re-hydrating a
registry and attaching this same view to it
(:meth:`CrawlTelemetry.from_registry`).

``stats_report()`` renders the operator's table: per-market requests,
retries, fault counters, definitive 404s, simulated back-off, queue
depths, record yield, and the campaign's wall-clock throughput.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.net.client import ClientStats, counter_property
from repro.obs.metrics import MetricsRegistry

__all__ = ["MarketTelemetry", "CrawlTelemetry", "DEAD_LETTER_REASON_METRIC"]

#: Whole-number lane counters the coordinator and engine record -> series name.
_LANE_COUNTERS = {
    "breaker_trips": "crawl_breaker_trips_total",
    "records": "crawl_records_total",
    "searches": "crawl_searches_total",
    "apk_downloaded": "crawl_apk_downloaded_total",
    "apk_backfilled": "crawl_apk_backfilled_total",
    "apk_missing": "crawl_apk_missing_total",
    "dead_letters": "crawl_dead_letters_total",
}

#: Gauge marking a market the breaker quarantined (0 ok / 1 degraded).
DEGRADED_METRIC = "crawl_market_degraded"

#: Dead-letter counter broken down by cause.  Labeled ``{campaign,
#: market, reason}``, so the export answers *why* work was lost (ban
#: vs. retry exhaustion vs. breaker quarantine), not just how much.
DEAD_LETTER_REASON_METRIC = "crawl_dead_letter_reason_total"


class MarketTelemetry(ClientStats):
    """One market lane's counters for one campaign.

    The :class:`~repro.net.client.ClientStats` counters are written by
    the lane's client, which the engine binds to this object for the
    campaign; the coordinator adds the crawl-level counters (records,
    searches, APK outcomes, dead letters) and the engine the breaker
    trips.  Every counter is a property over a registry series labeled
    with this market and its campaign.
    """

    METRICS = {**ClientStats.METRICS, **_LANE_COUNTERS}

    __slots__ = ("market_id", "_degraded")

    def __init__(
        self,
        market_id: str,
        registry: Optional[MetricsRegistry] = None,
        campaign: str = "",
    ):
        registry = registry if registry is not None else MetricsRegistry()
        super().__init__(registry, campaign=campaign, market=market_id)
        self.market_id = market_id
        self._degraded = registry.gauge(
            DEGRADED_METRIC, campaign=campaign, market=market_id
        )

    @property
    def health(self) -> str:
        """``"ok"``, or ``"degraded"`` once the breaker quarantined it."""
        return "degraded" if self._degraded.value else "ok"

    @health.setter
    def health(self, value: str) -> None:
        self._degraded.set(0.0 if value == "ok" else 1.0)


for _field in _LANE_COUNTERS:
    setattr(MarketTelemetry, _field, counter_property(_field))
del _field


class CrawlTelemetry:
    """Per-market counters plus fleet-wide queue/scheduling gauges."""

    def __init__(
        self,
        label: str = "",
        workers: int = 1,
        search_rounds: int = 0,
        queue_peak: int = 0,
        wall_seconds: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._bind(label, registry if registry is not None else MetricsRegistry())
        self.workers = workers
        self.search_rounds = search_rounds
        self.queue_peak = queue_peak
        self.wall_seconds = wall_seconds

    def _bind(self, label: str, registry: MetricsRegistry) -> None:
        self.label = label
        self.registry = registry
        self.markets: Dict[str, MarketTelemetry] = {}
        self._workers = registry.gauge("crawl_workers", campaign=label)
        self._search_rounds = registry.counter(
            "crawl_search_rounds_total", campaign=label
        )
        self._queue_peak = registry.gauge("crawl_queue_peak", campaign=label)
        self._queue_depth = registry.gauge("crawl_queue_depth", campaign=label)
        self._wall = registry.gauge("crawl_wall_seconds", campaign=label)

    @classmethod
    def from_registry(
        cls, label: str, registry: MetricsRegistry, markets: Iterable[str] = ()
    ) -> "CrawlTelemetry":
        """Attach a read view to an existing (e.g. re-hydrated) registry.

        Unlike the constructor this writes nothing: the gauges and
        counters keep whatever the registry already holds, which is how
        ``run-report`` re-renders an exported campaign byte-for-byte.
        """
        telemetry = object.__new__(cls)
        telemetry._bind(label, registry)
        for market_id in markets:
            telemetry.market(market_id)
        return telemetry

    # -- gauge-backed attributes ------------------------------------------

    @property
    def workers(self) -> int:
        return int(self._workers.value)

    @workers.setter
    def workers(self, value: int) -> None:
        self._workers.set(float(value))

    @property
    def search_rounds(self) -> int:
        return int(self._search_rounds.value)

    @search_rounds.setter
    def search_rounds(self, value: int) -> None:
        self._search_rounds.value = float(value)

    @property
    def queue_peak(self) -> int:
        return int(self._queue_peak.value)

    @queue_peak.setter
    def queue_peak(self, value: int) -> None:
        self._queue_peak.set(float(value))

    @property
    def wall_seconds(self) -> float:
        return self._wall.value

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self._wall.set(float(value))

    # -- recording ---------------------------------------------------------

    def market(self, market_id: str) -> MarketTelemetry:
        lane = self.markets.get(market_id)
        if lane is None:
            lane = self.markets[market_id] = MarketTelemetry(
                market_id, self.registry, campaign=self.label
            )
        return lane

    def observe_queue_depth(self, depth: int, at: Optional[float] = None) -> None:
        """Record a frontier depth; ``at`` (sim day) keeps a time series."""
        self._queue_depth.set(float(depth), at=at)
        if depth > self.queue_peak:
            self.queue_peak = depth

    def record_dead_letter(self, market_id: str, reason: str) -> None:
        """Account one piece of abandoned work, labeled with its cause."""
        self.market(market_id).dead_letters += 1
        self.registry.counter(
            DEAD_LETTER_REASON_METRIC,
            campaign=self.label,
            market=market_id,
            reason=reason,
        ).inc()

    def dead_letter_reasons(self) -> Dict[str, int]:
        """Campaign dead letters grouped by reason label.

        Scans existing series rather than calling ``counter()`` (which
        would *create* zero-valued series for reasons never seen), so
        re-hydrated registries render identically to live ones.
        """
        reasons: Dict[str, int] = {}
        for series in self.registry.series():
            if series.name != DEAD_LETTER_REASON_METRIC:
                continue
            labels = dict(series.labels)
            if labels.get("campaign") != self.label:
                continue
            reason = labels.get("reason", "")
            reasons[reason] = reasons.get(reason, 0) + int(series.value)
        return reasons

    # -- aggregates --------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(m.requests for m in self.markets.values())

    @property
    def total_retries(self) -> int:
        return sum(m.retries for m in self.markets.values())

    @property
    def total_records(self) -> int:
        return sum(m.records for m in self.markets.values())

    @property
    def total_not_found(self) -> int:
        return sum(m.not_found for m in self.markets.values())

    @property
    def total_faults_absorbed(self) -> int:
        return sum(
            m.retries + m.rate_limited + m.timeouts + m.malformed
            for m in self.markets.values()
        )

    @property
    def total_failures(self) -> int:
        """Abandoned requests fleet-wide (work lost, not turbulence)."""
        return sum(m.failures for m in self.markets.values())

    @property
    def total_breaker_trips(self) -> int:
        return sum(m.breaker_trips for m in self.markets.values())

    @property
    def total_dead_letters(self) -> int:
        return sum(m.dead_letters for m in self.markets.values())

    @property
    def total_logins(self) -> int:
        return sum(m.logins for m in self.markets.values())

    @property
    def total_token_refreshes(self) -> int:
        return sum(m.token_refreshes for m in self.markets.values())

    @property
    def total_bans_hit(self) -> int:
        return sum(m.bans_hit for m in self.markets.values())

    @property
    def total_identity_rotations(self) -> int:
        return sum(m.identity_rotations for m in self.markets.values())

    @property
    def requests_per_second(self) -> float:
        """Wall-clock throughput (0 when wall time was never recorded)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_requests / self.wall_seconds

    def degraded_markets(self) -> List[str]:
        return sorted(m.market_id for m in self.markets.values() if m.health != "ok")

    def stats_report(self, top: Optional[int] = None) -> str:
        """Render the per-market operator table."""
        header = (
            f"{'market':<14}{'requests':>10}{'retries':>9}{'429s':>7}"
            f"{'404s':>7}{'timeouts':>10}{'garbled':>9}{'failed':>8}{'trips':>7}"
            f"{'backoff(d)':>12}{'records':>9}  {'health':<9}"
        )
        title = (
            f"crawl telemetry [{self.label}] — workers={self.workers}, "
            f"search rounds={self.search_rounds}, queue peak={self.queue_peak}"
        )
        if self.wall_seconds > 0:
            title += (
                f", wall={self.wall_seconds:.2f}s "
                f"({self.requests_per_second:,.0f} req/s)"
            )
        lines: List[str] = [title, header, "-" * len(header)]
        lanes = sorted(self.markets.values(), key=lambda m: (-m.requests, m.market_id))
        if top is not None:
            lanes = lanes[:top]
        for lane in lanes:
            lines.append(
                f"{lane.market_id:<14}{lane.requests:>10}{lane.retries:>9}"
                f"{lane.rate_limited:>7}{lane.not_found:>7}{lane.timeouts:>10}"
                f"{lane.malformed:>9}"
                f"{lane.failures:>8}{lane.breaker_trips:>7}"
                f"{lane.sim_days_backoff:>12.4f}"
                f"{lane.records:>9}  {lane.health:<9}"
            )
        lines.append("-" * len(header))
        degraded = self.degraded_markets()
        lines.append(
            f"{'total':<14}{self.total_requests:>10}{self.total_retries:>9}"
            f"{sum(m.rate_limited for m in self.markets.values()):>7}"
            f"{self.total_not_found:>7}"
            f"{sum(m.timeouts for m in self.markets.values()):>10}"
            f"{sum(m.malformed for m in self.markets.values()):>9}"
            f"{self.total_failures:>8}{self.total_breaker_trips:>7}"
            f"{sum(m.sim_days_backoff for m in self.markets.values()):>12.4f}"
            f"{self.total_records:>9}  "
            f"{('degraded:' + str(len(degraded))) if degraded else 'ok':<9}"
        )
        if degraded:
            lines.append(
                "degraded markets (breaker quarantine): " + ", ".join(degraded)
            )
        hostility = (
            self.total_logins
            or self.total_token_refreshes
            or self.total_bans_hit
            or self.total_identity_rotations
        )
        if hostility:
            lines.append(
                f"hostility: logins={self.total_logins} "
                f"(refreshes={self.total_token_refreshes}), "
                f"bans hit={self.total_bans_hit}, "
                f"identity rotations={self.total_identity_rotations}"
            )
        if self.total_dead_letters:
            line = f"dead letters: {self.total_dead_letters}"
            reasons = self.dead_letter_reasons()
            if reasons:
                breakdown = ", ".join(
                    f"{reason}={count}" for reason, count in sorted(reasons.items())
                )
                line += f" ({breakdown})"
            lines.append(line)
        return "\n".join(lines)
