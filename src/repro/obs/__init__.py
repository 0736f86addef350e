"""Unified observability: span tracing, metrics, stage profiling.

``repro.obs`` is the layer every other subsystem reports through:

* the HTTP client emits per-request spans and service-time histograms,
* the circuit breaker emits state-transition events,
* the crawl coordinator wraps discovery / search rounds / APK batches
  in spans tied to the per-campaign trace,
* the study pipeline and experiment renders run under stages, and a
  stage is just a ``stage.<name>`` span: the stage profile
  (:mod:`repro.obs.profiler`) is read off the recorded stage spans.

There is one span stack, a ``contextvars`` variable, so parentage
follows the context across threads: a lane's work on a crawl-engine
pool thread, or an experiment render on the runner's pool, nests under
the span that submitted it.

:class:`Observability` bundles the recorders.  Every component is
optional and defaults to *off*: :data:`NULL_OBS` (all recorders
``None``) is what the pipeline threads through when nothing was
requested, and its ``span``/``stage`` return a shared no-op context so
the disabled path costs a ``None`` check — proved by the observability
benchmark, which bounds the disabled-path overhead below 3% of crawl
wall time.

The hot path goes one step further: :meth:`Observability.lane` returns
``None`` when neither tracing nor metrics are on, so the HTTP client's
per-request fast path is a single ``is None`` branch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.metrics import (
    DEFAULT_SIM_DAY_BUCKETS,
    DEFAULT_WALL_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.monitor import CampaignMonitor
from repro.obs.profiler import STAGE_PREFIX, render_profile, stage_rows
from repro.obs.trace import NULL_SPAN, NullSpan, Span, SpanTracer

__all__ = [
    "Observability",
    "LaneObs",
    "NULL_OBS",
    "SpanTracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "CampaignMonitor",
]


class LaneObs:
    """One market lane's binding of the tracer and its histograms.

    Built once per lane at engine construction, so the per-request path
    touches pre-resolved attributes only.  ``tracer`` may be ``None``
    (metrics without tracing); the request histograms may be ``None``
    (tracing without metrics).
    """

    __slots__ = ("tracer", "market", "clock", "hist_request", "hist_backoff")

    def __init__(
        self,
        market: str,
        clock,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
    ):
        self.market = market
        self.clock = clock
        self.tracer = tracer
        if metrics is not None:
            self.hist_request = metrics.histogram(
                "http_request_wall_seconds", DEFAULT_WALL_BUCKETS, market=market
            )
            self.hist_backoff = metrics.histogram(
                "http_backoff_sim_days", DEFAULT_SIM_DAY_BUCKETS, market=market
            )
        else:
            self.hist_request = None
            self.hist_backoff = None


class Observability:
    """The bundle of recorders one run threads through its pipeline.

    ``tracer`` records every span and event.  ``profile`` records the
    pipeline's stage spans even without one — into a private tracer that
    sees nothing else, so a profiled run does not hold a crawl's worth
    of request spans.  Stage spans are wall-only.
    """

    def __init__(
        self,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profile: bool = False,
        monitor: Optional[CampaignMonitor] = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        #: Where stage spans are recorded (``None``: stages are no-ops).
        self.stage_tracer = SpanTracer() if profile and tracer is None else tracer

    @classmethod
    def from_flags(
        cls,
        trace: bool = False,
        metrics: bool = False,
        profile: bool = False,
        monitor: bool = False,
    ) -> "Observability":
        """Recorders for exactly what was asked; NULL_OBS when nothing.

        The monitor snapshots the metrics registry, so ``monitor=True``
        materializes one even when no ``--metrics-out`` export was
        requested (the heartbeat samples still reach ``run-report``
        through the telemetry's registry).
        """
        if not (trace or metrics or profile or monitor):
            return NULL_OBS
        tracer = SpanTracer() if trace else None
        registry = MetricsRegistry() if (metrics or monitor) else None
        return cls(
            tracer=tracer,
            metrics=registry,
            profile=profile,
            monitor=CampaignMonitor(registry, tracer=tracer) if monitor else None,
        )

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        market: Optional[str] = None,
        clock=None,
        **attrs,
    ):
        """A span context manager (no-op when tracing is off)."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, market=market, clock=clock, **attrs)

    def event(
        self,
        name: str,
        market: Optional[str] = None,
        sim_time: Optional[float] = None,
        **attrs,
    ) -> None:
        if self.tracer is not None:
            self.tracer.event(name, market=market, sim_time=sim_time, **attrs)

    def stage(self, name: str):
        """A pipeline stage: a ``stage.<name>`` span (no-op when neither
        tracing nor profiling is on)."""
        if self.stage_tracer is None:
            return NULL_SPAN
        return self.stage_tracer.span(STAGE_PREFIX + name)

    def lane(self, market: str, clock) -> Optional[LaneObs]:
        """The hot-path binding for one market lane (None = all off)."""
        if self.tracer is None and self.metrics is None:
            return None
        return LaneObs(market, clock, self.tracer, self.metrics)

    # -- export ------------------------------------------------------------

    def export_trace(self, path) -> int:
        if self.tracer is None:
            raise ValueError("tracing is not enabled on this run")
        return self.tracer.export_jsonl(path)

    def export_metrics(self, path) -> int:
        if self.metrics is None:
            raise ValueError("metrics are not enabled on this run")
        return self.metrics.export_jsonl(path)

    def stage_rows(self) -> List[dict]:
        """The recorded stages (see :func:`repro.obs.profiler.stage_rows`)."""
        if self.stage_tracer is None:
            return []
        return stage_rows(self.stage_tracer.records())

    def profile_report(self, telemetry=None) -> str:
        if self.stage_tracer is None:
            return "stage profile: profiling was not enabled"
        return render_profile(self.stage_rows(), telemetry)


#: The default: nothing records, spans and stages are shared no-ops.
NULL_OBS = Observability()


def breaker_listener(obs: Observability, market: str, clock):
    """A breaker ``on_transition`` callback bound to one market lane.

    Returns ``None`` when tracing is off so the breaker skips the call
    entirely (the same ``is None`` discipline as the client hot path).
    """
    tracer = obs.tracer
    if tracer is None:
        return None

    def listen(old_state: str, new_state: str, trips: int, quarantined: bool) -> None:
        tracer.event(
            "breaker.transition",
            market=market,
            sim_time=clock.now,
            from_state=old_state,
            to_state=new_state,
            trips=trips,
            quarantined=quarantined,
        )

    return listen


def counts_from_spans(records: List[dict]) -> dict:
    """Span-name -> (count, total wall, max wall) summary of a trace."""
    summary: dict = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        name = record["name"]
        count, total, peak = summary.get(name, (0, 0.0, 0.0))
        wall = float(record["wall_seconds"])
        summary[name] = (count + 1, total + wall, max(peak, wall))
    return summary
