"""Metrics registry: counters, gauges, and histograms.

The paper's fleet was run off dashboards; this module is the storage
those dashboards would read.  A :class:`MetricsRegistry` holds named
series keyed by ``(name, labels)`` — :class:`Counter` (monotonic
floats), :class:`Gauge` (last-write-wins values that can also keep
``(sim_time, value)`` samples, which is how queue depth is tracked over
simulated time), and :class:`Histogram` (fixed upper-bound buckets with
sum and count, Prometheus-style cumulative on export).

Two exporters cover the two consumers: ``render_prometheus()`` produces
the text exposition format a scrape endpoint would serve, and
``export_jsonl()`` writes one self-describing JSON object per series —
the machine-readable campaign artifact ``run-report`` and the bench
trajectory read back.  ``load_dicts()`` is the inverse of the JSONL
export, so an artifact can be re-hydrated into a registry and viewed
through the exact same code (:class:`~repro.crawler.telemetry.CrawlTelemetry`
is itself a view over a registry) that rendered the live run.

Ownership rule: series objects are plain attributes with no per-update
locking.  The registry's creation path is locked (lanes may race to
materialize series), but each series is expected to have a single
writer — the same lane-ownership discipline the crawl telemetry and
lane clocks already follow.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_WALL_BUCKETS",
    "DEFAULT_SIM_DAY_BUCKETS",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Wall-clock service-time buckets (seconds): micro-benchmark floor to
#: multi-second stall ceiling.
DEFAULT_WALL_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)

#: Simulated-day buckets for back-off durations: minutes up to
#: the multi-day quota hints Google Play answers with.
DEFAULT_SIM_DAY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 30.0
)


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing series (floats; ints fit exactly)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A last-write-wins value, optionally sampled over simulated time."""

    __slots__ = ("name", "labels", "value", "samples")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, value: float, at: Optional[float] = None) -> None:
        """Set the gauge; ``at`` (a sim timestamp) also keeps a sample."""
        self.value = float(value)
        if at is not None:
            self.samples.append((float(at), float(value)))

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.samples:
            doc["samples"] = [[t, v] for t, v in self.samples]
        return doc


class Histogram:
    """Fixed-bucket histogram (bucket counts are per-bucket, not
    cumulative, in memory; the exporters cumulate where the format
    demands it)."""

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems, buckets: Sequence[float]):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.total,
            "count": self.count,
            "buckets": [[b, c] for b, c in zip(self.buckets, self.counts)],
            "overflow": self.counts[-1],
        }


Series = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All metric series of one run, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelItems], Series] = {}

    def _get_or_create(self, cls, name: str, labels: Mapping[str, object], *args):
        key = (name, _label_items(labels))
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = cls(name, key[1], *args)
                    self._series[key] = series
        if not isinstance(series, cls):
            raise TypeError(
                f"metric {name} already registered as {series.kind}, "
                f"not {cls.kind}"
            )
        return series

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_WALL_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> List[Series]:
        """All series in a stable (name, labels) order."""
        return [self._series[key] for key in sorted(self._series)]

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values one label takes across a metric's series."""
        values = {
            dict(series.labels).get(label)
            for (metric, _), series in self._series.items()
            if metric == name
        }
        return sorted(v for v in values if v is not None)

    # -- export ------------------------------------------------------------

    def to_dicts(self) -> List[dict]:
        return [series.to_dict() for series in self.series()]

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write one JSON object per series; returns the line count."""
        docs = self.to_dicts()
        with Path(path).open("w", encoding="utf-8") as handle:
            for doc in docs:
                handle.write(json.dumps(doc, separators=(",", ":")) + "\n")
        return len(docs)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for every series."""
        lines: List[str] = []
        typed: set = set()
        for series in self.series():
            if series.name not in typed:
                typed.add(series.name)
                lines.append(f"# TYPE {series.name} {series.kind}")
            labels = _format_labels(dict(series.labels))
            if isinstance(series, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(series.buckets, series.counts):
                    cumulative += bucket_count
                    le = _format_labels({**dict(series.labels), "le": _fmt(bound)})
                    lines.append(f"{series.name}_bucket{le} {cumulative}")
                le = _format_labels({**dict(series.labels), "le": "+Inf"})
                lines.append(f"{series.name}_bucket{le} {series.count}")
                lines.append(f"{series.name}_sum{labels} {_fmt(series.total)}")
                lines.append(f"{series.name}_count{labels} {series.count}")
            else:
                lines.append(f"{series.name}{labels} {_fmt(series.value)}")
        if not lines:  # an empty registry exposes nothing, not one blank line
            return ""
        return "\n".join(lines) + "\n"

    # -- import (artifact re-hydration) ------------------------------------

    def load_dicts(self, docs: Iterable[Mapping]) -> int:
        """Re-hydrate exported series into this registry.

        The inverse of :meth:`to_dicts`: after loading, views built over
        the registry (telemetry tables, reports) see the exported run.
        """
        loaded = 0
        for doc in docs:
            kind, name = doc["kind"], doc["name"]
            labels = {str(k): v for k, v in doc.get("labels", {}).items()}
            if kind == "counter":
                self.counter(name, **labels).value = float(doc["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, **labels)
                gauge.value = float(doc["value"])
                gauge.samples = [
                    (float(t), float(v)) for t, v in doc.get("samples", [])
                ]
            elif kind == "histogram":
                buckets = [float(b) for b, _ in doc["buckets"]]
                histogram = self._get_or_create(Histogram, name, labels, buckets)
                histogram.counts = [int(c) for _, c in doc["buckets"]]
                histogram.counts.append(int(doc.get("overflow", 0)))
                histogram.total = float(doc["value"])
                histogram.count = int(doc["count"])
            else:
                raise ValueError(f"unknown series kind {kind!r}")
            loaded += 1
        return loaded


def _fmt(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else repr(float(value))


def _escape(value: str) -> str:
    # Prometheus text format: backslash first, then quote and newline.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"
