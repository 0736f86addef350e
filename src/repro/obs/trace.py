"""Span tracing with dual simulated/wall timestamps.

A crawl campaign is a tree of work: the campaign contains per-market
discovery, search rounds, and APK batches; each of those contains HTTP
requests; requests sleep through 429 back-off.  :class:`SpanTracer`
records that tree as **spans** — one record per unit of work with a
name, a parent, attributes, and *two* clocks: wall time (what the
operator waits for) and the simulated campaign clock (what the fleet
model charges).  Point-in-time facts that are not work — a circuit
breaker flipping open, a market entering quarantine — are recorded as
**events**.

Parentage follows the *context*, not the thread: the open span is a
:class:`contextvars.ContextVar`, so a span's parent is whatever span is
current in the context that opens it.  Work handed to a pool thread in
a ``contextvars.copy_context()`` taken at submit time (the crawl
engine's lanes, the experiment pool) hangs off the span that submitted
it, and each asyncio task — which runs in its own copy of its creator's
context — nests its spans without mis-nesting its neighbours'.  A bare
thread starts with an empty context and so opens root spans.  Finished
records are appended under a lock.

The disabled path matters more than the enabled one: a campaign run
without ``--trace-out`` must not pay for the instrumentation it is not
using.  :data:`NULL_SPAN` is a shared, stateless no-op that satisfies
the span protocol (context manager + attribute setting), and the hot
paths (the HTTP client) skip even that by branching on ``None``.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["Span", "SpanTracer", "NullSpan", "NULL_SPAN"]


class NullSpan:
    """A no-op span: context manager, attribute sink, nothing recorded.

    A single shared instance stands in wherever tracing is disabled, so
    ``with obs.span(...) as span: span["key"] = value`` costs two
    trivial method calls and no allocation.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __setitem__(self, key: str, value: object) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One unit of traced work (use as a context manager)."""

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent", "name", "market",
        "attrs", "status", "wall_start", "wall_seconds", "sim_start",
        "sim_end", "_clock", "_perf_start", "_token",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        trace_id: str,
        span_id: int,
        parent: Optional["Span"],
        name: str,
        market: Optional[str],
        clock,
        attrs: Dict[str, object],
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.market = market
        self.attrs = attrs
        self.status = "ok"
        self._clock = clock
        self.wall_start = 0.0
        self.wall_seconds = 0.0
        self.sim_start: Optional[float] = None
        self.sim_end: Optional[float] = None
        self._perf_start = 0.0
        self._token: Optional[contextvars.Token] = None

    @property
    def parent_id(self) -> Optional[int]:
        return self.parent.span_id if self.parent is not None else None

    def __setitem__(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self.wall_start = time.time()
        self._perf_start = time.perf_counter()
        if self._clock is not None:
            self.sim_start = self._clock.now
        self._token = self.tracer._current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = time.perf_counter() - self._perf_start
        if self._clock is not None:
            self.sim_end = self._clock.now
        if exc_type is not None:
            self.status = exc_type.__name__
        self.tracer._current.reset(self._token)
        self.tracer._record(self)
        return False

    def to_dict(self) -> dict:
        doc = {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "wall_start": self.wall_start,
            "wall_seconds": self.wall_seconds,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
        }
        if self.market is not None:
            doc["market"] = self.market
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc


class SpanTracer:
    """Collects spans and events for one run (possibly many campaigns)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[dict] = []
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("current_span", default=None)
        )
        self._next_span_id = 1
        self.trace_id = "run"

    def set_trace(self, trace_id: str) -> None:
        """Name the current trace; campaigns set their label here."""
        self.trace_id = trace_id

    # -- span lifecycle ----------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            self._records.append(span.to_dict())

    def current_span(self) -> Optional[Span]:
        """The innermost open span in the calling context."""
        return self._current.get()

    def span(
        self,
        name: str,
        market: Optional[str] = None,
        clock=None,
        **attrs: object,
    ) -> Span:
        """Open a span (enter the returned context manager to start it).

        The parent is the calling context's current span.  ``clock`` is
        any object with a ``now`` attribute — the shared campaign clock,
        or a market lane's :class:`LaneClock` — read at entry and exit
        for the simulated timestamps.
        """
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        return Span(
            self,
            trace_id=self.trace_id,
            span_id=span_id,
            parent=self._current.get(),
            name=name,
            market=market,
            clock=clock,
            attrs=dict(attrs),
        )

    # -- events ------------------------------------------------------------

    def event(
        self,
        name: str,
        market: Optional[str] = None,
        sim_time: Optional[float] = None,
        **attrs: object,
    ) -> None:
        """Record a point-in-time fact (breaker transition, quarantine)."""
        parent = self._current.get()
        doc = {
            "kind": "event",
            "trace_id": self.trace_id,
            "span_id": parent.span_id if parent is not None else None,
            "name": name,
            "wall_start": time.time(),
            "sim_time": sim_time,
        }
        if market is not None:
            doc["market"] = market
        if attrs:
            doc["attrs"] = attrs
        with self._lock:
            self._records.append(doc)

    # -- export ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> List[dict]:
        """A copy of everything recorded so far (spans and events)."""
        with self._lock:
            return list(self._records)

    def spans(self, name: Optional[str] = None) -> List[dict]:
        return [
            r for r in self.records()
            if r["kind"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[dict]:
        return [
            r for r in self.records()
            if r["kind"] == "event" and (name is None or r["name"] == name)
        ]

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write one JSON object per span/event; returns the line count."""
        records = self.records()
        with Path(path).open("w", encoding="utf-8") as handle:
            for doc in records:
                handle.write(json.dumps(doc, separators=(",", ":")) + "\n")
        return len(records)
