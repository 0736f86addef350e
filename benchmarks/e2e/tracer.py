"""Benchmark-side span tracer.

Spans are kept in memory as tuples ``(id, parent, name, start, end,
thread, request)`` and written as JSONL only when asked.  Parentage uses
a :mod:`contextvars` variable, so a span opened on a crawl-lane thread
or inside an asyncio task nests under whatever span was current where
the call was made.

The serving tier answers on its own loop thread, whose tasks carry a
context copied when the tier started, not the client's.  A span wrapped
with ``remote=True`` (the client's transport send) publishes itself
while it runs; a span that opens on any other thread meanwhile takes the
published one as its parent and request.  That pairing is exact only
while one request is in flight at a time, which is how the benchmark
drives the crawl (one crawl worker).

Iterator-returning functions are charged for the time spent inside
``next()``, not for the call that builds the iterator: the counters
``<name>_calls`` and ``<name>_s`` accumulate per iteration.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Tracer"]

Span = Tuple[int, int, str, float, float, int, int]
Name = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """In-memory spans plus named counters for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        # (current span id, current request id); 0 means none.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=(0, 0)
        )
        # (span id, request id, thread) of the published remote parent.
        self._remote: Tuple[int, int, int] = (0, 0, 0)
        self._lock = threading.Lock()
        self._thread_names: Dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(
        self,
        fn: Callable,
        name: Name,
        *,
        request: bool = False,
        remote: bool = False,
        on_result: Optional[Callable[[object, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a callable of ``(args, kwargs)``.  ``request``
        starts a new request id (the span's own id); ``remote`` publishes
        the span, while it runs, as the parent of spans that open on any
        other thread.  ``on_result`` sees every successful return.
        """
        tracer = self
        current = self._current
        spans = self.spans
        ids = self._ids
        names = self._thread_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            ident = threading.get_ident()
            remote_sid, remote_req, remote_thread = tracer._remote
            if remote_sid and remote_thread != ident:
                parent, req = remote_sid, remote_req
            else:
                parent, req = current.get()
            sid = next(ids)
            if request:
                req = sid
            token = current.set((sid, req))
            if remote:
                saved, tracer._remote = tracer._remote, (sid, req, ident)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if remote:
                    tracer._remote = saved
                current.reset(token)
                if ident not in names:
                    names[ident] = threading.current_thread().name
                spans.append((sid, parent, span_name, start, end, ident, req))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """``fn`` returning an iterator whose iteration is charged."""
        tracer = self

        @functools.wraps(fn)
        def charged(*args, **kwargs):
            return tracer._charge(iter(fn(*args, **kwargs)), name)

        return charged

    def _charge(self, iterator: Iterator, name: str) -> Iterator:
        busy = 0.0
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    busy += perf_counter() - start
                    return
                busy += perf_counter() - start
                yield item
        finally:
            with self._lock:
                self.counters[name + "_calls"] += 1
                self.counters[name + "_s"] += busy

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> Dict[str, List[float]]:
        """``name -> [calls, total seconds, self seconds]``.

        Self time is a span's duration minus its children's durations;
        children of one span never overlap while one request is in
        flight, so the difference is the time no child covered.
        """
        covered: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _thread, _req in self.spans:
            if parent:
                covered[parent] += end - start
        out: Dict[str, List[float]] = {}
        for sid, _parent, name, start, end, _thread, _req in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            duration = end - start
            agg[0] += 1
            agg[1] += duration
            agg[2] += max(0.0, duration - covered.get(sid, 0.0))
        return out

    def root_seconds(self, thread: int) -> float:
        """Total duration of the parentless spans opened on ``thread``."""
        return sum(
            end - start
            for _sid, parent, _name, start, end, ident, _req in self.spans
            if not parent and ident == thread
        )

    def durations(self, name: str) -> List[float]:
        return [end - start for _s, _p, n, start, end, _t, _r in self.spans if n == name]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, then one line holding the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, ident, req in self.spans:
                handle.write(json.dumps({
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": self._thread_names.get(ident, str(ident)),
                    "request": req,
                }) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
