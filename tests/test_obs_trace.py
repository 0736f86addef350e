"""Tests for the span tracer."""

import asyncio
import contextvars
import threading

import pytest

from repro.obs.schema import validate_trace_file
from repro.obs.trace import NULL_SPAN, NullSpan, SpanTracer
from repro.util.simtime import SimClock


class TestNullSpan:
    def test_is_a_shared_noop_context(self):
        with NULL_SPAN as span:
            span["anything"] = 1
        assert isinstance(NULL_SPAN, NullSpan)
        # Re-enterable and stateless: the same instance serves everyone.
        with NULL_SPAN as again:
            assert again is NULL_SPAN

    def test_swallows_no_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_SPAN:
                raise RuntimeError("boom")


class TestSpanTracer:
    def test_records_name_trace_and_wall_time(self):
        tracer = SpanTracer()
        tracer.set_trace("first")
        with tracer.span("crawl.discovery", market="tencent"):
            pass
        (record,) = tracer.spans()
        assert record["name"] == "crawl.discovery"
        assert record["trace_id"] == "first"
        assert record["market"] == "tencent"
        assert record["status"] == "ok"
        assert record["wall_seconds"] >= 0
        assert record["parent_id"] is None

    def test_nesting_sets_parentage(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, recorded_outer = tracer.spans()
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer.span_id
        assert recorded_outer["parent_id"] is None

    def test_sim_clock_read_at_entry_and_exit(self):
        tracer = SpanTracer()
        clock = SimClock()
        start = clock.advance(2.0)
        with tracer.span("work", clock=clock):
            clock.advance(0.5)
        (record,) = tracer.spans()
        assert record["sim_start"] == start
        assert record["sim_end"] == start + 0.5

    def test_exception_sets_status_and_still_records(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("nope")
        (record,) = tracer.spans()
        assert record["status"] == "ValueError"

    def test_attrs_via_setitem_and_kwargs(self):
        tracer = SpanTracer()
        with tracer.span("s", path="/app") as span:
            span["records"] = 7
        (record,) = tracer.spans()
        assert record["attrs"] == {"path": "/app", "records": 7}

    def test_parentage_follows_the_context(self):
        tracer = SpanTracer()
        seen = {}

        def lane(key):
            with tracer.span("lane-root") as span:
                seen[key] = span.parent_id

        with tracer.span("main-root") as root:
            # A bare thread starts with an empty context: a root span.
            bare = threading.Thread(target=lane, args=("bare",))
            # A thread running a copy of this context nests under it.
            copied = threading.Thread(
                target=contextvars.copy_context().run, args=(lane, "copied")
            )
            for worker in (bare, copied):
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
        assert seen == {"bare": None, "copied": root.span_id}
        assert tracer.current_span() is None

    def test_interleaved_coroutines_do_not_mis_nest(self):
        tracer = SpanTracer()

        async def request(name, gate, other):
            with tracer.span(name) as span:
                gate.set()
                await other.wait()
                return span.parent_id

        async def lane():
            with tracer.span("lane") as lane_span:
                a, b = asyncio.Event(), asyncio.Event()
                parents = await asyncio.gather(
                    request("a", a, b), request("b", b, a)
                )
            return lane_span.span_id, parents

        lane_id, parents = asyncio.run(lane())
        assert parents == [lane_id, lane_id]
        # Each coroutine's span closed in its own task's context.
        assert [s["name"] for s in tracer.spans()][-1] == "lane"

    def test_events_attach_to_current_span(self):
        tracer = SpanTracer()
        with tracer.span("campaign") as span:
            tracer.event(
                "breaker.transition", market="oppo", sim_time=1.5,
                from_state="closed", to_state="open",
            )
        (event,) = tracer.events()
        assert event["span_id"] == span.span_id
        assert event["market"] == "oppo"
        assert event["sim_time"] == 1.5
        assert event["attrs"]["to_state"] == "open"

    def test_span_ids_unique_across_threads(self):
        tracer = SpanTracer()

        def burst():
            for _ in range(50):
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=burst) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [r["span_id"] for r in tracer.spans()]
        assert len(ids) == 200
        assert len(set(ids)) == 200

    def test_export_jsonl_is_schema_valid(self, tmp_path):
        tracer = SpanTracer()
        tracer.set_trace("t")
        with tracer.span("a", market="baidu", clock=SimClock()):
            tracer.event("e", sim_time=0.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        records = validate_trace_file(path)
        assert [r["kind"] for r in records] == ["event", "span"]
