"""Tests for artifact schemas and the run-report renderer."""

import json

import pytest

from repro.obs import Observability
from repro.obs.report import render_run_report
from repro.obs.schema import (
    SchemaError,
    validate_metrics_obj,
    validate_trace_obj,
)


def _span(**over) -> dict:
    doc = {
        "kind": "span", "trace_id": "t", "span_id": 1, "parent_id": None,
        "name": "s", "status": "ok", "wall_start": 1.0, "wall_seconds": 0.5,
        "sim_start": None, "sim_end": None,
    }
    doc.update(over)
    return doc


def _metric(**over) -> dict:
    doc = {"kind": "counter", "name": "m", "labels": {}, "value": 1.0}
    doc.update(over)
    return doc


class TestTraceSchema:
    def test_valid_span(self):
        validate_trace_obj(_span(market="baidu", attrs={"path": "/app"}))

    def test_valid_event(self):
        validate_trace_obj({
            "kind": "event", "trace_id": "t", "span_id": None, "name": "e",
            "wall_start": 1.0, "sim_time": 2.0,
        })

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            validate_trace_obj({"kind": "metric"})

    def test_missing_required_field(self):
        doc = _span()
        del doc["wall_seconds"]
        with pytest.raises(SchemaError, match="wall_seconds"):
            validate_trace_obj(doc)

    def test_wrong_type(self):
        with pytest.raises(SchemaError, match="span_id"):
            validate_trace_obj(_span(span_id="one"))

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError, match="wall_seconds"):
            validate_trace_obj(_span(wall_seconds=True))

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            validate_trace_obj(_span(extra=1))


class TestMetricsSchema:
    def test_valid_counter(self):
        validate_metrics_obj(_metric(labels={"market": "baidu"}))

    def test_valid_histogram(self):
        validate_metrics_obj(_metric(
            kind="histogram", count=3, buckets=[[0.1, 2], [1.0, 1]], overflow=0,
        ))

    def test_histogram_requires_buckets(self):
        with pytest.raises(SchemaError, match="histogram"):
            validate_metrics_obj(_metric(kind="histogram", count=3))

    def test_non_string_label_value(self):
        with pytest.raises(SchemaError, match="labels"):
            validate_metrics_obj(_metric(labels={"market": 3}))

    def test_bad_sample_pair(self):
        with pytest.raises(SchemaError, match="samples"):
            validate_metrics_obj(_metric(kind="gauge", samples=[[1.0]]))


class TestRenderRunReport:
    def _artifacts(self, tmp_path):
        """A tiny synthetic campaign, recorded then exported."""
        from repro.crawler.telemetry import CrawlTelemetry

        obs = Observability.from_flags(trace=True, metrics=True)
        obs.tracer.set_trace("first")
        telemetry = CrawlTelemetry(
            label="first", workers=4, registry=obs.metrics
        )
        lane = telemetry.market("baidu")
        with obs.span("crawl.discovery", market="baidu"):
            lane.requests += 12
            lane.records += 5
        telemetry.market("oppo").health = "degraded"
        telemetry.wall_seconds = 2.0
        obs.event(
            "breaker.transition", market="oppo", sim_time=1.0,
            from_state="closed", to_state="open", trips=4, quarantined=True,
        )
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        obs.export_trace(trace)
        obs.export_metrics(metrics)
        return trace, metrics, telemetry

    def test_metrics_section_reproduces_stats_report(self, tmp_path):
        _, metrics, telemetry = self._artifacts(tmp_path)
        report = render_run_report(metrics_path=metrics)
        # The artifact re-renders through the same view class: the
        # operator table appears verbatim, byte for byte.
        assert telemetry.stats_report() in report

    def test_trace_section_summarizes_spans_and_transitions(self, tmp_path):
        trace, _, _ = self._artifacts(tmp_path)
        report = render_run_report(trace_path=trace)
        assert "crawl.discovery" in report
        assert "breaker transitions:" in report
        assert "oppo: closed -> open (trip 4) QUARANTINED" in report

    def test_campaigns_are_traces_holding_a_crawl_campaign_span(self, tmp_path):
        from repro.obs.report import _trace_section

        def span(span_id, trace_id, name):
            return {"kind": "span", "trace_id": trace_id, "span_id": span_id,
                    "parent_id": None, "name": name, "status": "ok",
                    "wall_start": 0.0, "wall_seconds": 0.1}

        records = [
            span(1, "run", "stage.ecosystem"),
            span(2, "first", "crawl.campaign"),
            span(3, "first", "stage.report"),
            span(4, "second", "crawl.campaign"),
        ]
        assert _trace_section(records)[0] == "trace: 4 records, campaigns: first, second"
        assert _trace_section(records[:1])[0] == "trace: 1 records, campaigns: none"

    def test_requires_at_least_one_artifact(self):
        with pytest.raises(ValueError):
            render_run_report()

    def test_invalid_artifact_fails_loudly(self, tmp_path):
        bad = tmp_path / "trace.jsonl"
        bad.write_text(json.dumps({"kind": "span"}) + "\n")
        with pytest.raises(SchemaError):
            render_run_report(trace_path=bad)
