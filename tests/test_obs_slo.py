"""Tests for the SLO rule engine and the metrics diff over metrics files."""

import io
import json

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import SchemaError, validate_metrics_file, validate_metrics_obj
from repro.obs.slo import (
    FAIL,
    PASS,
    RULE_KINDS,
    SKIP,
    SloError,
    check_metrics,
    check_passed,
    diff_metrics,
    is_timing_metric,
    load_rules,
    render_check_report,
    render_diff,
)


def _write_metrics(path, wall=1.5, records=100, dead_letters=0):
    registry = MetricsRegistry()
    registry.counter(
        "crawl_requests_total", campaign="first", market="baidu"
    ).inc(200)
    registry.counter(
        "crawl_records_total", campaign="first", market="baidu"
    ).inc(records)
    registry.counter(
        "crawl_dead_letters_total", campaign="first", market="baidu"
    ).inc(dead_letters)
    registry.counter("crawl_wall_seconds", campaign="first").inc(wall)
    hist = registry.histogram(
        "http_request_wall_seconds", buckets=(0.001, 0.01, 0.1), market="baidu"
    )
    for value in (0.0005, 0.0005, 0.005, 0.05):
        hist.observe(value)
    registry.export_jsonl(path)
    return path


def _metrics(tmp_path, tag, **kwargs):
    return validate_metrics_file(
        _write_metrics(tmp_path / f"metrics-{tag}.jsonl", **kwargs)
    )


class TestTimingClassifier:
    def test_wall_series_are_timing(self):
        assert is_timing_metric("crawl_wall_seconds")
        assert is_timing_metric("http_request_wall_seconds")

    def test_counters_are_deterministic(self):
        assert not is_timing_metric("crawl_requests_total")
        assert not is_timing_metric("monitor_heartbeats_total")


class TestDiff:
    def test_same_config_runs_diff_clean(self, tmp_path):
        diff = diff_metrics(
            _metrics(tmp_path, "a", wall=1.5), _metrics(tmp_path, "b", wall=1.8)
        )
        assert diff["clean"]
        assert not diff["mismatches"]
        timing = {row["name"]: row for row in diff["timing"]}
        assert "crawl_wall_seconds" in timing
        assert timing["crawl_wall_seconds"]["ratio"] == pytest.approx(1.2)
        text = render_diff(diff, "a.jsonl", "b.jsonl")
        assert "clean: all deterministic series match" in text
        assert "crawl_wall_seconds: 1.5 -> 1.8 (1.2x)" in text

    def test_behavioral_divergence_is_flagged(self, tmp_path):
        diff = diff_metrics(
            _metrics(tmp_path, "a", records=100),
            _metrics(tmp_path, "b", records=150),
        )
        assert not diff["clean"]
        assert any(
            row["name"] == "crawl_records_total"
            for row in diff["mismatches"]
        )
        assert "DIVERGED" in render_diff(diff, "a.jsonl", "b.jsonl")

    def test_render_is_deterministic(self, tmp_path):
        a = _metrics(tmp_path, "a", wall=1.5)
        b = _metrics(tmp_path, "b", wall=1.8)
        first = render_diff(diff_metrics(a, b), "a.jsonl", "b.jsonl")
        second = render_diff(diff_metrics(a, b), "a.jsonl", "b.jsonl")
        assert first == second


RULES_TOML = """
[[rule]]
name = "p99-latency"
kind = "quantile_max"
metric = "http_request_wall_seconds"
quantile = 0.99
max = 0.5

[[rule]]
name = "dead-letter-rate"
kind = "ratio_max"
numerator = "crawl_dead_letters_total"
denominator = "crawl_requests_total"
max = 0.05

[[rule]]
name = "min-records"
kind = "counter_min"
metric = "crawl_records_total"
min = 50

[[rule]]
name = "no-such-metric"
kind = "quantile_max"
metric = "never_recorded_seconds"
quantile = 0.5
max = 1.0
"""


def _rules(tmp_path, text=RULES_TOML):
    path = tmp_path / "slo.toml"
    path.write_text(text)
    return load_rules(path)


class TestSloRules:
    def test_load_validates(self, tmp_path):
        rules = _rules(tmp_path)
        assert [r.name for r in rules] == [
            "p99-latency", "dead-letter-rate", "min-records",
            "no-such-metric",
        ]

    def test_load_rejects_bad_files(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("not toml [[[")
        with pytest.raises(SloError):
            load_rules(path)
        path.write_text("x = 1")
        with pytest.raises(SloError):
            load_rules(path)
        path.write_text('[[rule]]\nname = "a"\nkind = "nope"\n')
        with pytest.raises(SloError):
            load_rules(path)
        path.write_text(
            '[[rule]]\nname = "a"\nkind = "regression_max"\n'
            'metric = "m"\nmax_ratio = 2.0\n'
        )
        with pytest.raises(SloError):
            load_rules(path)  # no run history to regress against
        path.write_text('[[rule]]\nname = "a"\nkind = "counter_max"\n')
        with pytest.raises(SloError):
            load_rules(path)  # missing metric/max
        path.write_text(
            '[[rule]]\nname = "a"\nkind = "counter_max"\n'
            'metric = "m"\nmax = 1\n'
            '[[rule]]\nname = "a"\nkind = "counter_max"\n'
            'metric = "m"\nmax = 1\n'
        )
        with pytest.raises(SloError):
            load_rules(path)  # duplicate name

    def test_healthy_run_passes(self, tmp_path):
        results = check_metrics(_metrics(tmp_path, "a"), _rules(tmp_path))
        by_name = {r.rule.name: r for r in results}
        assert by_name["p99-latency"].status == PASS
        assert by_name["p99-latency"].value == 0.1
        assert by_name["dead-letter-rate"].status == PASS
        assert by_name["min-records"].status == PASS
        # A histogram the run never recorded: SKIP.
        assert by_name["no-such-metric"].status == SKIP
        assert check_passed(results)

    def test_breach_fails_with_named_rule(self, tmp_path):
        # 20/200 dead letters: 10% > the 5% bound.
        results = check_metrics(
            _metrics(tmp_path, "a", dead_letters=20), _rules(tmp_path)
        )
        by_name = {r.rule.name: r for r in results}
        assert by_name["dead-letter-rate"].status == FAIL
        assert not check_passed(results)
        report = render_check_report(results, "metrics-a.jsonl")
        assert report.startswith("slo check: metrics-a.jsonl\n")
        assert "BREACH: dead-letter-rate" in report

    def test_report_is_byte_identical(self, tmp_path):
        path = _write_metrics(tmp_path / "m.jsonl", dead_letters=20)
        first = render_check_report(
            check_metrics(validate_metrics_file(path), _rules(tmp_path)),
            str(path),
        )
        # A fresh read of the same bytes: same report.
        second = render_check_report(
            check_metrics(
                validate_metrics_file(path), load_rules(tmp_path / "slo.toml")
            ),
            str(path),
        )
        assert first == second

    def test_repo_slo_file_is_valid(self):
        from pathlib import Path

        rules = load_rules(Path(__file__).parent.parent / "slo.toml")
        assert any(r.kind == "quantile_max" for r in rules)
        assert {r.kind for r in rules} <= set(RULE_KINDS)


P99_RULES = """
[[rule]]
name = "p99"
kind = "quantile_max"
metric = "http_request_wall_seconds"
quantile = 0.99
max = 0.1
"""


def _histogram_line(bounds_counts, count, labels):
    return json.dumps({
        "kind": "histogram", "name": "http_request_wall_seconds",
        "labels": labels, "value": 0.0, "count": count,
        "buckets": [list(pair) for pair in bounds_counts], "overflow": 0,
    })


class TestHistogramQuantile:
    """A metrics file is outside input to the gate: a quantile must come
    from what its buckets hold, over one set of bounds."""

    def test_population_comes_from_buckets_not_count(self, tmp_path):
        # ``count`` says 1, but 1,000 of the 1,001 bucketed observations
        # took 10 s: p99 is 10 s and the gate fails.
        path = tmp_path / "m.jsonl"
        path.write_text(
            _histogram_line([(0.001, 1), (10.0, 1000)], 1, {"market": "a"})
            + "\n"
        )
        (result,) = check_metrics(
            validate_metrics_file(path), _rules(tmp_path, P99_RULES)
        )
        assert result.value == 10.0
        assert result.status == FAIL

    def test_differing_bounds_are_an_artifact_error(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text(
            _histogram_line([(0.001, 10), (0.01, 0)], 10, {"market": "a"})
            + "\n"
            + _histogram_line([(1.0, 0), (10.0, 10)], 10, {"market": "b"})
            + "\n"
        )
        with pytest.raises(SchemaError, match="http_request_wall_seconds"):
            check_metrics(validate_metrics_file(path), _rules(tmp_path, P99_RULES))
        rules = tmp_path / "slo.toml"
        assert main(
            ["obs", "check", str(path), "--rules", str(rules)],
            out=io.StringIO(),
        ) == 2
        assert "http_request_wall_seconds" in capsys.readouterr().err

    def test_unsorted_bounds_are_refused(self):
        obj = json.loads(
            _histogram_line([(10.0, 1), (0.001, 1)], 2, {"market": "a"})
        )
        with pytest.raises(SchemaError, match="sorted"):
            validate_metrics_obj(obj)

    def test_negative_bucket_counts_are_refused(self):
        # A negative bucket would pull the population under the 1,000
        # observations at <= 10 s and read p99 = 0.001.
        obj = json.loads(_histogram_line(
            [(0.001, 1000), (10.0, 1000), (100.0, -1000)], 1000,
            {"market": "a"},
        ))
        with pytest.raises(SchemaError, match="non-negative"):
            validate_metrics_obj(obj)
