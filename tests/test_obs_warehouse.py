"""Tests for the run warehouse and the SLO rule engine."""

import pytest

from repro.core.config import StudyConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs import Observability
from repro.obs.schema import SchemaError
from repro.obs.slo import (
    FAIL,
    PASS,
    SKIP,
    SloError,
    check_passed,
    check_run,
    load_rules,
    render_check_report,
)
from repro.obs.trace import SpanTracer
from repro.obs.warehouse import (
    RETIRED_FIELD_DEFAULTS,
    RUN_SCHEMA,
    RunWarehouse,
    WarehouseError,
    config_fingerprint,
    is_timing_metric,
    robust_score,
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


def _write_trace(path):
    tracer = SpanTracer()
    tracer.set_trace("first")
    with tracer.span("crawl.campaign"):
        with tracer.span("crawl.discovery", market="baidu"):
            pass
        tracer.event("breaker.transition", market="baidu", sim_time=1.0)
    tracer.export_jsonl(path)
    return path


def _write_profile(path):
    obs = Observability(profile=True)
    with obs.stage("ecosystem"):
        pass
    with obs.stage("crawl.first"):
        pass
    obs.export_profile(path)
    return path


def _meta(seed=7, wall_marker=0):
    """A run manifest; ``wall_marker`` only distinguishes artifact bytes."""
    return {
        "schema": RUN_SCHEMA,
        "label": f"study-seed{seed}",
        "seed": seed,
        "scale": 0.001,
        "config": {"seed": seed, "scale": 0.001, "download_apks": True,
                   "crawl_workers": 1 + wall_marker},
        "digests": {"snapshot": 12345},
    }


def _ingest(warehouse, tmp_path, tag, seed=7, wall=1.5, records=100,
            dead_letters=0):
    metrics = _write_metrics(
        tmp_path / f"metrics-{tag}.jsonl", wall=wall, records=records,
        dead_letters=dead_letters,
    )
    trace = _write_trace(tmp_path / f"trace-{tag}.jsonl")
    profile = _write_profile(tmp_path / f"profile-{tag}.jsonl")
    return warehouse.ingest_run(
        meta=_meta(seed=seed), metrics=metrics, trace=trace, profile=profile,
    )


class TestConfigFingerprint:
    def test_digest_invariant_fields_do_not_change_it(self):
        base = StudyConfig(seed=7, scale=0.001)
        wide = StudyConfig(
            seed=7, scale=0.001, workers=8,
            store_backend="sqlite", monitor=True,
            monitor_interval=0.5, stall_budget=2.0, profile=True,
            trace_out="t.jsonl", metrics_out="m.jsonl",
        )
        assert config_fingerprint(base) == config_fingerprint(wide)

    def test_behavior_fields_change_it(self):
        base = StudyConfig(seed=7, scale=0.001)
        assert config_fingerprint(base) != config_fingerprint(
            StudyConfig(seed=8, scale=0.001)
        )
        assert config_fingerprint(base) != config_fingerprint(
            StudyConfig(seed=7, scale=0.001, hostility="full", identity_pool=4)
        )

    def test_accepts_plain_mapping(self):
        config = StudyConfig(seed=7, scale=0.001)
        from dataclasses import asdict

        assert config_fingerprint(asdict(config)) == config_fingerprint(config)

    def test_manifest_with_removed_engine_fields_matches_today(self):
        # Manifests written while the asyncio crawl engine existed carry
        # its two config fields; they must land on the same fingerprint.
        config = StudyConfig(seed=7, scale=0.001)
        from dataclasses import asdict

        legacy = {**asdict(config), "crawl_engine": "asyncio", "crawl_pipeline": 8}
        assert config_fingerprint(legacy) == config_fingerprint(config)

    def test_manifest_with_split_widths_and_constant_fields_matches_today(self):
        # Manifests written before the two worker widths became
        # ``workers`` and four fields became module constants carry the
        # two widths and the retired fields at their old defaults.  The
        # literal was computed before either change.
        config = StudyConfig(seed=7, scale=0.001, workers=8)
        from dataclasses import asdict

        legacy = {
            k: v for k, v in asdict(config).items() if k != "workers"
        }
        legacy.update(RETIRED_FIELD_DEFAULTS, crawl_workers=8, analysis_workers=4)
        assert config_fingerprint(legacy) == config_fingerprint(config)
        assert config_fingerprint(config) == "b06a4bc68add923c"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            config_fingerprint(42)


#: A fixed artifact set: its bytes, not a writer's output, are what the
#: run id hashes, so it is spelled out literally.  The profile is in the
#: older layout that still carried a ``peak_bytes`` per stage.
PIN_META = {
    "schema": RUN_SCHEMA, "label": "study-seed7", "seed": 7, "scale": 0.001,
    "config": {"seed": 7, "scale": 0.001, "download_apks": True,
               "crawl_workers": 1},
    "digests": {"snapshot": 12345},
}
PIN_METRICS = (
    '{"kind":"counter","name":"crawl_records_total",'
    '"labels":{"campaign":"first","market":"baidu"},"value":100.0}\n'
    '{"kind":"counter","name":"crawl_wall_seconds",'
    '"labels":{"campaign":"first"},"value":1.5}\n'
)
PIN_TRACE = (
    '{"kind":"span","trace_id":"first","span_id":1,"parent_id":null,'
    '"name":"crawl.campaign","status":"ok","wall_start":100.0,'
    '"wall_seconds":0.25,"sim_start":null,"sim_end":null}\n'
    '{"kind":"event","trace_id":"first","span_id":1,'
    '"name":"breaker.transition","wall_start":100.1,"sim_time":1.0,'
    '"market":"baidu"}\n'
)
PIN_PROFILE = (
    '{"kind":"stage","name":"ecosystem","wall_seconds":0.5,'
    '"peak_bytes":0,"depth":0}\n'
    '{"kind":"stage","name":"crawl.first","wall_seconds":1.5,'
    '"peak_bytes":0,"depth":0}\n'
)


class TestWarehouseKeyPins:
    """The warehouse's keys are history: a run id or fingerprint that
    moves puts every later run on a different baseline.  The literals
    were computed before bench artifacts and the ``fault_plan`` /
    ``market_hostility`` config fields were removed."""

    def test_run_id_of_fixed_artifacts(self, tmp_path):
        paths = {}
        for name, text in (("metrics", PIN_METRICS), ("trace", PIN_TRACE),
                           ("profile", PIN_PROFILE)):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(text)
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            manifest = warehouse.ingest_run(meta=PIN_META, **paths)
        assert manifest["run_id"] == "229a4fca8cbb1cbb"

    def test_manifest_with_retired_fault_fields(self):
        from dataclasses import asdict

        config = StudyConfig(seed=7, scale=0.001)
        legacy = {**asdict(config), "fault_plan": None, "market_hostility": None}
        assert config_fingerprint(legacy) == "b06a4bc68add923c"
        assert config_fingerprint(config) == "b06a4bc68add923c"

    def test_default_config(self):
        assert config_fingerprint(StudyConfig()) == "b9a9680e1e0385c5"


class TestTimingClassifier:
    def test_wall_series_are_timing(self):
        assert is_timing_metric("crawl_wall_seconds")
        assert is_timing_metric("http_request_wall_seconds")

    def test_counters_are_deterministic(self):
        assert not is_timing_metric("crawl_requests_total")
        assert not is_timing_metric("monitor_heartbeats_total")


class TestIngest:
    def test_ingest_and_query(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            manifest = _ingest(warehouse, tmp_path, "a")
            assert manifest["created"]
            assert manifest["label"] == "study-seed7"
            assert manifest["fingerprint"]
            assert manifest["counts"]["metrics"] > 0
            assert manifest["counts"]["stages"] == 2
            assert warehouse.metric_total(
                manifest["run_id"], "crawl_requests_total"
            ) == 200
            assert set(warehouse.stage_walls(manifest["run_id"])) == {
                "ecosystem", "crawl.first"
            }

    def test_reingest_identical_artifacts_dedups(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            metrics = _write_metrics(tmp_path / "m.jsonl")
            first = warehouse.ingest_run(meta=_meta(), metrics=metrics)
            again = warehouse.ingest_run(meta=_meta(), metrics=metrics)
            assert first["created"]
            assert not again["created"]
            assert again["run_id"] == first["run_id"]
            assert len(warehouse.runs()) == 1

    def test_rejects_unknown_meta_schema(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            with pytest.raises(SchemaError):
                warehouse.ingest_run(meta={"schema": "repro.run/99"})


class TestRunRefs:
    def test_negative_index_prefix_and_label(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            a = _ingest(warehouse, tmp_path, "a", wall=1.5)
            b = _ingest(warehouse, tmp_path, "b", wall=1.7)
            assert warehouse.run("-1")["run_id"] == b["run_id"]
            assert warehouse.run("-2")["run_id"] == a["run_id"]
            assert warehouse.run(a["run_id"][:8])["run_id"] == a["run_id"]
            # A label resolves to its most recent run.
            assert warehouse.run("study-seed7")["run_id"] == b["run_id"]

    def test_bad_refs_raise(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            with pytest.raises(WarehouseError):
                warehouse.run("-1")  # empty warehouse
            _ingest(warehouse, tmp_path, "a", wall=1.5)
            _ingest(warehouse, tmp_path, "b", wall=1.7)
            with pytest.raises(WarehouseError):
                warehouse.run("no-such-run")
            with pytest.raises(WarehouseError):
                warehouse.run("-3")


class TestDiff:
    def test_same_config_runs_diff_clean(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            _ingest(warehouse, tmp_path, "a", wall=1.5)
            _ingest(warehouse, tmp_path, "b", wall=1.8)
            diff = warehouse.diff("-2", "-1")
            assert diff["clean"]
            assert diff["same_fingerprint"]
            assert not diff["mismatches"]
            timing = {row["name"] for row in diff["timing"]}
            assert "crawl_wall_seconds" in timing
            text = RunWarehouse.render_diff(diff)
            assert "clean: all deterministic series match" in text

    def test_behavioral_divergence_is_flagged(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            _ingest(warehouse, tmp_path, "a", records=100)
            _ingest(warehouse, tmp_path, "b", records=150)
            diff = warehouse.diff("-2", "-1")
            assert not diff["clean"]
            assert any(
                row["name"] == "crawl_records_total"
                for row in diff["mismatches"]
            )
            assert "DIVERGED" in RunWarehouse.render_diff(diff)

    def test_render_is_deterministic(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            _ingest(warehouse, tmp_path, "a", wall=1.5)
            _ingest(warehouse, tmp_path, "b", wall=1.8)
            first = RunWarehouse.render_diff(warehouse.diff("-2", "-1"))
            second = RunWarehouse.render_diff(warehouse.diff("-2", "-1"))
            assert first == second


class TestRobustScore:
    def test_scores_against_history(self):
        history = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert robust_score(1.0, history) == pytest.approx(0.0)
        assert robust_score(3.0, history) > 3
        assert robust_score(1.0, []) is None

    def test_flat_history_falls_back_to_relative_unit(self):
        assert robust_score(1.2, [1.0, 1.0, 1.0]) == pytest.approx(2.0)


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
name = "wall-regression"
kind = "regression_max"
metric = "crawl_wall_seconds"
max_ratio = 1.5
min_history = 3
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
            "wall-regression",
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
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            _ingest(warehouse, tmp_path, "a")
            results, manifest = check_run(warehouse, _rules(tmp_path))
            by_name = {r.rule.name: r for r in results}
            assert by_name["p99-latency"].status == PASS
            assert by_name["dead-letter-rate"].status == PASS
            assert by_name["min-records"].status == PASS
            # Not enough history: SKIP.
            assert by_name["wall-regression"].status == SKIP
            assert check_passed(results)

    def test_breach_fails_with_named_rule(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            # 20/200 dead letters: 10% > the 5% bound.
            _ingest(warehouse, tmp_path, "a", dead_letters=20)
            results, manifest = check_run(warehouse, _rules(tmp_path))
            by_name = {r.rule.name: r for r in results}
            assert by_name["dead-letter-rate"].status == FAIL
            assert not check_passed(results)
            report = render_check_report(results, manifest)
            assert "BREACH: dead-letter-rate" in report

    def test_regression_engages_with_history(self, tmp_path):
        with RunWarehouse(tmp_path / "wh.sqlite") as warehouse:
            for tag, wall in (("a", 1.0), ("b", 1.1), ("c", 0.9)):
                _ingest(warehouse, tmp_path, tag, wall=wall)
            # A 3x slowdown against a ~1.0s median baseline.
            _ingest(warehouse, tmp_path, "slow", wall=3.0)
            results, _ = check_run(warehouse, _rules(tmp_path))
            by_name = {r.rule.name: r for r in results}
            assert by_name["wall-regression"].status == FAIL
            assert by_name["wall-regression"].value == pytest.approx(3.0)

    def test_report_is_byte_identical(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        with RunWarehouse(db) as warehouse:
            _ingest(warehouse, tmp_path, "a", dead_letters=20)
            rules = _rules(tmp_path)
            results, manifest = check_run(warehouse, rules)
            first = render_check_report(results, manifest)
        # A fresh warehouse handle over the same bytes: same report.
        with RunWarehouse(db) as warehouse:
            results, manifest = check_run(warehouse, load_rules(tmp_path / "slo.toml"))
            second = render_check_report(results, manifest)
        assert first == second

    def test_repo_slo_file_is_valid(self):
        from pathlib import Path

        rules = load_rules(Path(__file__).parent.parent / "slo.toml")
        assert any(r.kind == "quantile_max" for r in rules)
        assert any(r.kind == "regression_max" for r in rules)
