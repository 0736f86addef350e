"""Tests for stage profiling: stages are ``stage.*`` spans."""

import tracemalloc
from types import SimpleNamespace

import pytest

from repro.crawler.telemetry import CrawlTelemetry
from repro.obs import Observability
from repro.obs.profiler import render_profile


def _profiled() -> Observability:
    return Observability(profile=True)


def _rows(obs):
    return [(r["name"], r["depth"]) for r in obs.stage_rows()]


class TestStageProfiler:
    def test_records_wall_time_per_stage(self):
        obs = _profiled()
        with obs.stage("ecosystem"):
            pass
        with obs.stage("crawl"):
            pass
        assert [r["name"] for r in obs.stage_rows()] == ["ecosystem", "crawl"]
        assert all(r["wall_seconds"] >= 0 for r in obs.stage_rows())
        assert [s["name"] for s in obs.stage_tracer.spans()] == [
            "stage.ecosystem", "stage.crawl",
        ]

    def test_nested_stage_depth(self):
        obs = _profiled()
        with obs.stage("outer"):
            with obs.stage("inner"):
                pass
        assert _rows(obs) == [("inner", 1), ("outer", 0)]

    def test_profile_flag_is_wall_only(self):
        obs = Observability.from_flags(profile=True)
        with obs.stage("crawl"):
            assert not tracemalloc.is_tracing()
        (record,) = obs.stage_rows()
        assert set(record) == {"name", "wall_seconds", "depth"}

    def test_stage_exception_still_records(self):
        obs = _profiled()
        with pytest.raises(ValueError):
            with obs.stage("doomed"):
                raise ValueError("nope")
        assert [r["name"] for r in obs.stage_rows()] == ["doomed"]
        (span,) = obs.stage_tracer.spans()
        assert span["status"] == "ValueError"

    def test_pool_thread_stage_nests_under_run_all_without_peaks(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_REGISTRY", {
            "alpha": lambda result: object(), "beta": lambda result: object(),
        })
        monkeypatch.setattr(runner, "EXPERIMENT_IDS", ("alpha", "beta"))
        obs = _profiled()
        result = SimpleNamespace(
            obs=obs,
            materialize=lambda: None,
            snapshot=SimpleNamespace(degraded_markets=lambda: []),
        )
        with obs.stage("report"):
            runner.run_all(result, workers=2)
        rows = {r["name"]: r for r in obs.stage_rows()}
        spans = {s["name"]: s for s in obs.stage_tracer.spans()}
        run_all_id = spans["stage.experiments.run_all"]["span_id"]
        assert rows["experiments.run_all"]["depth"] == 1
        for exp_id in ("alpha", "beta"):
            assert spans[f"stage.experiment.{exp_id}"]["parent_id"] == run_all_id
            assert rows[f"experiment.{exp_id}"]["depth"] == 2


class TestReport:
    def test_empty(self):
        assert "no stages" in _profiled().profile_report()
        assert "no stages" in render_profile([])

    def test_report_table_and_critical_path(self):
        obs = _profiled()
        with obs.stage("fast"):
            pass
        with obs.stage("slow"):
            total = sum(range(200_000))
            assert total > 0
        report = obs.profile_report()
        assert "stage profile" in report
        assert "fast" in report and "slow" in report
        assert "critical path: slowest stage 'slow'" in report
        # Stages are wall-only: the table has no memory column.
        assert "peak" not in report

    def test_critical_path_ignores_nested_stages(self):
        obs = _profiled()
        with obs.stage("outer"):
            with obs.stage("inner"):
                total = sum(range(100_000))
                assert total > 0
        report = obs.profile_report()
        # inner's time is inside outer's; only outer competes.
        assert "slowest stage 'outer'" in report

    def test_slowest_lane_from_telemetry(self):
        obs = _profiled()
        with obs.stage("crawl"):
            pass
        telemetry = CrawlTelemetry(label="t")
        quick = telemetry.market("oppo")
        quick.requests, quick.sim_days_backoff = 10, 0.5
        slow = telemetry.market("google_play")
        slow.requests, slow.sim_days_backoff, slow.sim_days_paced = 90, 1.5, 0.75
        report = obs.profile_report(telemetry)
        assert "slowest lane:  'google_play' waited 2.2500 sim days" in report
        assert "over 90 requests" in report

    def test_report_without_telemetry_has_no_lane_line(self):
        obs = _profiled()
        with obs.stage("crawl"):
            pass
        assert "slowest lane" not in obs.profile_report()
