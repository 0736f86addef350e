"""Tests for the command-line interface."""

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENT_IDS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 42
        assert args.scale == 0.001
        assert not args.no_apks

    def test_experiment_ids_collected(self):
        args = build_parser().parse_args(["experiment", "table4", "figure9"])
        assert args.ids == ["table4", "figure9"]

    def test_observability_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace_out is None
        assert args.metrics_out is None
        assert not args.profile

    def test_observability_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--trace-out", "t.jsonl", "--metrics-out", "m.jsonl",
             "--profile"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.jsonl"
        assert args.profile

    def test_run_report_artifact_paths(self):
        args = build_parser().parse_args(
            ["run-report", "--trace", "t.jsonl", "--metrics", "m.jsonl"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics == "m.jsonl"

    def test_monitor_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert not args.monitor
        assert args.monitor_interval == 1.0
        assert args.stall_budget == 5.0
        assert args.profile_out is None
        assert args.run_meta is None

    def test_monitor_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--monitor", "--monitor-interval", "0.5",
             "--stall-budget", "10", "--profile-out", "p.jsonl",
             "--run-meta", "r.json"]
        )
        assert args.monitor
        assert args.monitor_interval == 0.5
        assert args.stall_budget == 10.0
        assert args.profile_out == "p.jsonl"
        assert args.run_meta == "r.json"

    def test_serving_flags_default_to_fast_path(self):
        args = build_parser().parse_args(["run"])
        assert args.transport == "inprocess"

    def test_serving_flags_parse(self):
        args = build_parser().parse_args(["run", "--transport", "socket"])
        assert args.transport == "socket"

    def test_transport_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--transport", "carrier-pigeon"])

    def test_obs_defaults(self):
        args = build_parser().parse_args(["obs", "diff", "a", "b"])
        assert args.db == "warehouse.sqlite"
        assert not args.strict
        args = build_parser().parse_args(["obs", "check"])
        assert args.rules == "slo.toml"
        assert args.run == "-1"
        args = build_parser().parse_args(["obs", "flame", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert args.out is None


class TestCommands:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        listed = out.getvalue().split()
        assert listed == list(EXPERIMENT_IDS)

    def test_markets(self):
        out = io.StringIO()
        assert main(["markets"], out=out) == 0
        text = out.getvalue()
        assert "Google Play" in text
        assert "Tencent Myapp" in text
        assert text.count("\n") >= 18

    def test_run_metadata_only(self):
        out = io.StringIO()
        code = main(["run", "--scale", "0.0002", "--no-apks", "--seed", "5"],
                    out=out)
        assert code == 0
        assert "listings" in out.getvalue()

    def test_run_over_socket_transport(self):
        out = io.StringIO()
        code = main(
            ["run", "--scale", "0.0002", "--no-apks", "--seed", "5",
             "--transport", "socket"],
            out=out,
        )
        assert code == 0
        assert "listings" in out.getvalue()

    def test_experiment_unknown_id(self):
        out = io.StringIO()
        assert main(["experiment", "table99", "--scale", "0.0002"], out=out) == 2

    def test_experiment_renders(self):
        out = io.StringIO()
        code = main(
            ["experiment", "figure9", "--scale", "0.0002", "--no-apks",
             "--seed", "5"],
            out=out,
        )
        assert code == 0
        assert "figure9" in out.getvalue()

    def test_report_writes_file(self, tmp_path):
        out = io.StringIO()
        target = tmp_path / "EXP.md"
        code = main(
            ["report", "--scale", "0.0002", "--no-apks", "--seed", "5",
             "--output", str(target)],
            out=out,
        )
        assert code == 0
        content = target.read_text()
        assert "## figure9" in content
        assert "## table1" in content


class TestObservabilityCommands:
    def _traced_run(self, tmp_path, extra=()):
        out = io.StringIO()
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["run", "--scale", "0.0002", "--no-apks", "--seed", "5",
             "--trace-out", str(trace), "--metrics-out", str(metrics),
             *extra],
            out=out,
        )
        return code, out.getvalue(), trace, metrics

    def test_traced_run_writes_artifacts(self, tmp_path):
        from repro.obs.schema import validate_metrics_file, validate_trace_file

        code, text, trace, metrics = self._traced_run(tmp_path)
        assert code == 0
        assert f"wrote {trace}" in text
        assert f"wrote {metrics}" in text
        assert len(validate_trace_file(trace)) > 0
        assert len(validate_metrics_file(metrics)) > 0

    def test_profile_prints_stage_report(self, tmp_path):
        code, text, _, _ = self._traced_run(tmp_path, extra=["--profile"])
        assert code == 0
        assert "stage profile" in text
        assert "critical path" in text

    def test_run_report_renders_campaign_table(self, tmp_path):
        code, _, trace, metrics = self._traced_run(tmp_path)
        assert code == 0
        out = io.StringIO()
        code = main(
            ["run-report", "--trace", str(trace), "--metrics", str(metrics)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "crawl telemetry [first]" in text
        assert "records, campaigns: first" in text
        assert "crawl.campaign" in text

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_old_journal_format_is_one_line_error(self, command, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal.json").write_text(
            '{"format": "repro-crawl-journal", "version": 2}'
        )
        argv = [command, "--scale", "0.0002", "--no-apks",
                "--checkpoint-dir", str(ckpt), "--resume"]
        if command == "report":
            argv += ["--output", str(tmp_path / "EXPERIMENTS.md")]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert str(ckpt) in err and "delete it" in err

    def test_run_report_requires_an_artifact(self):
        assert main(["run-report"], out=io.StringIO()) == 2

    def test_run_report_rejects_bad_artifact(self, tmp_path):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"kind":"span","name":"x"}\n')
        assert main(["run-report", "--trace", str(bad)], out=io.StringIO()) == 1

    def test_run_report_missing_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["run-report", "--trace", str(missing)],
                    out=io.StringIO()) == 1
        # The error names the artifact and the failure class, not just
        # a bare strerror.
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "FileNotFoundError" in err


class TestObsCommands:
    REPO_SLO = str(Path(__file__).resolve().parents[1] / "slo.toml")

    def _full_run(self, tmp_path, tag="a", seed=5):
        out = io.StringIO()
        paths = {
            kind: tmp_path / f"{kind}-{tag}.jsonl"
            for kind in ("trace", "metrics", "profile")
        }
        meta = tmp_path / f"run-{tag}.json"
        code = main(
            ["run", "--scale", "0.0002", "--no-apks", "--seed", str(seed),
             "--monitor",
             "--trace-out", str(paths["trace"]),
             "--metrics-out", str(paths["metrics"]),
             "--profile-out", str(paths["profile"]),
             "--run-meta", str(meta)],
            out=out,
        )
        assert code == 0, out.getvalue()
        return paths, meta

    def _ingest(self, db, paths, meta):
        out = io.StringIO()
        code = main(
            ["obs", "ingest", "--db", str(db), "--meta", str(meta),
             "--metrics", str(paths["metrics"]),
             "--trace", str(paths["trace"]),
             "--profile", str(paths["profile"])],
            out=out,
        )
        return code, out.getvalue()

    def test_monitored_run_exports_everything(self, tmp_path):
        import json

        paths, meta = self._full_run(tmp_path)
        for path in paths.values():
            assert path.exists()
        manifest = json.loads(meta.read_text())
        assert manifest["schema"] == "repro.run/1"
        assert manifest["seed"] == 5
        assert "snapshot" in manifest["digests"]
        assert manifest["artifacts"]["trace"] == str(paths["trace"])

    def test_ingest_runs_diff_check_end_to_end(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        paths_a, meta_a = self._full_run(tmp_path, tag="a")
        paths_b, meta_b = self._full_run(tmp_path, tag="b")

        code, text = self._ingest(db, paths_a, meta_a)
        assert code == 0 and "ingested" in text
        code, text = self._ingest(db, paths_b, meta_b)
        assert code == 0

        out = io.StringIO()
        assert main(["obs", "runs", "--db", str(db)], out=out) == 0
        assert "study-seed5" in out.getvalue()

        # Two runs of the same seed/config: identical deterministic
        # series, strict diff passes.
        out = io.StringIO()
        code = main(
            ["obs", "diff", "--db", str(db), "--strict", "--", "-2", "-1"],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "clean: all deterministic series match" in out.getvalue()

        out = io.StringIO()
        code = main(
            ["obs", "check", "--db", str(db), "--rules", self.REPO_SLO],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "BREACH" not in out.getvalue()

    def test_reingest_is_a_noop(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        paths, meta = self._full_run(tmp_path)
        assert self._ingest(db, paths, meta)[0] == 0
        code, text = self._ingest(db, paths, meta)
        assert code == 0
        assert "already ingested" in text

    def test_check_exits_nonzero_on_breach(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        paths, meta = self._full_run(tmp_path)
        assert self._ingest(db, paths, meta)[0] == 0
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\nname = "impossible-floor"\nkind = "counter_min"\n'
            'metric = "crawl_requests_total"\nmin = 1e12\n'
        )
        out = io.StringIO()
        code = main(
            ["obs", "check", "--db", str(db), "--rules", str(rules)], out=out
        )
        assert code == 1
        assert "BREACH: impossible-floor" in out.getvalue()

    def test_check_report_is_deterministic(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        paths, meta = self._full_run(tmp_path)
        assert self._ingest(db, paths, meta)[0] == 0
        renders = []
        for _ in range(2):
            out = io.StringIO()
            assert main(
                ["obs", "check", "--db", str(db), "--rules", self.REPO_SLO],
                out=out,
            ) == 0
            renders.append(out.getvalue())
        assert renders[0] == renders[1]

    def test_flame_export(self, tmp_path):
        paths, _ = self._full_run(tmp_path)
        folded = tmp_path / "trace.folded"
        out = io.StringIO()
        code = main(
            ["obs", "flame", str(paths["trace"]), "--out", str(folded)],
            out=out,
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines and lines == sorted(lines)
        assert any("crawl.campaign" in line for line in lines)

    def test_bad_rules_file_is_usage_error(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        paths, meta = self._full_run(tmp_path)
        assert self._ingest(db, paths, meta)[0] == 0
        assert main(
            ["obs", "check", "--db", str(db),
             "--rules", str(tmp_path / "missing.toml")],
            out=io.StringIO(),
        ) == 2

    def test_ingest_rejects_invalid_artifact(self, tmp_path):
        bad = tmp_path / "metrics.jsonl"
        bad.write_text('{"kind":"summary","name":"x","value":1}\n')
        code = main(
            ["obs", "ingest", "--db", str(tmp_path / "wh.sqlite"),
             "--metrics", str(bad)],
            out=io.StringIO(),
        )
        assert code == 1
