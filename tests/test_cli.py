"""Tests for the command-line interface."""

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENT_IDS


#: The study subcommands' shared options, spelled out: a new knob
#: shows up here as a visible diff (``--help`` excluded).
STUDY_OPTIONS = frozenset({
    "--seed", "--scale", "--no-apks", "--full-second-crawl", "--workers",
    "--checkpoint-dir", "--resume", "--breaker-threshold", "--fail-fast",
    "--artifact-cache", "--no-artifact-cache",
    "--store-backend", "--store-batch-size", "--store-spill-threshold",
    "--store-dir",
    "--hostility", "--identity-pool", "--identity-rotation",
    "--credential-ttl", "--transport",
    "--clone-strategy", "--clone-families",
    "--trace-out", "--metrics-out", "--profile", "--profile-out",
    "--monitor", "--monitor-interval", "--stall-budget",
})

#: Every ``StudyConfig`` field, spelled out for the same reason.
STUDY_CONFIG_FIELDS = frozenset({
    "seed", "scale", "download_apks", "full_second_crawl", "workers",
    "market_fault_plans", "checkpoint_dir", "resume", "fail_fast",
    "breaker_threshold", "trace_out", "metrics_out", "profile",
    "profile_out", "monitor", "monitor_interval",
    "stall_budget", "artifact_cache_dir", "store_backend",
    "store_batch_size", "store_spill_threshold", "store_dir", "hostility",
    "identity_pool", "identity_rotation", "credential_ttl", "transport",
    "clone_strategy", "clone_families",
})


class TestOptionSurface:
    def test_study_config_fields(self):
        from dataclasses import fields

        from repro import StudyConfig

        assert {f.name for f in fields(StudyConfig)} == STUDY_CONFIG_FIELDS

    def test_study_subcommand_options(self):
        import argparse

        parser = build_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        extra = {"run": set(), "experiment": set(), "report": {"--output"}}
        for name, own in extra.items():
            options = {
                option
                for action in commands.choices[name]._actions
                for option in action.option_strings
            } - {"-h", "--help"}
            assert options == STUDY_OPTIONS | own, name


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

    def test_monitor_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--monitor", "--monitor-interval", "0.5",
             "--stall-budget", "10", "--profile-out", "p.jsonl"]
        )
        assert args.monitor
        assert args.monitor_interval == 0.5
        assert args.stall_budget == 10.0
        assert args.profile_out == "p.jsonl"

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
        assert (args.a, args.b) == ("a", "b")
        assert not args.strict
        args = build_parser().parse_args(["obs", "check", "m.jsonl"])
        assert args.metrics == "m.jsonl"
        assert args.rules == "slo.toml"
        assert args.json is None
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

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Two monitored seed-5 campaigns' artifact paths, run once."""
        root = tmp_path_factory.mktemp("obs-runs")
        runs = []
        for tag in ("a", "b"):
            out = io.StringIO()
            paths = {
                kind: root / f"{kind}-{tag}.jsonl"
                for kind in ("trace", "metrics", "profile")
            }
            code = main(
                ["run", "--scale", "0.0002", "--no-apks", "--seed", "5",
                 "--monitor",
                 "--trace-out", str(paths["trace"]),
                 "--metrics-out", str(paths["metrics"]),
                 "--profile-out", str(paths["profile"])],
                out=out,
            )
            assert code == 0, out.getvalue()
            runs.append(paths)
        return runs

    def test_monitored_run_exports_everything(self, runs):
        for path in runs[0].values():
            assert path.exists()

    def test_diff_and_check_end_to_end(self, runs):
        metrics_a, metrics_b = (str(paths["metrics"]) for paths in runs)
        # Two runs of the same seed/config: identical deterministic
        # series, strict diff passes.
        out = io.StringIO()
        code = main(["obs", "diff", "--strict", metrics_a, metrics_b], out=out)
        assert code == 0, out.getvalue()
        assert "clean: all deterministic series match" in out.getvalue()

        out = io.StringIO()
        code = main(
            ["obs", "check", metrics_b, "--rules", self.REPO_SLO], out=out
        )
        assert code == 0, out.getvalue()
        assert "BREACH" not in out.getvalue()

    def test_check_exits_nonzero_on_breach(self, runs, tmp_path):
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\nname = "impossible-floor"\nkind = "counter_min"\n'
            'metric = "crawl_requests_total"\nmin = 1e12\n'
        )
        out = io.StringIO()
        code = main(
            ["obs", "check", str(runs[0]["metrics"]), "--rules", str(rules)],
            out=out,
        )
        assert code == 1
        assert "BREACH: impossible-floor" in out.getvalue()

    def test_check_report_is_deterministic(self, runs):
        renders = []
        for _ in range(2):
            out = io.StringIO()
            assert main(
                ["obs", "check", str(runs[0]["metrics"]),
                 "--rules", self.REPO_SLO],
                out=out,
            ) == 0
            renders.append(out.getvalue())
        assert renders[0] == renders[1]

    def test_flame_export(self, runs, tmp_path):
        folded = tmp_path / "trace.folded"
        out = io.StringIO()
        code = main(
            ["obs", "flame", str(runs[0]["trace"]), "--out", str(folded)],
            out=out,
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines and lines == sorted(lines)
        assert any("crawl.campaign" in line for line in lines)

    def test_bad_rules_file_is_usage_error(self, runs, tmp_path):
        assert main(
            ["obs", "check", str(runs[0]["metrics"]),
             "--rules", str(tmp_path / "missing.toml")],
            out=io.StringIO(),
        ) == 2

    def test_check_rejects_invalid_artifact(self, tmp_path):
        bad = tmp_path / "metrics.jsonl"
        bad.write_text('{"kind":"summary","name":"x","value":1}\n')
        code = main(
            ["obs", "check", str(bad), "--rules", self.REPO_SLO],
            out=io.StringIO(),
        )
        assert code == 2
