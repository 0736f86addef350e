"""Command-line interface.

    python -m repro list
    python -m repro markets
    python -m repro run --scale 0.001 --seed 42
    python -m repro experiment table4 figure9 --scale 0.001
    python -m repro report --scale 0.002 --output EXPERIMENTS.md
    python -m repro run --trace-out trace.jsonl --metrics-out metrics.jsonl
    python -m repro run-report --trace trace.jsonl --metrics metrics.jsonl

``run`` executes the full study and prints a summary; ``experiment``
additionally renders the requested tables/figures; ``report`` writes all
of them to a markdown file.  ``--trace-out`` / ``--metrics-out`` /
``--profile`` turn on the observability layer (:mod:`repro.obs`), and
``run-report`` re-renders a finished campaign from its exported
artifacts.  Every command that reads an artifact (``run-report``,
``obs check``/``diff``/``flame``) exits 2 when it is missing or
invalid; 1 is kept for a failed gate (an ``obs check`` breach, a
``obs diff --strict`` difference).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro import Study, StudyConfig, __version__
from repro.experiments import EXPERIMENT_IDS, run_experiment
from repro.markets.profiles import ALL_MARKET_IDS, GOOGLE_PLAY, get_profile

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Beyond Google Play' (IMC 2018): simulate the "
            "app-market ecosystem, crawl it, and regenerate the paper's "
            "tables and figures."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")
    sub.add_parser("markets", help="print the 17 market profiles")

    def workers_arg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be non-negative (0 = auto), got {value}"
            )
        return value

    def add_study_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="master seed")
        p.add_argument("--scale", type=float, default=0.001,
                       help="fraction of the paper's 6.27M-listing corpus")
        p.add_argument("--no-apks", action="store_true",
                       help="metadata-only crawl (faster)")
        p.add_argument("--full-second-crawl", action="store_true",
                       help="run a full second campaign (enables 'churn')")
        p.add_argument("--workers", type=workers_arg, default=1,
                       help="crawl- and analysis-engine threads, 0 = one "
                            "per CPU (snapshot, artifacts and reports "
                            "identical at any width)")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="journal completed crawl work under DIR "
                            "(enables crash-safe campaigns)")
        p.add_argument("--resume", action="store_true",
                       help="replay an existing checkpoint journal instead "
                            "of re-crawling (requires --checkpoint-dir)")
        p.add_argument("--fail-fast", action="store_true",
                       help="abort the study when a market exhausts its "
                            "breaker trip budget (default: complete it "
                            "with that market marked degraded)")
        p.add_argument("--artifact-cache", default=None, metavar="DIR",
                       help="persist per-APK analysis artifacts under DIR "
                            "(default: <checkpoint-dir>/artifacts when "
                            "--checkpoint-dir is set)")
        p.add_argument("--no-artifact-cache", action="store_true",
                       help="disable the artifact cache even when "
                            "--checkpoint-dir is set")
        p.add_argument("--store-backend", choices=("memory", "sqlite"),
                       default="memory",
                       help="corpus storage backend: 'memory' holds the "
                            "full corpus in RAM, 'sqlite' spills record "
                            "families to disk-backed segment tables and "
                            "streams them (digests identical either way)")
        p.add_argument("--store-spill-threshold", type=int, default=None,
                       metavar="N",
                       help="record count above which a family spills to "
                            "disk (default: 5000; small worlds stay fully "
                            "in-memory)")
        p.add_argument("--store-dir", default=None, metavar="DIR",
                       help="root for the sqlite backend's segment tables "
                            "and APK vault (default: <checkpoint-dir>/store, "
                            "whose APKs stay in the checkpoint's own vault, "
                            "or a temporary directory)")
        p.add_argument("--hostility", default=None, metavar="SPEC",
                       help="make market servers hostile: a comma-joined "
                            "behavior list from {auth,binary,antibot,"
                            "package_list}, 'full' for all four, or "
                            "'profile' to give each market the behaviors "
                            "its profile declares (default: polite fleet)")
        p.add_argument("--identity-pool", type=int, default=None, metavar="N",
                       help="client identities per market lane; hostile "
                            "antibot markets ban a lane's current identity "
                            "(default: 4 when --hostility is set, else 0)")
        p.add_argument("--transport", choices=("inprocess", "socket"),
                       default="inprocess",
                       help="how crawl requests reach the markets: "
                            "'inprocess' calls servers directly, 'socket' "
                            "stands up the asyncio serving tier and routes "
                            "every lane over local TCP (snapshots "
                            "identical either way)")
        p.add_argument("--clone-families", choices=("default", "adversarial"),
                       default="default",
                       help="repackaging profile for world generation: "
                            "'default' matches the paper's clone rates, "
                            "'adversarial' builds deep repackaging chains "
                            "and boosted near-duplicate families")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the campaign span trace to PATH (JSONL)")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry to PATH (JSONL)")
        p.add_argument("--profile", action="store_true",
                       help="profile pipeline stages (wall time) and "
                            "print the critical-path report")
        p.add_argument("--monitor", action="store_true",
                       help="live campaign monitoring: heartbeat metric "
                            "samples + lane stall watchdog (digest-"
                            "invariant; <=3%% overhead)")

    run_parser = sub.add_parser("run", help="run a study and print a summary")
    add_study_args(run_parser)

    exp_parser = sub.add_parser("experiment", help="run specific experiments")
    add_study_args(exp_parser)
    exp_parser.add_argument("ids", nargs="+", metavar="EXPERIMENT",
                            help="experiment ids (see 'list')")

    report_parser = sub.add_parser("report", help="write all experiments to markdown")
    add_study_args(report_parser)
    report_parser.add_argument("--output", default="EXPERIMENTS.md")

    rr_parser = sub.add_parser(
        "run-report",
        help="render a campaign report from exported observability artifacts")
    rr_parser.add_argument("--trace", default=None, metavar="PATH",
                           help="a --trace-out artifact to summarize")
    rr_parser.add_argument("--metrics", default=None, metavar="PATH",
                           help="a --metrics-out artifact to re-render")

    obs_parser = sub.add_parser(
        "obs", help="gate, compare, and flame-graph run artifacts")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    check_parser = obs_sub.add_parser(
        "check", help="evaluate slo.toml rules against a run's metrics; "
                      "exits nonzero on breach")
    check_parser.add_argument("metrics", help="a --metrics-out artifact")
    check_parser.add_argument("--rules", default="slo.toml", metavar="PATH",
                              help="TOML rule file (default: slo.toml)")
    check_parser.add_argument("--json", default=None, metavar="PATH",
                              help="also write machine-readable verdicts")

    diff_parser = obs_sub.add_parser(
        "diff", help="compare two runs' metrics (exact for deterministic "
                     "series, a -> b for timing)")
    diff_parser.add_argument("a", help="a --metrics-out artifact")
    diff_parser.add_argument("b", help="a --metrics-out artifact")
    diff_parser.add_argument("--strict", action="store_true",
                             help="exit nonzero unless the diff is clean")

    flame_parser = obs_sub.add_parser(
        "flame", help="export a trace as folded stacks (flamegraph.pl / "
                      "speedscope compatible)")
    flame_parser.add_argument("trace", help="a --trace-out artifact")
    flame_parser.add_argument("--out", default=None, metavar="PATH",
                              help="output path (default: <trace>.folded)")
    return parser


def _artifact_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Resolve the artifact-cache directory from the CLI flags.

    ``--no-artifact-cache`` wins; an explicit ``--artifact-cache DIR``
    is next; otherwise a checkpointed study defaults to keeping its
    artifacts next to the crawl journal.
    """
    if args.no_artifact_cache:
        return None
    if args.artifact_cache is not None:
        return args.artifact_cache
    if args.checkpoint_dir:
        import os

        return os.path.join(args.checkpoint_dir, "artifacts")
    return None


def _config_from(args: argparse.Namespace) -> StudyConfig:
    from repro.core.config import resolve_workers

    return StudyConfig(
        seed=args.seed,
        scale=args.scale,
        download_apks=not args.no_apks,
        full_second_crawl=args.full_second_crawl,
        workers=resolve_workers(args.workers),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        fail_fast=args.fail_fast,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        profile=args.profile,
        monitor=args.monitor,
        artifact_cache_dir=_artifact_cache_dir(args),
        store_backend=args.store_backend,
        **(
            {"store_spill_threshold": args.store_spill_threshold}
            if args.store_spill_threshold is not None
            else {}
        ),
        store_dir=args.store_dir,
        hostility=args.hostility,
        identity_pool=(
            args.identity_pool
            if args.identity_pool is not None
            else (4 if args.hostility is not None else 0)
        ),
        transport=args.transport,
        clone_families=args.clone_families,
    )


def _cmd_list(out) -> int:
    for experiment_id in EXPERIMENT_IDS:
        print(experiment_id, file=out)
    return 0


def _cmd_markets(out) -> int:
    header = (f"{'id':12s} {'name':16s} {'kind':12s} {'paper size':>11s} "
              f"{'vetting':>8s} {'security':>9s}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for market_id in ALL_MARKET_IDS:
        profile = get_profile(market_id)
        print(
            f"{market_id:12s} {profile.display_name:16s} {profile.kind:12s} "
            f"{profile.paper_size:>11,d} "
            f"{'yes' if profile.app_vetting else 'no':>8s} "
            f"{'yes' if profile.security_check else 'no':>9s}",
            file=out,
        )
    return 0


def _run_study(args, out):
    """Run the configured study; ``None`` (after one stderr line) when
    the checkpoint directory holds a journal this checkout cannot read."""
    from repro.crawler.journal import JournalError

    config = _config_from(args)
    print(f"running study: seed={config.seed} scale={config.scale}", file=out)
    start = time.time()
    try:
        result = Study(config).run()
    except JournalError as exc:
        print(f"repro: checkpoint dir {config.checkpoint_dir} is unusable "
              f"({exc}); delete it and rerun", file=sys.stderr)
        return None
    print(f"done in {time.time() - start:.1f}s: "
          f"{len(result.snapshot):,} listings, "
          f"{len(result.snapshot.packages()):,} packages", file=out)
    return result


def _finish_observability(result, out) -> None:
    """Export artifacts and print the profile (after analyses ran)."""
    if result.engine.workers > 1 or result.engine.cache is not None:
        print(result.engine.stats_line(), file=out)
    for path in result.export_observability():
        print(f"wrote {path}", file=out)
    if result.config.profile:
        print(file=out)
        print(result.obs.profile_report(result.telemetry), file=out)


def _cmd_run(args, out) -> int:
    result = _run_study(args, out)
    if result is None:
        return 2
    snapshot = result.snapshot
    print(file=out)
    print(result.crawl_report(), file=out)
    print(file=out)
    if result.degraded_markets:
        print(f"degraded markets (completed without): "
              f"{', '.join(result.degraded_markets)}", file=out)
    print(f"google play apk coverage: "
          f"{snapshot.apk_coverage(GOOGLE_PLAY):.1%}", file=out)
    if result.config.download_apks:
        from repro.analysis.malware import av_rank_rates
        from repro.markets.profiles import CHINESE_MARKET_IDS

        rates = av_rank_rates(snapshot, result.units, result.vt_scan)
        cn = sum(rates[m][10] for m in CHINESE_MARKET_IDS) / len(CHINESE_MARKET_IDS)
        print(f"malware (AV-rank>=10): GP {rates[GOOGLE_PLAY][10]:.1%} "
              f"vs Chinese avg {cn:.1%}", file=out)
    _finish_observability(result, out)
    return 0


def _cmd_experiment(args, out) -> int:
    unknown = [i for i in args.ids if i not in EXPERIMENT_IDS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)} "
              f"(try 'repro list')", file=sys.stderr)
        return 2
    result = _run_study(args, out)
    if result is None:
        return 2
    for experiment_id in args.ids:
        print(file=out)
        print(run_experiment(experiment_id, result).render(), file=out)
    _finish_observability(result, out)
    return 0


def _cmd_report(args, out) -> int:
    from repro.experiments import run_all

    result = _run_study(args, out)
    if result is None:
        return 2
    reports = run_all(result)
    lines = ["# EXPERIMENTS — paper vs. measured", ""]
    for experiment_id in EXPERIMENT_IDS:
        report = reports[experiment_id]
        lines.extend([f"## {experiment_id}", "", "```", report.render(), "```", ""])
    with open(args.output, "w") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {args.output}", file=out)
    _finish_observability(result, out)
    return 0


def _cmd_run_report(args, out) -> int:
    from repro.obs.report import render_run_report
    from repro.obs.schema import SchemaError

    if args.trace is None and args.metrics is None:
        print("run-report needs --trace and/or --metrics", file=sys.stderr)
        return 2
    try:
        print(render_run_report(args.trace, args.metrics), file=out)
    except SchemaError as exc:
        # Name the artifact so the operator knows which file to re-export;
        # a schema failure means the artifact, not the renderer, is bad.
        print(f"run-report: invalid artifact: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = exc.filename if exc.filename else "artifact"
        print(
            f"run-report: cannot read {path}: "
            f"{type(exc).__name__}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_obs(args, out) -> int:
    from repro.obs.schema import SchemaError, validate_metrics_file

    if args.obs_command == "flame":
        from repro.obs.flame import export_folded
        from repro.obs.schema import validate_trace_file

        try:
            records = validate_trace_file(args.trace)
        except (OSError, SchemaError) as exc:
            print(f"obs flame: {args.trace}: {exc}", file=sys.stderr)
            return 2
        out_path = args.out if args.out else f"{args.trace}.folded"
        count = export_folded(records, out_path)
        print(f"wrote {out_path} ({count} stacks)", file=out)
        return 0

    from repro.obs import slo

    if args.obs_command == "diff":
        try:
            docs_a = validate_metrics_file(args.a)
            docs_b = validate_metrics_file(args.b)
        except (OSError, SchemaError) as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 2
        diff = slo.diff_metrics(docs_a, docs_b)
        print(slo.render_diff(diff, args.a, args.b), file=out)
        return 1 if args.strict and not diff["clean"] else 0

    try:
        rules = slo.load_rules(args.rules)
    except (OSError, slo.SloError) as exc:
        print(f"obs check: {args.rules}: {exc}", file=sys.stderr)
        return 2
    try:
        results = slo.check_metrics(validate_metrics_file(args.metrics), rules)
    except (OSError, SchemaError) as exc:
        print(f"obs check: {exc}", file=sys.stderr)
        return 2
    print(slo.render_check_report(results, args.metrics), file=out)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(slo.results_to_json(results, args.metrics))
            handle.write("\n")
        print(f"wrote {args.json}", file=out)
    return 0 if slo.check_passed(results) else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "markets":
        return _cmd_markets(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "run-report":
        return _cmd_run_report(args, out)
    if args.command == "obs":
        return _cmd_obs(args, out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
