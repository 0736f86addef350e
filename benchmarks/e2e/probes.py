"""Where the benchmark measures the program.

Every probe wraps a public entry point at the name its caller resolves
at call time — a module global such as ``repro.core.study.build_units``
or a class attribute such as ``MarketServer.handle`` — so nothing under
``src/`` changes.  Stage probes wrap functions called a handful of
times per run and are installed in every run; hot probes wrap the
per-request and per-APK functions and are installed only in traced runs.

Runs in the measured child process only (it imports the program).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from tracer import Tracer

__all__ = ["install", "facts", "SETUP_SPANS", "ANALYZERS"]

#: Spans whose sum is the study's set-up time: world generation (and the
#: spill that hands it to the disk store) plus building the market stores.
SETUP_SPANS = (
    "ecosystem.init",
    "ecosystem.generate",
    "store.spill",
    "markets.build_stores",
)

#: Analyzer entry points -> metric suffix, as ``StudyResult`` calls them.
#: Module globals are looked up on ``repro.core.study``; dotted names
#: are methods of a class from that module's namespace.
ANALYZERS = {
    "build_units": "units",
    "LibraryDetector.fit": "libraries",
    "scan_units": "vt_scan",
    "detect_signature_clones": "signature_clones",
    "CodeCloneDetector.detect": "code_clones",
    "detect_fakes": "fakes",
    "analyze_overprivilege": "overprivilege",
    "flagged_packages_by_market": "flagged",
    "removal_report": "removal",
}


def install(tracer: Tracer, traced: bool) -> Dict[str, object]:
    """Patch the probes in; returns the objects stage probes capture."""
    import repro.core.study as study
    import repro.crawler.crawler as crawler
    import repro.ecosystem.generator as generator
    import repro.ecosystem.world as world
    import repro.experiments.runner as runner
    import repro.serving.tier as tier

    captured: Dict[str, object] = {}

    def patch(owner, attr, name, **kwargs) -> None:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kwargs))

    def capture(key, pick):
        return lambda result, args, kwargs: captured.__setitem__(
            key, pick(result, args, kwargs)
        )

    patch(generator.EcosystemGenerator, "__init__", "ecosystem.init")
    patch(generator.EcosystemGenerator, "generate", "ecosystem.generate")
    patch(world.World, "spill", "store.spill")
    patch(study, "build_stores", "markets.build_stores",
          on_result=capture("segments", lambda r, a, kw: kw.get("segments")))
    patch(tier.ServingTier, "start", "serving.start",
          on_result=capture("tier", lambda r, a, kw: r))
    patch(tier.ServingTier, "stop", "serving.stop")
    patch(crawler.CrawlCoordinator, "crawl",
          lambda args, kwargs: "crawler.crawl." + (
              args[1] if len(args) > 1 else kwargs["label"]))
    patch(crawler.CrawlCoordinator, "recheck", "crawler.recheck")
    patch(study, "apply_store_removals", "markets.cleanup")
    patch(study, "apply_catalog_updates", "markets.cleanup")
    for entry, suffix in ANALYZERS.items():
        owner, _, attr = entry.rpartition(".")
        patch(getattr(study, owner) if owner else study, attr, "analysis." + suffix)
    # StudyResult.vt_scan builds the scanning service as an argument of
    # scan_units; its set-up belongs to the same layer.
    patch(study.VirusTotalService, "__init__", "analysis.vt_scan")
    patch(runner, "run_experiment", lambda args, kwargs: "experiments." + args[0])

    if traced:
        _install_hot(tracer, patch)
    return captured


def _install_hot(tracer: Tracer, patch) -> None:
    import repro.crawler.backfill as backfill
    import repro.crawler.crawler as crawler
    import repro.ecosystem.apps as apps
    import repro.ecosystem.world as world
    import repro.markets.server as server
    import repro.markets.store as store
    import repro.net.client as client
    import repro.store.blobs as blobs
    import repro.store.columnar as columnar

    def count_if(counter, test):
        return lambda result, args, kwargs: test(result) and tracer.add(counter)

    def blob_bytes(result, args, kwargs):
        tracer.add("apk.blob_bytes", len(result))

    patch(world.World, "find_by_package", "ecosystem.find_by_package")
    patch(server.MarketServer, "handle", "markets.handle")
    patch(store.MarketStore, "apk_bytes", "markets.apk_bytes",
          on_result=count_if("markets.apk_served", lambda r: r is not None))
    # Both callers import build_apk from its module at call time.
    patch(apps, "build_apk", "apk.build", on_result=blob_bytes)
    patch(crawler, "parse_apk", "apk.parse")
    patch(client.HttpClient, "request", "net.request", request=True)
    patch(backfill.ArchiveBackfill, "lookup", "crawler.backfill_lookup",
          on_result=count_if("crawler.backfill_hits", lambda r: r is not None))
    patch(columnar.Family, "append", "store.append")
    columnar.Family.scan = tracer.wrap_iter(columnar.Family.scan, "store.scan")
    patch(blobs.BlobVault, "put", "store.blob_put")
    patch(blobs.BlobVault, "load", "store.blob_load")

    # The client calls whatever transport it was built with (the
    # server's bound ``handle`` in process, a socket transport
    # otherwise); wrapping it at construction times every send.
    init = client.HttpClient.__init__

    def client_init(self, handler, *args, **kwargs):
        init(self, tracer.wrap(handler, "net.send", remote=True), *args, **kwargs)

    client.HttpClient.__init__ = client_init


def _dir_bytes(root: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file())


def facts(result, captured: Dict[str, object]) -> Dict[str, float]:
    """Counts the program keeps itself, read once the pass is done."""
    telemetry = result.telemetry
    out = {
        "requests": telemetry.total_requests,
        "retries": telemetry.total_retries,
        "failures": telemetry.total_failures,
        "dead_letters": telemetry.total_dead_letters,
        "records": telemetry.total_records,
    }
    segments = captured.get("segments")
    if segments is not None:
        stats = segments.stats()
        out["segment_hits"] = stats["hits"]
        out["segment_misses"] = stats["misses"]
    serving = captured.get("tier")
    if serving is not None:
        out["frames_served"] = serving.total_frames_served
        out["connections_accepted"] = sum(serving.connections_accepted.values())
    cache = result.engine.cache_stats
    if cache is not None:
        out["cache_hits"] = cache.hits
        out["cache_misses"] = cache.misses
        out["cache_stores"] = cache.stores
    if result.corpus is not None:
        out["disk_bytes"] = _dir_bytes(Path(result.corpus.root))
    if result.config.checkpoint_dir:
        out["journal_bytes"] = _dir_bytes(Path(result.config.checkpoint_dir), "*.jsonl")
    return out
