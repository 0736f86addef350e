"""The end-to-end study pipeline.

``Study(config).run()`` executes the paper's methodology:

1. synthesize the ecosystem (:mod:`repro.ecosystem`),
2. stand up the 17 market servers and crawl them (August 2017 campaign:
   BFS/index/category discovery, parallel cross-market search, APK
   downloads with Google Play rate limiting + archive backfill),
3. let markets clean up their catalogs over the following 8 months,
4. run the second, targeted campaign (April 2018) checking whether
   flagged apps are still hosted.

The returned :class:`StudyResult` exposes the crawl snapshot plus
lazily-computed analysis artifacts (app units, library detection,
VirusTotal scans, clone/fake detections, over-privilege measurements,
and the removal report) that the experiment modules consume.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.clones import (
    CodeCloneAnalysis,
    CodeCloneDetector,
    SignatureCloneAnalysis,
    detect_signature_clones,
)
from repro.analysis.corpus import AppUnit, build_units
from repro.analysis.engine import AnalysisEngine, UnitWalk
from repro.analysis.fake import FakeAppAnalysis, detect_fakes
from repro.analysis.libraries import LIBFEATURES, LibraryDetection, LibraryDetector
from repro.analysis.malware import MalwareScan, scan_units, virustotal_analyzer
from repro.analysis.permissions import (
    OverprivilegeResult,
    analyze_overprivilege,
    dangerous_request_stats,
    dangerous_requests_analyzer,
    overprivilege_analyzer,
)
from repro.analysis.postanalysis import (
    RemovalReport,
    flagged_packages_by_market,
    removal_report,
)
from repro.analysis.virustotal import VirusTotalService
from repro.apk.archive import SegmentCache
from repro.core.config import StudyConfig
from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.journal import CrawlJournal
from repro.crawler.snapshot import Snapshot
from repro.crawler.telemetry import CrawlTelemetry
from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.world import World
from repro.markets.evolution import apply_catalog_updates
from repro.markets.hostility import HostilityPolicy
from repro.markets.profiles import GOOGLE_PLAY, get_profile
from repro.markets.removal_apply import apply_store_removals
from repro.markets.server import MarketServer
from repro.markets.store import MarketStore, build_stores
from repro.net.identity import IdentityPolicy
from repro.obs import NULL_OBS, Observability
from repro.util.rng import RngFactory, stable_hash32
from repro.util.simtime import SECOND_CRAWL_DAY, SimClock

__all__ = ["Study", "StudyResult"]

#: Share of Google Play packages in the public seed list (PrivacyGrade
#: supplied ~74% of the catalog in the paper).
GP_SEED_SHARE = 0.74

#: Simulated durations of the two campaigns: about 15 days in August
#: 2017 and one week in April 2018.
FIRST_CAMPAIGN_DAYS = 15.0
SECOND_CAMPAIGN_DAYS = 7.0


class StudyResult:
    """Everything one study run produced."""

    def __init__(
        self,
        config: StudyConfig,
        world: World,
        stores: Mapping[str, MarketStore],
        servers: Mapping[str, MarketServer],
        clock: SimClock,
        snapshot: Snapshot,
        presence: Mapping[str, Mapping[str, bool]],
        removal_outcome: Mapping[str, Tuple[int, int]],
        second_snapshot: Optional[Snapshot] = None,
        update_outcome: Optional[Mapping[str, int]] = None,
        obs: Observability = NULL_OBS,
        engine: Optional[AnalysisEngine] = None,
        corpus=None,
    ):
        self.config = config
        self.world = world
        #: The disk corpus store (sqlite backend), or None.  Held here
        #: so the store outlives the run: snapshot and world cursors
        #: read through it for the result's whole lifetime.
        self.corpus = corpus
        self.stores = dict(stores)
        self.servers = dict(servers)
        self.clock = clock
        self.snapshot = snapshot
        self.presence = dict(presence)
        self.removal_outcome = dict(removal_outcome)
        self.second_snapshot = second_snapshot
        self.update_outcome = dict(update_outcome or {})
        self.obs = obs
        #: The analysis execution layer: worker pool + artifact cache.
        self.engine = engine or AnalysisEngine.from_config(config, obs)
        #: Override for the VT scanning backend (None = default service).
        self.vt_service = None
        self._materialize_lock = threading.Lock()

    # -- crawl telemetry ---------------------------------------------------

    @property
    def telemetry(self) -> Optional["CrawlTelemetry"]:
        """The first campaign's crawl telemetry (per-market counters)."""
        stats = getattr(self.snapshot, "stats", None)
        return stats.telemetry if stats is not None else None

    def crawl_report(self) -> str:
        """Render the per-market crawl telemetry table."""
        telemetry = self.telemetry
        if telemetry is None:
            return "no crawl telemetry recorded"
        return telemetry.stats_report()

    @property
    def degraded_markets(self) -> List[str]:
        """Markets the first campaign completed without (quarantined)."""
        return self.snapshot.degraded_markets()

    # -- observability exports ---------------------------------------------

    def export_observability(self) -> List[str]:
        """Write the trace/metrics artifacts the config asked for.

        Returns the paths written.  Called by the CLI *after* the
        analyses ran, so analysis-stage spans land in the trace.
        """
        written: List[str] = []
        if self.config.trace_out is not None:
            self.obs.export_trace(self.config.trace_out)
            written.append(self.config.trace_out)
        if self.config.metrics_out is not None:
            self.obs.export_metrics(self.config.metrics_out)
            written.append(self.config.metrics_out)
        return written

    # -- lazily computed analysis artifacts --------------------------------

    @cached_property
    def units(self) -> List[AppUnit]:
        with self.obs.stage("analysis.units"):
            return build_units(self.snapshot)

    @cached_property
    def units_by_key(self) -> Dict[Tuple[str, Optional[str]], AppUnit]:
        return {(u.package, u.signer): u for u in self.units}

    @cached_property
    def scanner(self) -> VirusTotalService:
        """The VT scanning backend in use: ``vt_service`` or the default."""
        return self.vt_service or VirusTotalService()

    @cached_property
    def apk_walk(self) -> UnitWalk:
        """The one walk of every per-APK analyzer over ``units``.

        Library features, VirusTotal scans, unused permissions and
        Figure 11's dangerous-permission count run together, so each
        unit's APK is decoded at most once (a blob-vault read on the
        spilled backend) for the analyzers the artifact cache missed.
        It runs when the first of the analyses below asks for it, and
        each of them takes its own results.
        """
        return UnitWalk(
            self.engine,
            self.units,
            (
                LIBFEATURES,
                virustotal_analyzer(self.scanner),
                overprivilege_analyzer(),
                dangerous_requests_analyzer(),
            ),
            stage="analysis.apks.map",
        )

    @cached_property
    def library_detection(self) -> LibraryDetection:
        with self.obs.stage("analysis.libraries"):
            return LibraryDetector().fit(self.units, engine=self.engine, walk=self.apk_walk)

    @cached_property
    def vt_scan(self) -> MalwareScan:
        with self.obs.stage("analysis.vt_scan"):
            return scan_units(self.units, self.scanner, engine=self.engine, walk=self.apk_walk)

    @cached_property
    def signature_clones(self) -> SignatureCloneAnalysis:
        with self.obs.stage("analysis.signature_clones"):
            return detect_signature_clones(self.units)

    @cached_property
    def code_clones(self) -> CodeCloneAnalysis:
        with self.obs.stage("analysis.code_clones"):
            return CodeCloneDetector().detect(
                self.units, self.library_detection, engine=self.engine
            )

    @cached_property
    def fakes(self) -> FakeAppAnalysis:
        with self.obs.stage("analysis.fakes"):
            return detect_fakes(self.units)

    @cached_property
    def overprivilege(self) -> OverprivilegeResult:
        with self.obs.stage("analysis.overprivilege"):
            return analyze_overprivilege(self.units, engine=self.engine, walk=self.apk_walk)

    @cached_property
    def dangerous_requested(self) -> Dict[str, float]:
        """Figure 11's average count of dangerous permissions requested."""
        with self.obs.stage("analysis.dangerous_requested"):
            return dangerous_request_stats(self.units, walk=self.apk_walk)

    @cached_property
    def flagged_by_market(self) -> Dict[str, Set[str]]:
        with self.obs.stage("analysis.flagged"):
            return flagged_packages_by_market(self.snapshot, self.units, self.vt_scan)

    @cached_property
    def removal(self) -> RemovalReport:
        with self.obs.stage("analysis.removal"):
            return removal_report(self.flagged_by_market, self.presence)

    @cached_property
    def all_clone_units(self) -> Set[Tuple[str, Optional[str]]]:
        return set(self.signature_clones.clone_units) | set(
            self.code_clones.clone_units
        )

    def materialize(self) -> "StudyResult":
        """Compute every lazy analysis artifact exactly once.

        Thread-safe: ``cached_property`` offers no cross-thread
        guarantee, so concurrent experiment runners call this first —
        one thread does the work (through the engine's own worker pool),
        everyone after that hits plain attribute reads.
        """
        with self._materialize_lock:
            self.units
            self.units_by_key
            self.library_detection
            self.vt_scan
            self.signature_clones
            self.code_clones
            self.fakes
            self.overprivilege
            self.dangerous_requested
            self.flagged_by_market
            self.removal
            self.all_clone_units
        return self


class Study:
    """Runs the full two-campaign study."""

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or StudyConfig()
        self.obs = obs if obs is not None else Observability.from_flags(
            trace=self.config.trace_out is not None,
            metrics=self.config.metrics_out is not None,
            profile=self.config.profile,
            monitor=self.config.monitor,
        )

    def _gp_seeds(self, stores: Mapping[str, MarketStore], clock: SimClock) -> List[str]:
        """The public seed list (PrivacyGrade substitution): a stable
        ~74% sample of Google Play package names."""
        cutoff = int(GP_SEED_SHARE * 10_000)
        return [
            listing.package
            for listing in stores[GOOGLE_PLAY].iter_live(clock.now)
            if stable_hash32("privacygrade", listing.package) % 10_000 < cutoff
        ]

    def _hostility_policy(self, market_id: str) -> Optional[HostilityPolicy]:
        """Resolve one market's hostility behaviors from the config."""
        spec = self.config.hostility
        if spec is None:
            return None
        if spec == "profile":
            behaviors = get_profile(market_id).hostility
            return HostilityPolicy.for_behaviors(behaviors) if behaviors else None
        return HostilityPolicy.from_spec(spec)

    def _identity_policy(self) -> Optional[IdentityPolicy]:
        if self.config.identity_pool <= 0:
            return None
        return IdentityPolicy(size=self.config.identity_pool)

    def run(self) -> StudyResult:
        config = self.config
        obs = self.obs
        rngs = RngFactory(config.seed)
        from repro.store.corpus import CorpusStore

        journal = (
            CrawlJournal(config.checkpoint_dir, resume=config.resume)
            if config.checkpoint_dir
            else None
        )
        # One vault per run: a checkpointed corpus keeps its APKs in the
        # journal's.
        corpus = CorpusStore.from_config(
            config, vault=journal.apks if journal is not None else None
        )

        with obs.stage("ecosystem"):
            from repro.ecosystem.threats import RepackagingModel

            world = EcosystemGenerator(
                seed=config.seed,
                scale=config.scale,
                obs=obs,
                repackaging=RepackagingModel.for_profile(config.clone_families),
            ).generate()
            if corpus is not None and len(world.apps) > corpus.spill_threshold:
                # Past the threshold the app table is copied to the
                # segment table; below it the world stays on its memory
                # family (bit-identical to the memory backend).
                world.spill(corpus)
            segments = SegmentCache()
            stores = build_stores(world, segments=segments)
        clock = SimClock()
        overrides = dict(config.market_fault_plans or {})
        servers = {
            m: MarketServer(
                store,
                clock,
                faults=overrides.get(m),
                hostility=self._hostility_policy(m),
            )
            for m, store in stores.items()
        }

        # The socket transport promotes the fleet to a real serving
        # tier: every lane's traffic crosses a local TCP listener while
        # checkpointing keeps using direct object references (the tier
        # lives in-process).
        tier = None
        if config.transport == "socket":
            from repro.serving import ServingTier

            tier = ServingTier(servers).start()

        backfill = (
            ArchiveBackfill(world, segments=segments)
            if config.download_apks
            else None
        )
        coordinators: List[CrawlCoordinator] = []

        def coordinator_for(download_apks: bool) -> CrawlCoordinator:
            # Fresh transports per coordinator: socket state is
            # connection-scoped and not shared across campaigns.
            built = CrawlCoordinator(
                servers,
                clock,
                gp_seeds=self._gp_seeds(stores, clock),
                backfill=backfill if download_apks else None,
                download_apks=download_apks,
                workers=config.workers,
                journal=journal,
                fail_fast=config.fail_fast,
                obs=obs,
                corpus=corpus,
                identity_policy=self._identity_policy(),
                identity_seed=config.seed,
                transports=tier.transports() if tier is not None else None,
            )
            coordinators.append(built)
            return built

        try:
            coordinator = coordinator_for(config.download_apks)
            with obs.stage("crawl.first"):
                snapshot = coordinator.crawl(
                    "first", duration_days=FIRST_CAMPAIGN_DAYS
                )

            # Between campaigns: markets clean up flagged apps, developers'
            # lagged listings catch up, and we advance to April 2018.
            apply_removals = apply_store_removals(stores, world, rngs.child("cleanup"))
            updates = apply_catalog_updates(stores, world, rngs.child("evolution"))
            clock.advance_to(max(clock.now, SECOND_CRAWL_DAY))

            result = StudyResult(
                config=config,
                world=world,
                stores=stores,
                servers=servers,
                clock=clock,
                snapshot=snapshot,
                presence={},
                removal_outcome=apply_removals,
                update_outcome=updates,
                obs=obs,
                corpus=corpus,
            )
            if config.download_apks:
                # Second campaign: targeted recheck of every flagged app.
                with obs.stage("crawl.recheck"):
                    result.presence = coordinator.recheck(
                        result.flagged_by_market, duration_days=SECOND_CAMPAIGN_DAYS
                    )
            if config.full_second_crawl:
                # The paper's one-week April 2018 campaign, in full.  APKs
                # are skipped: the longitudinal analysis is metadata-driven.
                second_coordinator = coordinator_for(download_apks=False)
                with obs.stage("crawl.second"):
                    result.second_snapshot = second_coordinator.crawl(
                        "second", duration_days=SECOND_CAMPAIGN_DAYS
                    )
            if journal is not None:
                journal.close()
            return result
        finally:
            for active in coordinators:
                active.close()
            if tier is not None:
                tier.stop()
