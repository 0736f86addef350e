"""Crawl coordination.

``CrawlCoordinator`` reproduces the paper's campaign structure on top
of the parallel crawl engine (:mod:`repro.crawler.engine`):

* per-market discovery with the appropriate strategy (Section 3), one
  engine lane per market,
* the **parallel search**: each round, every package that surfaced
  anywhere since the last round is searched (by package name and by app
  name) in every market, so cross-market observations are
  near-simultaneous,
* batched APK downloading with rate-limit handling, and offline-archive
  backfill for Google Play's quota-blocked APKs (AndroZoo substitute),
* a targeted *recheck* used by the second campaign to test whether
  flagged apps are still hosted.

Every phase fans out one task per market and merges results in
canonical market order, so the snapshot is identical at any worker
count — the fleet changes wall-clock time, never the dataset.

Two robustness layers ride on top of that structure:

* **Checkpoint/resume** (:mod:`repro.crawler.journal`): with a
  ``CrawlJournal`` attached, every completed unit of work is appended
  to a per-lane write-ahead log together with the deterministic state
  it left behind; a restarted campaign replays the journal instead of
  re-crawling and produces a bit-identical snapshot.
* **Graceful degradation** (:mod:`repro.net.breaker`): when a market's
  circuit breaker exhausts its trip budget the lane raises
  :class:`~repro.net.breaker.MarketQuarantinedError`.  In the default
  *degrade* mode the coordinator marks the market degraded, parks the
  abandoned work in the snapshot's dead-letter list, and finishes the
  campaign with every other market intact; ``fail_fast=True`` lets the
  error abort the campaign instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.apk.archive import ApkParseError, parse_apk
from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.engine import CrawlEngine
from repro.crawler.journal import CampaignJournal, CrawlJournal
from repro.crawler.snapshot import (
    APK_FROM_ARCHIVE,
    APK_FROM_MARKET,
    HEALTH_DEGRADED,
    CrawlRecord,
    DeadLetter,
    MarketHealth,
    Snapshot,
)
from repro.crawler.strategies import strategy_for
from repro.crawler.telemetry import CrawlTelemetry
from repro.markets.server import MarketServer
from repro.net.breaker import (
    DEFAULT_BREAKER_POLICY,
    BreakerPolicy,
    MarketQuarantinedError,
)
from repro.net.client import HttpClient
from repro.net.http import ForbiddenError, HttpError, NotFoundError, RateLimitedError
from repro.net.identity import IdentityPolicy
from repro.obs import NULL_OBS, Observability
from repro.util.rng import stable_hash64
from repro.util.simtime import SimClock

__all__ = [
    "CrawlCoordinator",
    "CrawlStats",
    "REASON_QUARANTINED",
    "REASON_BANNED",
    "REASON_RATE_LIMITED",
    "REASON_RETRY_EXHAUSTED",
]

Metadata = Mapping[str, object]

#: Download outcomes a lane reports back to the merge step (besides the
#: snapshot's own APK_FROM_MARKET / APK_FROM_ARCHIVE source tags).
_DL_FAILED = "failed"
_DL_PARSE_ERROR = "parse_error"
_DL_QUARANTINED = "quarantined"

#: Dead-letter reason for work abandoned after breaker quarantine.
REASON_QUARANTINED = "market quarantined"

#: Dead-letter reason for work lost to an anti-bot ban the identity
#: pool could not dodge (rotation and waiting both exhausted).
REASON_BANNED = "banned"

#: Dead-letter reason for work the server shed by rate-limit policy.
REASON_RATE_LIMITED = "rate limited"

#: Dead-letter reason for work lost to persistent transport failures
#: (5xx / timeout / garbled payloads past the retry budget).
REASON_RETRY_EXHAUSTED = "retry exhausted"


@dataclass
class CrawlStats:
    """One campaign's outcome sets; its counters live in ``telemetry``."""

    apk_parse_errors: int = 0
    rate_limited_markets: Set[str] = field(default_factory=set)
    degraded_markets: Set[str] = field(default_factory=set)
    telemetry: Optional[CrawlTelemetry] = field(default=None, compare=False, repr=False)


class CrawlCoordinator:
    """Runs crawl campaigns against a set of market servers."""

    def __init__(
        self,
        servers: Mapping[str, MarketServer],
        clock: SimClock,
        gp_seeds: Iterable[str] = (),
        backfill: Optional[ArchiveBackfill] = None,
        download_apks: bool = True,
        workers: int = 1,
        journal: Optional[CrawlJournal] = None,
        fail_fast: bool = False,
        breaker_policy: Optional[BreakerPolicy] = DEFAULT_BREAKER_POLICY,
        obs: Observability = NULL_OBS,
        corpus=None,
        identity_policy: Optional[IdentityPolicy] = None,
        identity_seed: int = 0,
        transports: Optional[Mapping[str, object]] = None,
    ):
        """``transports`` routes lanes through substitute transports
        (e.g. a :class:`~repro.serving.ServingTier`'s sockets) instead
        of the servers' in-process ``handle``."""
        self._servers = dict(servers)
        self._clock = clock
        self._gp_seeds = list(gp_seeds)
        self._backfill = backfill
        self._download_apks = download_apks
        self._journal = journal
        self._fail_fast = fail_fast
        self._obs = obs
        self._corpus = corpus
        self._engine = CrawlEngine(
            self._servers,
            clock,
            workers=workers,
            breaker_policy=breaker_policy,
            obs=obs,
            identity_policy=identity_policy,
            identity_seed=identity_seed,
            transports=transports,
        )

    def client(self, market_id: str) -> HttpClient:
        return self._engine.client(market_id)

    @property
    def engine(self) -> CrawlEngine:
        return self._engine

    def close(self) -> None:
        """Release the engine's transports; idempotent."""
        self._engine.close()

    # -- checkpoint plumbing ----------------------------------------------

    def _checkpoint(self, market_id: str) -> dict:
        """The (server, lane) state one journal entry snapshots.

        Called from the lane's own thread right after a unit of work
        completes; both sides are lane-owned so no locking is needed.
        """
        return {
            "server": self._servers[market_id].export_state(),
            "lane": self._engine.lane_state(market_id),
        }

    def _restore_checkpoint(self, market_id: str, state: dict) -> None:
        self._servers[market_id].restore_state(state["server"])
        self._engine.restore_lane_state(market_id, state["lane"])

    # ------------------------------------------------------------------
    # campaign
    # ------------------------------------------------------------------

    def crawl(self, label: str, duration_days: float) -> Snapshot:
        """Run one full campaign and return its snapshot.

        The shared clock advances by ``duration_days`` once the campaign
        ends (the paper's campaign dates pin it).

        With tracing enabled the campaign is one trace (id = the
        campaign label): a root ``crawl.campaign`` span over per-market
        discovery/search/APK spans, which in turn parent the HTTP
        client's per-request spans.
        """
        if self._obs.tracer is not None:
            self._obs.tracer.set_trace(label)
        with self._obs.span(
            "crawl.campaign", clock=self._clock, label=label
        ) as campaign_span:
            snapshot = self._run_campaign(label, duration_days, campaign_span)
        return snapshot

    def _run_campaign(
        self, label: str, duration_days: float, campaign_span
    ) -> Snapshot:
        started = time.perf_counter()
        journal = self._journal.campaign(label) if self._journal is not None else None
        if journal is not None:
            # Journaled lanes rewind to their campaign-start state first,
            # so begin_campaign() baselines from the same point the
            # original run did (the servers may since have served a
            # replayed earlier campaign's worth of live traffic — or
            # none of it).
            for market_id in self._engine.market_ids:
                begin = journal.lane(market_id).begin_state()
                if begin is not None:
                    self._restore_checkpoint(market_id, begin)
        telemetry = self._engine.begin_campaign(label)
        if journal is not None:
            for market_id in self._engine.market_ids:
                lane = journal.lane(market_id)
                if lane.begin_state() is None:
                    lane.record_begin(self._checkpoint(market_id))
                else:
                    # Fast-forward to wherever the dead run stopped: the
                    # journaled entries will replay without touching the
                    # server, and the first live request continues from
                    # this state.
                    self._restore_checkpoint(market_id, lane.last_state())
        monitor = self._obs.monitor
        if monitor is not None:
            monitor.begin(label, self._engine, telemetry, self._clock)
        snapshot = Snapshot(label, store=self._corpus)
        stats = CrawlStats(telemetry=telemetry)
        pending: List[Tuple[str, str]] = []  # (package, app_name)
        searched: Set[str] = set()
        crawl_day = self._clock.now

        def park(letter: DeadLetter) -> None:
            """Park abandoned work; the telemetry counts it live."""
            snapshot.dead_letters.append(letter)
            telemetry.record_dead_letter(letter.market_id, letter.reason)

        def ingest(market_id: str, meta: Metadata) -> None:
            record = CrawlRecord.from_metadata(market_id, meta, crawl_day)
            if not snapshot.add(record):
                return
            telemetry.market(market_id).records += 1
            if record.package not in searched:
                searched.add(record.package)
                pending.append((record.package, record.app_name))

        def mark_degraded(market_id: str) -> None:
            stats.degraded_markets.add(market_id)

        active = [m for m, s in self._servers.items() if s.web_available]

        # Phase 1: per-market discovery, merged in canonical order.
        discovered = self._engine.run(
            {m: self._discovery_task(m, journal) for m in active}
        )
        for market_id in active:
            doc = discovered[market_id]
            for meta in doc["metas"]:
                ingest(market_id, meta)
            if doc["quarantined"]:
                mark_degraded(market_id)
                park(DeadLetter(market_id, "discovery", "catalog", REASON_QUARANTINED))
        if monitor is not None:
            monitor.tick("discovery")

        # Phase 2: cross-market search, round by round until the
        # frontier drains (each round searches everything new at once).
        # A quarantined market drops out of later rounds: its lane would
        # only fast-fail every query anyway.
        while pending:
            active = [m for m in active if m not in stats.degraded_markets]
            if not active:
                break
            batch, pending = pending, []
            telemetry.search_rounds += 1
            # The depth sample is stamped with the fleet's furthest lane
            # time: the shared clock is frozen mid-campaign, so lane
            # back-off is what moves simulated time forward here.
            telemetry.observe_queue_depth(
                len(batch), at=self._clock.now + self._engine.max_lane_backoff
            )
            # Each package is searched by package name and by app name.
            queries = [query for pair in batch for query in pair]
            round_no = telemetry.search_rounds
            results = self._engine.run(
                {m: self._search_task(m, queries, round_no, journal) for m in active}
            )
            for offset in range(0, len(queries), 2):
                for market_id in active:
                    for hits in results[market_id]["hits"][offset:offset + 2]:
                        for meta in hits:
                            ingest(market_id, meta)
            for market_id in active:
                doc = results[market_id]
                telemetry.market(market_id).searches += len(queries)
                if doc["quarantined"]:
                    mark_degraded(market_id)
                for query, reason in doc["dead"]:
                    park(DeadLetter(market_id, "search", query, reason))
            if monitor is not None:
                monitor.tick("search")

        # Phase 3: batched APK downloads, one lane per market.
        if self._download_apks:
            self._collect_apks(snapshot, stats, telemetry, journal, park)
            if monitor is not None:
                monitor.tick("apk")

        # Health: every market gets a verdict, even the clean ones.
        for market_id in self._servers:
            health = MarketHealth(
                market_id, completed=snapshot.market_size(market_id)
            )
            if market_id in stats.degraded_markets:
                health.status = HEALTH_DEGRADED
                telemetry.market(market_id).health = HEALTH_DEGRADED
            snapshot.health[market_id] = health
        for letter in snapshot.dead_letters:
            health = snapshot.health[letter.market_id]
            if letter.reason == REASON_QUARANTINED:
                health.quarantined += 1
            else:
                health.degraded += 1

        snapshot.stats = stats  # type: ignore[attr-defined]
        self._engine.end_campaign(telemetry)
        if monitor is not None:
            monitor.finish()
        telemetry.wall_seconds = time.perf_counter() - started
        campaign_span["records"] = telemetry.total_records
        campaign_span["searches"] = sum(m.searches for m in telemetry.markets.values())
        campaign_span["search_rounds"] = telemetry.search_rounds
        campaign_span["degraded_markets"] = sorted(stats.degraded_markets)
        self._clock.advance(duration_days)
        return snapshot

    # -- phase tasks (each runs inside one market's lane) -----------------

    def _discovery_task(self, market_id: str, journal: Optional[CampaignJournal]):
        server = self._servers[market_id]
        strategy_name = server.store.profile.crawl_strategy
        gate = getattr(server, "hostility", None)
        if gate is not None and gate.policy.package_list_only:
            # The market rejects catalog enumeration outright; the only
            # discovery surface left is its bare package-name list.
            strategy_name = "package_list"
        strategy = strategy_for(strategy_name, self._gp_seeds)
        client = self._engine.client(market_id)
        lane_clock = self._engine.lane(market_id).clock
        lane = journal.lane(market_id) if journal is not None else None

        def run() -> dict:
            with self._obs.span(
                "crawl.discovery", market=market_id, clock=lane_clock
            ) as span:
                cached = lane.replay("discovery", market_id) if lane is not None else None
                if cached is not None:
                    span["replayed"] = True
                    span["records"] = len(cached["metas"])
                    return cached
                metas: List[Metadata] = []
                quarantined = False
                try:
                    for meta in strategy.discover(client):
                        metas.append(meta)
                except MarketQuarantinedError:
                    if self._fail_fast:
                        raise
                    quarantined = True
                result = {"metas": metas, "quarantined": quarantined}
                if lane is not None:
                    lane.record(
                        "discovery", market_id, result, self._checkpoint(market_id)
                    )
                span["records"] = len(metas)
                span["quarantined"] = quarantined
                return result

        return run

    def _search_task(
        self,
        market_id: str,
        queries: Sequence[str],
        round_no: int,
        journal: Optional[CampaignJournal],
    ):
        client = self._engine.client(market_id)
        lane_clock = self._engine.lane(market_id).clock
        lane = journal.lane(market_id) if journal is not None else None
        # The key fingerprints the query batch so replaying a journal
        # against a diverged run (different seed/config) fails loudly.
        key = f"round-{round_no}:{stable_hash64('search-batch', tuple(queries)):016x}"

        def run() -> dict:
            with self._obs.span(
                "crawl.search",
                market=market_id,
                clock=lane_clock,
                round=round_no,
                queries=len(queries),
            ) as span:
                cached = lane.replay("search", key) if lane is not None else None
                if cached is not None:
                    span["replayed"] = True
                    return cached
                # A lost query gets an empty hit list (keeping the merge
                # step's offsets aligned) and, unless the answer was
                # definitive, a dead letter.
                hits: List[List[Metadata]] = []
                dead: List[List[str]] = []
                quarantined = False
                for query in queries:
                    try:
                        hits.append(client.get_json("/search", {"q": query}))
                        continue
                    except MarketQuarantinedError:
                        if self._fail_fast:
                            raise
                        # Stop sending: every remaining query is lost
                        # to the same quarantine.
                        quarantined = True
                        for lost in queries[len(hits):]:
                            hits.append([])
                            dead.append([lost, REASON_QUARANTINED])
                        break
                    except ForbiddenError as exc:
                        # An anti-bot ban that rotation/waiting could not
                        # clear is lost work; a policy 403 is a definitive
                        # answer (like 404).
                        if exc.retry_after is not None:
                            dead.append([query, REASON_BANNED])
                    except RateLimitedError:
                        dead.append([query, REASON_RATE_LIMITED])
                    except HttpError:
                        dead.append([query, REASON_RETRY_EXHAUSTED])
                    hits.append([])
                result = {"hits": hits, "quarantined": quarantined, "dead": dead}
                if lane is not None:
                    lane.record("search", key, result, self._checkpoint(market_id))
                span["quarantined"] = quarantined
                return result

        return run

    # ------------------------------------------------------------------
    # APKs
    # ------------------------------------------------------------------

    def _collect_apks(
        self,
        snapshot: Snapshot,
        stats: CrawlStats,
        telemetry: CrawlTelemetry,
        journal: Optional[CampaignJournal],
        park: Callable[[DeadLetter], None],
    ) -> None:
        sharded = {
            market_id: records
            for market_id in self._engine.market_ids
            if (records := snapshot.in_market(market_id))
        }
        outcomes = self._engine.run(
            {m: self._download_task(m, records, journal, snapshot)
             for m, records in sharded.items()}
        )
        for market_id, records in sharded.items():
            market = telemetry.market(market_id)
            doc = outcomes[market_id]
            if doc["rate_limited"]:
                stats.rate_limited_markets.add(market_id)
            if doc["quarantined"]:
                stats.degraded_markets.add(market_id)
            reasons = doc.get("reasons") or [None] * len(records)
            for record, outcome, reason in zip(records, doc["outcomes"], reasons):
                if outcome == APK_FROM_MARKET:
                    market.apk_downloaded += 1
                elif outcome == APK_FROM_ARCHIVE:
                    market.apk_backfilled += 1
                elif outcome == _DL_PARSE_ERROR:
                    stats.apk_parse_errors += 1
                else:
                    market.apk_missing += 1
                    if outcome == _DL_QUARANTINED:
                        reason = REASON_QUARANTINED
                    if reason is not None:
                        park(DeadLetter(market_id, "download", record.package, reason))

    def _download_task(
        self,
        market_id: str,
        records: Sequence[CrawlRecord],
        journal: Optional[CampaignJournal],
        snapshot: Snapshot,
    ):
        client = self._engine.client(market_id)
        backfill = self._backfill
        lane_clock = self._engine.lane(market_id).clock
        lane = journal.lane(market_id) if journal is not None else None

        def fetch(
            record: CrawlRecord, quarantined: bool
        ) -> Tuple[dict, object, Optional[bytes], bool]:
            """One live (market, package) fetch -> (doc, parsed, blob, quarantined)."""
            blob: Optional[bytes] = None
            source: Optional[str] = None
            rate_limited = False
            reason: Optional[str] = None
            if not quarantined:
                try:
                    blob = client.get_bytes("/download", {"package": record.package})
                    source = APK_FROM_MARKET
                except RateLimitedError:
                    # Quota shedding (Google Play): the backfill archive
                    # is the designed fallback, so this is not a dead
                    # letter on its own — apk_missing accounts it.
                    rate_limited = True
                except MarketQuarantinedError:
                    if self._fail_fast:
                        raise
                    quarantined = True
                except ForbiddenError as exc:
                    if exc.retry_after is not None:
                        reason = REASON_BANNED
                except NotFoundError:
                    pass  # definitive: the market no longer hosts it
                except HttpError:
                    reason = REASON_RETRY_EXHAUSTED
            if blob is None and backfill is not None:
                blob = backfill.lookup(record.package, record.version_name)
                if blob is not None:
                    source = APK_FROM_ARCHIVE
                    reason = None
            if blob is None:
                outcome = _DL_QUARANTINED if quarantined else _DL_FAILED
                return (
                    {"outcome": outcome, "md5": None, "source": None,
                     "rate_limited": rate_limited, "reason": reason},
                    None,
                    None,
                    quarantined,
                )
            try:
                parsed = parse_apk(blob)
            except ApkParseError:
                return (
                    {"outcome": _DL_PARSE_ERROR, "md5": None, "source": None,
                     "rate_limited": rate_limited, "reason": None},
                    None,
                    None,
                    quarantined,
                )
            md5 = journal.apks.put(parsed, blob) if journal is not None else parsed.md5
            return (
                {"outcome": source, "md5": md5, "source": source,
                 "rate_limited": rate_limited, "reason": None},
                parsed,
                blob,
                quarantined,
            )

        def run() -> dict:
            with self._obs.span(
                "crawl.apk_batch",
                market=market_id,
                clock=lane_clock,
                packages=len(records),
            ) as batch_span:
                outcomes: List[str] = []
                reasons: List[Optional[str]] = []
                rate_limited = False
                quarantined = False
                for record in records:
                    with self._obs.span(
                        "crawl.apk",
                        market=market_id,
                        clock=lane_clock,
                        package=record.package,
                    ) as span:
                        parsed = blob = None
                        doc = (
                            lane.replay("apk", record.package)
                            if lane is not None
                            else None
                        )
                        if doc is None:
                            doc, parsed, blob, quarantined = fetch(record, quarantined)
                            if lane is not None:
                                # The APK's row is committed before
                                # this line lands, so a torn entry never
                                # dangles.
                                lane.record(
                                    "apk",
                                    record.package,
                                    doc,
                                    self._checkpoint(market_id),
                                )
                        else:
                            span["replayed"] = True
                            quarantined = (
                                quarantined or doc["outcome"] == _DL_QUARANTINED
                            )
                        if doc["md5"] is not None:
                            if parsed is None:
                                parsed = journal.apk(doc["md5"])  # replayed
                            snapshot.attach_apk(record, parsed, doc["source"], blob)
                            parsed = blob = None  # released once attached
                        span["outcome"] = doc["outcome"]
                        span["source"] = doc["source"]
                        outcomes.append(doc["outcome"])
                        reasons.append(doc.get("reason"))
                        rate_limited = rate_limited or doc["rate_limited"]
                batch_span["quarantined"] = quarantined
                return {
                    "outcomes": outcomes,
                    "reasons": reasons,
                    "rate_limited": rate_limited,
                    "quarantined": quarantined,
                }

        return run

    # ------------------------------------------------------------------
    # targeted recheck (second campaign helper)
    # ------------------------------------------------------------------

    def recheck(
        self, targets: Mapping[str, Iterable[str]], duration_days: float = 7.0
    ) -> Dict[str, Dict[str, bool]]:
        """For each market, test which packages are still listed.

        Markets whose web interface has gone dark (HiApk, OPPO at the
        second crawl) are reported as absent from the result entirely, so
        callers can exclude them — as the paper excludes both from its
        Table 6 analysis.  A market still under breaker quarantine gets
        the same treatment: from the crawler's seat it *is* dark.
        """
        reachable = {
            market_id: list(packages)
            for market_id, packages in targets.items()
            if (server := self._servers.get(market_id)) is not None
            and server.web_available
        }
        checked = self._engine.run(
            {m: self._recheck_task(m, packages) for m, packages in reachable.items()}
        )
        self._clock.advance(duration_days)
        return {
            market_id: presence
            for market_id, presence in checked.items()
            if presence is not None
        }

    def _recheck_task(self, market_id: str, packages: Sequence[str]):
        client = self._engine.client(market_id)
        lane_clock = self._engine.lane(market_id).clock

        def run() -> Optional[Dict[str, bool]]:
            with self._obs.span(
                "crawl.recheck",
                market=market_id,
                clock=lane_clock,
                packages=len(packages),
            ) as span:
                market_presence: Dict[str, bool] = {}
                for package in packages:
                    try:
                        client.get_json("/app", {"package": package})
                        market_presence[package] = True
                    except MarketQuarantinedError:
                        if self._fail_fast:
                            raise
                        span["quarantined"] = True
                        return None  # quarantined: treat the market as dark
                    except HttpError:
                        market_presence[package] = False
                span["still_listed"] = sum(market_presence.values())
                return market_presence

        return run
