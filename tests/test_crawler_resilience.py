"""Fault tolerance: kill-and-resume determinism and graceful degradation.

The two acceptance properties of the robustness layer:

* a campaign killed at an arbitrary point and resumed from its journal
  produces a snapshot bit-identical to an uninterrupted run, at any
  worker count;
* a market that blacks out mid-campaign degrades (breaker quarantine,
  dead letters, MarketHealth) instead of hanging or crashing the
  campaign — unless the operator asked for ``fail_fast``.
"""

import json
import shutil

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.journal import CrawlJournal
from repro.crawler.snapshot import HEALTH_DEGRADED
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.breaker import BreakerPolicy, MarketQuarantinedError
from repro.net.faults import FaultPlan
from repro.net.http import Response
from repro.util.rng import stable_hash32
from repro.util.simtime import FIRST_CRAWL_DAY, SimClock

BLACKOUT_MARKET = "baidu"  # integer-index walker: the nastiest to kill
BLACKOUT_ALL_CAMPAIGN = FaultPlan.blackout(FIRST_CRAWL_DAY, 20.0)


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=93, scale=0.0002).generate()


def crawl_once(world, root=None, resume=False, workers=1, market_faults=None,
               fail_fast=False, download_apks=True):
    stores = build_stores(world)
    clock = SimClock()
    market_faults = market_faults or {}
    servers = {
        m: MarketServer(s, clock, faults=market_faults.get(m))
        for m, s in stores.items()
    }
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    journal = CrawlJournal(root, resume=resume) if root is not None else None
    coordinator = CrawlCoordinator(
        servers,
        clock,
        gp_seeds=seeds,
        backfill=ArchiveBackfill(world) if download_apks else None,
        download_apks=download_apks,
        workers=workers,
        journal=journal,
        fail_fast=fail_fast,
    )
    try:
        snapshot = coordinator.crawl("resilience", duration_days=15.0)
    finally:
        if journal is not None:
            journal.close()
    return snapshot, coordinator


def client_counters(snapshot):
    """Every ClientStats counter of every lane, as the campaign recorded it."""
    return {
        market_id: lane.export_state()
        for market_id, lane in snapshot.stats.telemetry.markets.items()
    }


def truncate_lines(path, keep):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:keep]), encoding="utf-8")
    return len(lines)


class TestKillAndResume:
    """Simulated kills: the journal is cut, the campaign restarted."""

    @pytest.fixture(scope="class")
    def reference(self, world, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt") / "ref"
        snapshot, _ = crawl_once(world, root)
        assert len(snapshot) > 0
        return snapshot, root

    def _resume_after_cut(self, world, reference, tmp_path, cut, workers):
        ref_snapshot, ref_root = reference
        root = tmp_path / "cut"
        shutil.copytree(ref_root, root)
        cut(root / "resilience")
        resumed, _ = crawl_once(world, root, resume=True, workers=workers)
        assert resumed.content_digest() == ref_snapshot.content_digest()
        assert len(resumed) == len(ref_snapshot)
        assert resumed.degraded_markets() == []
        return resumed

    @pytest.mark.parametrize("workers", [1, 8])
    def test_resume_from_begin_only(self, world, reference, tmp_path, workers):
        # Killed right after campaign start: every lane keeps only its
        # begin entry, so the whole campaign re-runs live.
        def cut(campaign_dir):
            for lane in sorted(campaign_dir.glob("*.jsonl")):
                truncate_lines(lane, 1)

        self._resume_after_cut(world, reference, tmp_path, cut, workers)

    @pytest.mark.parametrize("workers", [1, 8])
    def test_resume_from_halfway(self, world, reference, tmp_path, workers):
        # Killed mid-flight: every lane keeps roughly half its entries,
        # each lane cut at a different phase of its own stream.
        def cut(campaign_dir):
            for lane in sorted(campaign_dir.glob("*.jsonl")):
                total = len(lane.read_text(encoding="utf-8").splitlines())
                truncate_lines(lane, max(1, total // 2))

        resumed = self._resume_after_cut(world, reference, tmp_path, cut, workers)
        assert client_counters(resumed) == client_counters(reference[0])

    @pytest.mark.parametrize("workers", [1, 8])
    def test_resume_from_near_end(self, world, reference, tmp_path, workers):
        # Killed in the home stretch: one busy lane loses its last two
        # entries, everything else is complete.
        def cut(campaign_dir):
            lanes = sorted(
                campaign_dir.glob("*.jsonl"),
                key=lambda p: len(p.read_text(encoding="utf-8").splitlines()),
            )
            busiest = lanes[-1]
            total = len(busiest.read_text(encoding="utf-8").splitlines())
            truncate_lines(busiest, max(1, total - 2))

        self._resume_after_cut(world, reference, tmp_path, cut, workers)

    def test_resume_from_torn_write(self, world, reference, tmp_path):
        # The process died mid-append: the busiest lane ends in half a
        # JSON line, which the loader must discard, not choke on.
        def cut(campaign_dir):
            lanes = sorted(
                campaign_dir.glob("*.jsonl"),
                key=lambda p: p.stat().st_size,
            )
            busiest = lanes[-1]
            data = busiest.read_bytes()
            cut_at = data.rfind(b"\n", 0, len(data) - 1)  # mid-final-line
            busiest.write_bytes(data[: cut_at + 30])

        self._resume_after_cut(world, reference, tmp_path, cut, workers=4)

    def test_completed_journal_replays_without_live_traffic(
        self, world, reference, tmp_path
    ):
        ref_snapshot, ref_root = reference
        root = tmp_path / "full"
        shutil.copytree(ref_root, root)
        resumed, _ = crawl_once(world, root, resume=True, workers=8)
        assert resumed.content_digest() == ref_snapshot.content_digest()
        # The restored telemetry still describes the original traffic.
        assert client_counters(resumed) == client_counters(ref_snapshot)
        assert resumed.stats.telemetry.total_requests > 0


class TestBlackoutDegradation:
    def test_blacked_out_market_degrades_not_hangs(self, world):
        snapshot, coordinator = crawl_once(
            world,
            market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            download_apks=False,
        )
        assert snapshot.degraded_markets() == [BLACKOUT_MARKET]
        health = snapshot.health[BLACKOUT_MARKET]
        assert health.status == HEALTH_DEGRADED
        assert not health.ok
        assert health.completed == 0
        assert snapshot.dead_letters
        assert all(l.market_id == BLACKOUT_MARKET for l in snapshot.dead_letters)
        assert coordinator.engine.lane(BLACKOUT_MARKET).breaker.quarantined

    def test_other_markets_unaffected_by_the_blackout(self, world):
        clean, _ = crawl_once(world, download_apks=False)
        degraded, _ = crawl_once(
            world,
            market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            download_apks=False,
        )
        for market_id in clean.markets():
            if market_id == BLACKOUT_MARKET:
                continue
            assert degraded.market_size(market_id) == clean.market_size(market_id), (
                market_id
            )

    def test_telemetry_reports_the_quarantine(self, world):
        snapshot, _ = crawl_once(
            world,
            market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            download_apks=False,
        )
        telemetry = snapshot.stats.telemetry
        lane = telemetry.markets[BLACKOUT_MARKET]
        assert lane.health == HEALTH_DEGRADED
        assert lane.breaker_trips > 0
        assert lane.breaker_fast_fails > 0
        assert lane.failures > 0
        assert telemetry.degraded_markets() == [BLACKOUT_MARKET]
        report = telemetry.stats_report()
        assert "degraded" in report
        assert BLACKOUT_MARKET in report

    def test_fail_fast_raises_instead(self, world):
        with pytest.raises(MarketQuarantinedError) as exc:
            crawl_once(
                world,
                market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
                download_apks=False,
                fail_fast=True,
            )
        assert exc.value.market_id == BLACKOUT_MARKET

    def test_degraded_campaign_is_still_deterministic(self, world, tmp_path):
        # Even a campaign that loses a market must replay exactly.
        root = tmp_path / "ckpt"
        original, _ = crawl_once(
            world, root,
            market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            download_apks=False,
        )
        campaign_dir = root / "resilience"
        for lane in sorted(campaign_dir.glob("*.jsonl")):
            total = len(lane.read_text(encoding="utf-8").splitlines())
            truncate_lines(lane, max(1, (2 * total) // 3))
        resumed, _ = crawl_once(
            world, root, resume=True,
            market_faults={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            download_apks=False,
        )
        assert resumed.content_digest() == original.content_digest()
        assert resumed.degraded_markets() == [BLACKOUT_MARKET]


class TestStudyLevelDegradation:
    """The end-to-end acceptance scenario: one dark market, full study."""

    @pytest.fixture(scope="class")
    def degraded_study(self):
        config = StudyConfig(
            seed=42,
            scale=0.0005,
            market_fault_plans={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
        )
        return Study(config).run()

    def test_study_completes_with_exactly_one_degraded_market(self, degraded_study):
        result = degraded_study
        assert result.degraded_markets == [BLACKOUT_MARKET]
        assert result.snapshot.health[BLACKOUT_MARKET].status == HEALTH_DEGRADED
        for market_id, health in result.snapshot.health.items():
            if market_id != BLACKOUT_MARKET:
                assert health.ok, market_id
        assert BLACKOUT_MARKET not in result.presence  # dark for the recheck

    def test_crawl_report_annotates_the_degradation(self, degraded_study):
        report = degraded_study.crawl_report()
        assert "degraded" in report
        assert BLACKOUT_MARKET in report

    def test_every_experiment_renders_with_a_degradation_note(self, degraded_study):
        from repro.experiments import EXPERIMENT_IDS, run_experiment

        for experiment_id in EXPERIMENT_IDS:
            if experiment_id == "churn":  # needs full_second_crawl
                continue
            report = run_experiment(experiment_id, degraded_study)
            rendered = report.render()
            assert rendered, experiment_id
            assert any("degraded" in note for note in report.notes), experiment_id

    def test_fail_fast_study_raises(self):
        config = StudyConfig(
            seed=42,
            scale=0.0005,
            market_fault_plans={BLACKOUT_MARKET: BLACKOUT_ALL_CAMPAIGN},
            fail_fast=True,
        )
        with pytest.raises(MarketQuarantinedError):
            Study(config).run()


class TestStudyLevelResume:
    def test_checkpointed_study_resumes_bit_identical(self, tmp_path):
        root = tmp_path / "ckpt"
        config = StudyConfig(
            seed=11, scale=0.0003, full_second_crawl=True,
            checkpoint_dir=str(root),
        )
        original = Study(config).run()
        # Kill simulation: lose the tail of the busiest first-campaign
        # lane and the *entire* second campaign.
        campaign_dir = root / "first"
        lanes = sorted(campaign_dir.glob("*.jsonl"), key=lambda p: p.stat().st_size)
        total = len(lanes[-1].read_text(encoding="utf-8").splitlines())
        truncate_lines(lanes[-1], max(1, total // 2))
        shutil.rmtree(root / "second")
        resumed = Study(
            StudyConfig(
                seed=11, scale=0.0003, full_second_crawl=True,
                checkpoint_dir=str(root), resume=True,
            )
        ).run()
        assert (resumed.snapshot.content_digest()
                == original.snapshot.content_digest())
        assert (resumed.second_snapshot.content_digest()
                == original.second_snapshot.content_digest())
        assert resumed.presence == original.presence


class TestSearchPhaseClassification:
    """Characterization of one lane's search round: every way a query
    can end maps to the same journaled result document."""

    MARKET = "tencent"
    HIT = {"package": "com.hit", "app_name": "Hit"}
    QUERIES = ["q-hits", "q-policy", "q-ban", "q-429", "q-5xx", "q-quarantine", "q-after"]

    def _run(self, world, fail_fast):
        sent = []

        def stub(request):
            query = request.params["q"]
            sent.append(query)
            if query == "q-policy":
                return Response.forbidden()
            if query == "q-ban":
                return Response.forbidden(retry_after=0.5)
            if query == "q-429":
                return Response.rate_limited(0.01)
            if query == "q-5xx":
                return Response(status=500)
            return Response.json_ok([dict(self.HIT)])

        clock = SimClock()
        store = build_stores(world)[self.MARKET]
        coordinator = CrawlCoordinator(
            {self.MARKET: MarketServer(store, clock)},
            clock,
            download_apks=False,
            fail_fast=fail_fast,
            # The 5xx give-up trips the breaker past its budget, so the
            # query after it meets the quarantine.
            breaker_policy=BreakerPolicy(failure_threshold=1, trip_budget=0),
            transports={self.MARKET: stub},
        )
        run = coordinator._search_task(self.MARKET, self.QUERIES, 1, None)
        return run, sent

    def test_result_document(self, world):
        run, sent = self._run(world, fail_fast=False)
        result = run()
        # Compared as the journal writes it: same keys, same order.
        assert json.dumps(result, separators=(",", ":")) == json.dumps({
            "hits": [[self.HIT], [], [], [], [], [], []],
            "quarantined": True,
            "dead": [
                ["q-ban", "banned"],
                ["q-429", "rate limited"],
                ["q-5xx", "retry exhausted"],
                ["q-quarantine", "market quarantined"],
                ["q-after", "market quarantined"],
            ],
        }, separators=(",", ":"))
        # 429 and 5xx ran out their budgets; nothing was sent once the
        # market was quarantined.
        assert sent.count("q-429") > 1 and sent.count("q-5xx") > 1
        assert "q-quarantine" not in sent and "q-after" not in sent

    def test_fail_fast_raises(self, world):
        run, sent = self._run(world, fail_fast=True)
        with pytest.raises(MarketQuarantinedError):
            run()
        assert "q-quarantine" not in sent
