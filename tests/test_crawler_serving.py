"""Campaigns over the serving tier: the transport digest oracle.

The contract: ``content_digest()`` is bit-identical whether lanes call
``server.handle`` in-process or cross the asyncio serving tier's
sockets, and at any concurrency — including a campaign killed
mid-flight and resumed over sockets.
"""

import shutil

import pytest

from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.journal import CrawlJournal
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.serving import ServingTier
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=93, scale=0.0002).generate()


def crawl_once(world, transport="inprocess", workers=1, download_apks=True,
               root=None, resume=False, label="serving"):
    """One full campaign, optionally through a live serving tier."""
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(s, clock) for m, s in stores.items()}
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    tier = None
    transports = None
    journal = CrawlJournal(root, resume=resume) if root is not None else None
    coordinator = None
    try:
        if transport == "socket":
            tier = ServingTier(servers).start()
            transports = tier.transports()
        coordinator = CrawlCoordinator(
            servers,
            clock,
            gp_seeds=seeds,
            backfill=ArchiveBackfill(world) if download_apks else None,
            download_apks=download_apks,
            workers=workers,
            journal=journal,
            transports=transports,
        )
        snapshot = coordinator.crawl(label, duration_days=15.0)
    finally:
        if coordinator is not None:
            coordinator.close()
        if tier is not None:
            tier.stop()
        if journal is not None:
            journal.close()
    return snapshot


class TestTransportEngineOracle:
    @pytest.fixture(scope="class")
    def reference(self, world):
        snapshot = crawl_once(world)
        assert len(snapshot) > 0
        return snapshot

    # The ids keep their ``<transport>-thread-1-<workers>`` form from
    # when the engine and pipeline depth were parameters too.
    @pytest.mark.parametrize("transport,workers", [
        pytest.param("inprocess", 8, id="inprocess-thread-1-8"),
        pytest.param("socket", 1, id="socket-thread-1-1"),
        pytest.param("socket", 8, id="socket-thread-1-8"),
    ])
    def test_digest_invariant(self, world, reference, transport, workers):
        snapshot = crawl_once(world, transport=transport, workers=workers)
        assert snapshot.content_digest() == reference.content_digest()
        assert len(snapshot) == len(reference)

    def test_socket_traffic_actually_crossed_the_wire(self, world):
        stores = build_stores(world)
        clock = SimClock()
        servers = {m: MarketServer(s, clock) for m, s in stores.items()}
        tier = ServingTier(servers).start()
        coordinator = CrawlCoordinator(
            servers, clock, download_apks=False,
            transports=tier.transports(),
        )
        try:
            snapshot = coordinator.crawl("wire", duration_days=15.0)
        finally:
            coordinator.close()
            tier.stop()
        assert len(snapshot) > 0
        # Every lane request crossed a socket frame.
        assert tier.total_frames_served > 0
        total_served = sum(s.requests_served for s in servers.values())
        assert tier.total_frames_served == total_served


class TestKillAndResumeOverSockets:
    """Satellite: a socket-transport campaign killed mid-flight resumes
    to the same journal state and snapshot digest as in-process."""

    @pytest.fixture(scope="class")
    def reference(self, world, tmp_path_factory):
        # The uninterrupted in-process journaled run is the oracle.
        root = tmp_path_factory.mktemp("ckpt") / "ref"
        snapshot = crawl_once(world, root=root)
        assert len(snapshot) > 0
        return snapshot, root

    @staticmethod
    def _truncate_lines(path, keep):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:keep]), encoding="utf-8")

    @pytest.mark.parametrize("workers", [1, 8])
    def test_resume_over_socket_matches_inprocess(self, world, reference,
                                                  tmp_path, workers):
        ref_snapshot, ref_root = reference
        root = tmp_path / "cut"
        shutil.copytree(ref_root, root)
        # Kill mid-flight: every lane keeps roughly half its WAL.
        for lane in sorted((root / "serving").glob("*.jsonl")):
            total = len(lane.read_text(encoding="utf-8").splitlines())
            self._truncate_lines(lane, max(1, total // 2))
        resumed = crawl_once(world, transport="socket", workers=workers,
                             root=root, resume=True)
        assert resumed.content_digest() == ref_snapshot.content_digest()
        assert len(resumed) == len(ref_snapshot)
        assert resumed.degraded_markets() == []
        # The resumed journal converged on the same state as the
        # uninterrupted in-process run, lane by lane.
        ref_journal = CrawlJournal(ref_root, resume=True)
        cut_journal = CrawlJournal(root, resume=True)
        try:
            lanes = sorted(p.stem for p in (ref_root / "serving").glob("*.jsonl"))
            assert lanes
            for market_id in lanes:
                ref_lane = ref_journal.campaign("serving").lane(market_id)
                cut_lane = cut_journal.campaign("serving").lane(market_id)
                assert cut_lane.last_state() == ref_lane.last_state(), market_id
                assert cut_lane.entries == ref_lane.entries, market_id
        finally:
            ref_journal.close()
            cut_journal.close()
