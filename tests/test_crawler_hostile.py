"""Hostile-market integration: convergence, determinism, telemetry.

The scenario pack's acceptance properties:

* a crawler with credentials + identity rotation converges against a
  hostile fleet to the *same snapshot digest* as against a polite one
  (coverage is what hostility may cost; here rotation recovers it all);
* the digest is bit-identical at any worker count and across a
  kill-and-resume cut placed inside an active ban window;
* every hostility interaction is visible: client counters, telemetry
  aggregates, dead-letter reasons, and trace events.
"""

import json
import shutil

import pytest

from repro.crawler.crawler import (
    REASON_BANNED,
    CrawlCoordinator,
)
from repro.crawler.journal import CrawlJournal
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.hostility import HOSTILITY_BEHAVIORS, HostilityPolicy
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.identity import IdentityPolicy
from repro.obs import Observability
from repro.util.rng import stable_hash32
from repro.util.simtime import FIRST_CRAWL_DAY, SimClock

#: Markets whose profiles carry antibot behavior (see profiles.py).
ANTIBOT_MARKET = "baidu"

#: Gentle-but-real hostility tuning for the small test worlds: low
#: velocity limits so bans actually fire within a short campaign.
TIGHT = dict(velocity_limit=8, velocity_window=0.02, tarpit_strikes=1,
             tarpit_delay=0.02, ban_base=0.1, ban_cap=0.4)


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=77, scale=0.0002).generate()


def crawl_once(
    world,
    hostility=None,
    identity_policy=None,
    root=None,
    resume=False,
    workers=1,
    obs=None,
    download_apks=False,
):
    """One campaign; ``hostility`` maps market_id -> HostilityPolicy."""
    stores = build_stores(world)
    clock = SimClock()
    hostility = hostility or {}
    servers = {
        m: MarketServer(s, clock, hostility=hostility.get(m))
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
        backfill=None,
        download_apks=download_apks,
        workers=workers,
        journal=journal,
        obs=obs or Observability(),
        identity_policy=identity_policy,
        identity_seed=77,
    )
    try:
        snapshot = coordinator.crawl("hostile", duration_days=15.0)
    finally:
        coordinator.close()
        if journal is not None:
            journal.close()
    return snapshot, servers


def hostile_everywhere(stores_markets, behaviors=("auth", "binary", "antibot")):
    return {
        m: HostilityPolicy.for_behaviors(behaviors, **TIGHT)
        for m in stores_markets
    }


class TestConvergence:
    @pytest.fixture(scope="class")
    def polite(self, world):
        snapshot, _ = crawl_once(world)
        assert len(snapshot) > 0
        return snapshot

    def test_hostile_converges_to_polite_digest(self, world, polite):
        hostility = hostile_everywhere(polite.markets())
        snapshot, servers = crawl_once(
            world, hostility=hostility,
            identity_policy=IdentityPolicy(size=4),
        )
        assert snapshot.content_digest() == polite.content_digest()
        assert not snapshot.dead_letters
        # The hostility was real, not a no-op.
        telemetry = snapshot.stats.telemetry
        assert telemetry.total_logins > 0
        assert telemetry.total_bans_hit > 0
        assert telemetry.total_identity_rotations > 0
        gate = servers[ANTIBOT_MARKET].hostility
        assert gate.bans > 0 and gate.served_binary > 0

    def test_workers_do_not_change_the_digest(self, world, polite):
        hostility = hostile_everywhere(polite.markets())
        policy = IdentityPolicy(size=4)
        one, _ = crawl_once(world, hostility=hostility, identity_policy=policy,
                            workers=1)
        eight, _ = crawl_once(world, hostility=hostility, identity_policy=policy,
                              workers=8)
        assert one.content_digest() == eight.content_digest()
        assert one.content_digest() == polite.content_digest()


class TestPackageListMarket:
    def test_package_list_market_reaches_full_coverage(self, world):
        polite, _ = crawl_once(world)
        hostility = {
            ANTIBOT_MARKET: HostilityPolicy.for_behaviors(("package_list",))
        }
        snapshot, servers = crawl_once(world, hostility=hostility)
        # The market refused every enumeration surface, yet the paged
        # /packages walk recovers the identical catalog.
        assert snapshot.content_digest() == polite.content_digest()
        gate = servers[ANTIBOT_MARKET].hostility
        assert gate.rejected_403 == 0  # the strategy never even tried
        assert not snapshot.dead_letters


class TestFullyHostileAcceptance:
    """The ISSUE acceptance scenario: all four behaviors at once."""

    @pytest.fixture(scope="class")
    def runs(self, world):
        polite, _ = crawl_once(world)
        hostility = hostile_everywhere(
            polite.markets(), behaviors=("auth", "binary", "antibot", "package_list")
        )
        policy = IdentityPolicy(size=4)
        hostile, servers = crawl_once(
            world, hostility=hostility, identity_policy=policy
        )
        return polite, hostile, servers

    def test_campaign_completes_and_recovers_coverage(self, runs):
        polite, hostile, _ = runs
        assert hostile.degraded_markets() == []
        for market_id in polite.markets():
            baseline = polite.market_size(market_id)
            recovered = hostile.market_size(market_id)
            assert recovered >= 0.9 * baseline, (
                f"{market_id}: {recovered}/{baseline}"
            )

    def test_digest_matches_polite_baseline(self, runs):
        polite, hostile, _ = runs
        assert hostile.content_digest() == polite.content_digest()

    def test_every_behavior_fired(self, runs):
        # A well-behaved crawler never earns a 401 or an enumeration
        # 403 (it logs in proactively and switches to the package-list
        # walk), so each behavior shows up as what it *forced*: logins,
        # wire decodes, and absorbed bans.
        _, hostile, servers = runs
        fired = {"logins": 0, "bans": 0, "binary": 0}
        for server in servers.values():
            gate = server.hostility
            assert gate.policy.behaviors == HOSTILITY_BEHAVIORS
            fired["logins"] += gate.logins
            fired["bans"] += gate.bans
            fired["binary"] += gate.served_binary
        assert all(count > 0 for count in fired.values()), fired


class TestKillAndResumeMidBan:
    def truncate_lines(self, path, keep):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:keep]), encoding="utf-8")

    def find_mid_ban_cut(self, lane_path):
        """The entry index right after which some identity is mid-ban."""
        lines = lane_path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            entry = json.loads(line)
            state = entry.get("state") or {}
            gate_state = (state.get("server") or {}).get("hostility")
            lane_state = state.get("lane") or {}
            if not gate_state or "offset" not in lane_state:
                continue
            lane_now = FIRST_CRAWL_DAY + float(lane_state["offset"])
            for client in gate_state["clients"].values():
                if client["ban_until"] > lane_now:
                    return index + 1  # keep this entry; cut right after
        return None

    @pytest.mark.parametrize("workers", [1, 8])
    def test_resume_inside_an_active_ban_window(self, world, tmp_path, workers):
        hostility = {
            m: HostilityPolicy.for_behaviors(("auth", "antibot"), **TIGHT)
            for m in ("baidu", "market360")
        }
        policy = IdentityPolicy(size=2)
        ref_root = tmp_path / "ref"
        reference, _ = crawl_once(
            world, hostility=hostility, identity_policy=policy, root=ref_root
        )
        lane_path = ref_root / "hostile" / f"{ANTIBOT_MARKET}.jsonl"
        cut = self.find_mid_ban_cut(lane_path)
        assert cut is not None, "no journal entry carries an active ban"

        cut_root = tmp_path / "cut"
        shutil.copytree(ref_root, cut_root)
        self.truncate_lines(cut_root / "hostile" / f"{ANTIBOT_MARKET}.jsonl", cut)
        resumed, _ = crawl_once(
            world, hostility=hostility, identity_policy=policy,
            root=cut_root, resume=True, workers=workers,
        )
        assert resumed.content_digest() == reference.content_digest()

    def test_resume_from_halfway_with_full_hostility(self, world, tmp_path):
        hostility = hostile_everywhere(
            ("baidu", "tencent", "market360"),
            behaviors=("auth", "binary", "antibot", "package_list"),
        )
        policy = IdentityPolicy(size=4)
        ref_root = tmp_path / "ref"
        reference, _ = crawl_once(
            world, hostility=hostility, identity_policy=policy, root=ref_root
        )
        cut_root = tmp_path / "cut"
        shutil.copytree(ref_root, cut_root)
        for lane in sorted((cut_root / "hostile").glob("*.jsonl")):
            total = len(lane.read_text(encoding="utf-8").splitlines())
            self.truncate_lines(lane, max(1, total // 2))
        resumed, _ = crawl_once(
            world, hostility=hostility, identity_policy=policy,
            root=cut_root, resume=True, workers=4,
        )
        assert resumed.content_digest() == reference.content_digest()


class TestDeadLetterReasons:
    def test_unrotated_crawler_dead_letters_with_ban_reason(self, world):
        # No identity pool: the lane's single identity eats escalating
        # bans it cannot dodge, and the misses say why.
        hostility = {
            ANTIBOT_MARKET: HostilityPolicy.for_behaviors(
                ("antibot",), velocity_limit=3, velocity_window=0.02,
                tarpit_strikes=0, ban_base=2.0, ban_cap=8.0,
            )
        }
        snapshot, _ = crawl_once(world, hostility=hostility)
        assert snapshot.dead_letters
        assert all(l.reason == REASON_BANNED for l in snapshot.dead_letters)
        telemetry = snapshot.stats.telemetry
        reasons = telemetry.dead_letter_reasons()
        assert reasons.get(REASON_BANNED, 0) > 0
        report = telemetry.stats_report()
        assert "banned=" in report
        assert "hostility:" in report


class TestHostilityObservability:
    def test_trace_events_cover_the_hostile_interactions(self, world):
        obs = Observability.from_flags(trace=True, metrics=True)
        hostility = hostile_everywhere(("baidu", "tencent", "market360"))
        snapshot, _ = crawl_once(
            world, hostility=hostility,
            identity_policy=IdentityPolicy(size=3), obs=obs,
        )
        assert obs.tracer.events("auth.login")
        assert obs.tracer.events("ban.hit")
        rotations = obs.tracer.events("identity.rotate")
        assert rotations
        assert {e["attrs"]["reason"] for e in rotations} <= {"ban", "checkout"}
        # Telemetry counters agree with the metrics registry export.
        telemetry = snapshot.stats.telemetry
        assert telemetry.total_logins == len(obs.tracer.events("auth.login"))
        assert telemetry.total_bans_hit == len(obs.tracer.events("ban.hit"))

    def test_exported_trace_validates_against_the_schema(self, world, tmp_path):
        from repro.obs.schema import validate_metrics_file, validate_trace_file

        obs = Observability.from_flags(trace=True, metrics=True)
        crawl_once(
            world,
            hostility={"baidu": HostilityPolicy.for_behaviors(("auth", "antibot"),
                                                              **TIGHT)},
            identity_policy=IdentityPolicy(size=2), obs=obs,
        )
        trace_path, metrics_path = tmp_path / "t.jsonl", tmp_path / "m.jsonl"
        obs.export_trace(trace_path)
        obs.export_metrics(metrics_path)
        trace = validate_trace_file(trace_path)
        validate_metrics_file(metrics_path)
        names = {r["name"] for r in trace if r["kind"] == "event"}
        assert "ban.hit" in names
