"""Benchmarks for the hostile-market scenario pack.

Three campaigns against the same world: a polite baseline, a naive
crawler against a fully hostile fleet (no identity pool — every ban is
a dead letter), and a rotation-enabled crawler against the same fleet.
The scale is pinned so the hostility pressure — and therefore the
enforced floor — is stable in CI smoke runs.  The bench prints records
and wall time for all three postures, the naive crawler's dead letters
(the coverage collapse the pack exists to fix), and the rotation-enabled
crawler's smallest recovery share.

Enforced floor: the rotation-enabled crawler recovers at least 90% of
the polite baseline's coverage on every market — in practice it
converges to the bit-identical snapshot digest, which is also asserted.
"""

import pytest

from repro.crawler.crawler import CrawlCoordinator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.hostility import HostilityPolicy
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.net.identity import IdentityPolicy
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock

from conftest import best_of

HOSTILE_SEED = 7
HOSTILE_SCALE = 0.0002
RECOVERY_FLOOR = 0.90


@pytest.fixture(scope="module")
def hostile_world():
    return EcosystemGenerator(seed=HOSTILE_SEED, scale=HOSTILE_SCALE).generate()


def _crawl(world, hostile=False, identity_pool=0):
    clock = SimClock()
    hostility = HostilityPolicy.full() if hostile else None
    servers = {
        m: MarketServer(store, clock, hostility=hostility)
        for m, store in build_stores(world).items()
    }
    seeds = [
        listing.package
        for listing in build_stores(world)["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    coordinator = CrawlCoordinator(
        servers, clock, gp_seeds=seeds, download_apks=False, workers=4,
        identity_policy=(
            IdentityPolicy(size=identity_pool) if identity_pool else None
        ),
        identity_seed=HOSTILE_SEED,
    )
    return coordinator.crawl("bench-hostility", duration_days=15.0)


def test_bench_hostility_recovery_floor(hostile_world):
    polite, polite_s = best_of(1, _crawl, hostile_world)
    naive = _crawl(hostile_world, hostile=True)
    rotated, rotated_s = best_of(
        2, _crawl, hostile_world, hostile=True, identity_pool=4
    )

    shares = {
        m: (rotated.market_size(m) / polite.market_size(m))
        for m in polite.markets()
        if polite.market_size(m)
    }
    print(
        f"\npolite {len(polite)} rec/{polite_s:.2f}s, "
        f"naive {len(naive)} rec ({len(naive.dead_letters)} dead letters), "
        f"rotated {len(rotated)} rec/{rotated_s:.2f}s "
        f"(min recovery {min(shares.values()):.1%})"
    )

    # The naive posture must actually be hurting, or the floor is vacuous.
    assert naive.dead_letters
    assert len(naive) < len(polite)
    # The enforced floor — and the stronger digest identity behind it.
    for market_id, share in shares.items():
        assert share >= RECOVERY_FLOOR, (market_id, share)
    assert rotated.content_digest() == polite.content_digest()
    assert not rotated.dead_letters
