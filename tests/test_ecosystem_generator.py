"""Ground-truth calibration tests for the ecosystem generator.

These run their own tiny world (independent of the session study) and
assert the generator's ground truth lands near the paper's targets.
Detection-side fidelity is covered in test_calibration_shapes.py.
"""

import sys

import numpy as np
import pytest

from repro.ecosystem.apps import PROVENANCE_CB_CLONE, PROVENANCE_FAKE, PROVENANCE_SB_CLONE
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.profiles import ALL_MARKET_IDS, GOOGLE_PLAY, get_profile


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=11, scale=0.0004).generate()


class TestStructure:
    def test_every_app_has_developer(self, world):
        assert all(a.developer is not None for a in world.apps)

    def test_unlisted_apps_only_from_delisting(self, world):
        # An app may end up with no placements only when every hosting
        # market's vetting caught its malicious/grayware update.
        for app in world.apps:
            if not app.placements:
                aggressive = {
                    l.package for l in world.catalog.aggressive_libraries
                }
                assert app.threat is not None or any(
                    pkg in aggressive for pkg, _ in app.libraries
                )

    def test_app_ids_sequential(self, world):
        assert [a.app_id for a in world.apps] == list(range(len(world.apps)))

    def test_package_unique_per_market(self, world):
        seen = set()
        for app, placement in world.iter_placements():
            key = (placement.market_id, app.package)
            assert key not in seen
            seen.add(key)

    def test_version_indexes_valid(self, world):
        for app, placement in world.iter_placements():
            assert 0 <= placement.version_index < len(app.versions)

    def test_deterministic(self):
        a = EcosystemGenerator(seed=3, scale=0.0002).generate()
        b = EcosystemGenerator(seed=3, scale=0.0002).generate()
        assert a.summary() == b.summary()
        assert [x.package for x in a.apps[:50]] == [x.package for x in b.apps[:50]]

    def test_seed_changes_world(self):
        a = EcosystemGenerator(seed=3, scale=0.0002).generate()
        b = EcosystemGenerator(seed=4, scale=0.0002).generate()
        assert [x.package for x in a.apps[:50]] != [x.package for x in b.apps[:50]]


class TestMarketSizes:
    def test_sizes_proportional_to_paper(self, world):
        sizes = {m: world.market_size(m) for m in ALL_MARKET_IDS}
        # Spot-check ordering of the big markets.
        assert sizes[GOOGLE_PLAY] > sizes["pp25"] > sizes["tencent"]
        assert sizes["tencent"] > sizes["baidu"]

    def test_gp_single_store_share(self, world):
        gp_apps = world.apps_in_market(GOOGLE_PLAY)
        single = sum(1 for a in gp_apps if len(a.placements) == 1)
        assert 0.6 < single / len(gp_apps) < 0.9  # paper: 77%


class TestMisbehaviorGroundTruth:
    def test_malware_rates_near_table4(self, world):
        for market in ("tencent", "pp25", GOOGLE_PLAY, "pconline"):
            apps = world.apps_in_market(market)
            rate = sum(1 for a in apps if a.threat is not None) / len(apps)
            target = get_profile(market).av10_rate / 100
            assert rate == pytest.approx(target, abs=max(0.04, target * 0.5))

    def test_gp_cleanest(self, world):
        def rate(market):
            apps = world.apps_in_market(market)
            return sum(1 for a in apps if a.threat is not None) / len(apps)

        gp = rate(GOOGLE_PLAY)
        assert all(rate(m) >= gp for m in ("tencent", "pconline", "oppo"))

    def test_clone_provenance_counts(self, world):
        summary = world.summary()
        assert summary["cb_clones"] > summary["sb_clones"] > 0

    def test_fakes_reference_popular_officials(self, world):
        fakes = [a for a in world.apps if a.provenance == PROVENANCE_FAKE]
        for fake in fakes:
            official = world.app(fake.related_app_id)
            assert official.popularity > 0.99
            assert fake.display_name == official.display_name
            assert fake.package != official.package

    def test_sb_clones_share_package_not_signature(self, world):
        for clone in world.apps:
            if clone.provenance != PROVENANCE_SB_CLONE:
                continue
            victim = world.app(clone.related_app_id)
            assert clone.package == victim.package
            assert clone.developer.fingerprint != victim.developer.fingerprint

    def test_cb_clones_new_package_similar_code(self, world):
        from repro.analysis.clones import block_overlap

        for clone in world.apps:
            if clone.provenance != PROVENANCE_CB_CLONE:
                continue
            victim = world.app(clone.related_app_id)
            assert clone.package != victim.package
            assert block_overlap(clone.own_code.blocks, victim.own_code.blocks) >= 0.85

    def test_repackaged_malware_share(self, world):
        malware = [a for a in world.apps if a.threat is not None]
        repack = sum(
            1 for a in malware
            if a.provenance in (PROVENANCE_SB_CLONE, PROVENANCE_CB_CLONE)
        )
        assert 0.15 < repack / len(malware) < 0.6  # paper: 38.3%

    def test_celebrities_seeded(self, world):
        packages = {a.package for a in world.apps}
        assert "com.ypt.merchant" in packages
        assert "com.zoner.android.eicar" in packages
        ypt = world.find_by_package("com.ypt.merchant")[0]
        assert ypt.threat.family == "ramnit"
        assert set(ypt.placements) == {"tencent", "wandoujia", "oppo", "pp25", "liqu"}


class TestVetting:
    def test_vetting_log_populated(self, world):
        assert world.vetting_log
        rejections = [r for r in world.vetting_log if not r.accepted]
        assert rejections  # strict markets do reject submissions

    def test_lax_markets_never_reject_threats(self, world):
        for record in world.vetting_log:
            if record.market_id in ("hiapk", "pconline"):
                if "security" in record.reason or "copyright" in record.reason:
                    pytest.fail("unvetted market rejected a submission")


class TestMetadata:
    def test_chinese_apps_older(self, world):
        import datetime

        from repro.util.simtime import date_to_day

        boundary = date_to_day(datetime.date(2017, 1, 1))

        def pre2017(scope):
            apps = [a for a in world.apps if a.scope == scope]
            return np.mean([a.last_update_day < boundary for a in apps])

        assert pre2017("china") > pre2017("global")

    def test_min_sdk_reasonable(self, world):
        for app in world.apps:
            assert 1 <= app.min_sdk <= app.target_sdk

    def test_downloads_reported_per_profile(self, world):
        for app, placement in world.iter_placements():
            reports = get_profile(placement.market_id).reports_downloads
            if not reports:
                assert placement.downloads is None

    def test_fake_downloads_low(self, world):
        for app in world.apps:
            if app.provenance != PROVENANCE_FAKE:
                continue
            for placement in app.placements.values():
                if placement.downloads is not None:
                    assert placement.downloads < 1000


class TestRepackagingChains:
    """Adversarial repackaging: chains, shared keys, boosted families."""

    @pytest.fixture(scope="class")
    def adversarial(self):
        from repro.ecosystem.threats import RepackagingModel

        return EcosystemGenerator(
            seed=7, scale=0.0004, repackaging=RepackagingModel.adversarial()
        ).generate()

    def test_default_world_has_no_chains(self, world):
        # The paper-calibrated model clones legit apps only: every
        # repack sits at depth 1, everything else at depth 0.
        for app in world.apps:
            if app.provenance in (PROVENANCE_SB_CLONE, PROVENANCE_CB_CLONE):
                assert app.clone_depth == 1
            else:
                assert app.clone_depth == 0

    def test_explicit_default_model_is_bit_identical(self):
        # RepackagingModel.default() must consume the same RNG stream as
        # passing nothing — the calibrated world cannot drift.
        from repro.ecosystem.threats import RepackagingModel

        implicit = EcosystemGenerator(seed=3, scale=0.0002).generate()
        explicit = EcosystemGenerator(
            seed=3, scale=0.0002, repackaging=RepackagingModel.default()
        ).generate()
        assert implicit.content_digest() == explicit.content_digest()

    def test_adversarial_builds_deep_chains(self, adversarial):
        depths = {}
        for app in adversarial.apps:
            depths[app.clone_depth] = depths.get(app.clone_depth, 0) + 1
        assert max(depths) >= 3
        # Chains thin out monotonically: every B -> C needs an A -> B.
        for depth in range(2, max(depths) + 1):
            assert depths[depth] <= depths[depth - 1]

    def test_chain_provenance_walkable(self, adversarial):
        # related_app_id points one link up; following it must land on
        # an app exactly one depth shallower, all the way to a legit root.
        for app in adversarial.apps:
            if app.clone_depth == 0:
                continue
            parent = adversarial.app(app.related_app_id)
            assert parent.clone_depth == app.clone_depth - 1
            if app.provenance == PROVENANCE_CB_CLONE and app.clone_depth > 1:
                assert parent.provenance == PROVENANCE_CB_CLONE

    def test_adjacent_chain_links_never_share_keys(self, adversarial):
        # A repack signed with its victim's key would read as legitimate
        # reuse and hide the clone from both detectors.
        for app in adversarial.apps:
            if app.provenance != PROVENANCE_CB_CLONE:
                continue
            victim = adversarial.app(app.related_app_id)
            assert app.developer.fingerprint != victim.developer.fingerprint

    def test_shared_signing_key_clusters(self, adversarial):
        # Persona key reuse concentrates many clones under few keys.
        by_key = {}
        for app in adversarial.apps:
            if app.provenance == PROVENANCE_CB_CLONE:
                fp = app.developer.fingerprint
                by_key[fp] = by_key.get(fp, 0) + 1
        assert max(by_key.values()) >= 20

    def test_family_boost_multiplies_clone_supply(self, world, adversarial):
        # Same scale (0.0004): the adversarial model's 4x family boost
        # must produce several times the default world's CB clones.
        default_cb = world.summary()["cb_clones"]
        boosted_cb = adversarial.summary()["cb_clones"]
        assert boosted_cb >= 2.5 * default_cb

    def test_adversarial_world_deterministic(self):
        from repro.ecosystem.threats import RepackagingModel

        a = EcosystemGenerator(
            seed=5, scale=0.0002, repackaging=RepackagingModel.adversarial()
        ).generate()
        b = EcosystemGenerator(
            seed=5, scale=0.0002, repackaging=RepackagingModel.adversarial()
        ).generate()
        assert a.content_digest() == b.content_digest()


class TestTemplateSpam:
    """App-factory spam: sub-threshold shared code, adversarial only."""

    @pytest.fixture(scope="class")
    def adversarial(self):
        from repro.ecosystem.threats import RepackagingModel

        return EcosystemGenerator(
            seed=7, scale=0.0004, repackaging=RepackagingModel.adversarial()
        ).generate()

    def test_absent_from_default_world(self, world):
        assert world.summary()["template_spam"] == 0

    def test_present_in_adversarial_world(self, adversarial):
        assert adversarial.summary()["template_spam"] > 0

    def test_each_studio_signs_with_one_key(self, adversarial):
        keys_by_studio = {}
        for app in adversarial.apps:
            if app.provenance == "template_spam":
                assert app.template_id is not None
                keys_by_studio.setdefault(app.template_id, set()).add(
                    app.developer.fingerprint
                )
        assert keys_by_studio
        for fingerprints in keys_by_studio.values():
            assert len(fingerprints) == 1

    def test_studio_mates_share_sub_threshold_code(self, adversarial):
        # The whole point: enough shared blocks to collide in posting
        # lists, never enough overlap to be a reportable clone.
        from repro.analysis.clones import block_overlap

        by_studio = {}
        for app in adversarial.apps:
            if app.provenance == "template_spam":
                by_studio.setdefault(app.template_id, []).append(app)
        for mates in by_studio.values():
            for a, b in zip(mates[:30], mates[1:31]):
                overlap = block_overlap(a.own_code.blocks, b.own_code.blocks)
                assert overlap < 0.7
                shared = set(a.own_code.blocks) & set(b.own_code.blocks)
                assert shared  # but they do share template code


class TestWorldDigestPins:
    """Literal world digests: a draw that moves anywhere in generation
    changes these (the e2e pins at seeds 1-10 and 42 sit outside the
    unit suite)."""

    @pytest.mark.parametrize("seed,digest", [
        (1, "acff74d7b23958ff3fdb9c9cc78aa30d"),
        (2, "9cb7d666677c33408d80af98a4419c21"),
        (42, "c3867e70a709c7d003e4862e61bdddc1"),
    ])
    def test_pinned_digest(self, seed, digest):
        assert EcosystemGenerator(seed, 0.0001).generate().content_digest() == digest


class TestWorldgenCallBudget:
    """World generation's cost as a count, so host noise cannot blur it:
    Python-level calls per generated app, counted the way
    ``TestFrameBudget`` counts (``sys.setprofile`` "call" events)."""

    #: Rebuilding every weight table and library row per app, and
    #: paying numpy's ``choice`` validation per pick, made 775 calls per
    #: app; precomputed tables and batched draws made 174, and deciding
    #: grayware flaggability once per app makes 145.  The bound leaves
    #: headroom for interpreter and numpy drift.
    CALLS_PER_APP = 200

    def test_calls_per_app(self):
        calls = 0

        def profile(frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            world = EcosystemGenerator(42, 0.0002).generate()
        finally:
            sys.setprofile(None)
        assert calls / len(world.apps) <= self.CALLS_PER_APP
