"""World generation.

``EcosystemGenerator`` synthesizes a complete app ecosystem in stages:

1. **Quotas** — per-market catalog sizes proportional to Table 1, scaled.
2. **Base population** — Google-Play-only, mixed, and Chinese-only legit
   apps filling the quotas, with popularity-driven cross-listing
   (Section 5.2's single/multi-store structure).
3. **Developers** — heavy-tailed partition of apps into signing
   identities, scope-pure (Section 5.1's publishing strategies).
4. **Celebrity malware** — the paper's Table 5 apps, seeded verbatim.
5. **Fake apps** (Table 3) — same-name masquerades of popular officials.
6. **Signature-based clones** (Table 3) — same package, different key.
7. **Code-based clones** (Table 3, Figure 10) — repackaged code under a
   new package name, produced by a :class:`~repro.ecosystem.threats.
   RepackagingModel`: market-specific cloner personas, shared-signing-key
   developer clusters, and repackaging chains (clone-of-a-clone, with
   ``clone_depth``/``related_app_id`` provenance).
8. **Threats** (Table 4) — malware payload assignment (38.3% onto
   clones, per Section 6.4) and grayware (aggressive ad SDK) top-up,
   both passing through each market's vetting pipeline.
9. **Finalize** — per-market downloads via rank-mapping onto the
   market's Figure 2 bin row, ratings per Figure 6 patterns, category
   labels (including the NULL-category artifact of Section 4.1).

Misbehavior injection uses *vetting-aware top-up loops*: targets are the
paper's post-vetting rates, and every submission really passes through
:class:`~repro.markets.vetting.VettingPipeline`, so stricter markets
genuinely reject more attempts on the way to the same final rate.

The base population splits into a *plan* phase (quota accounting,
market picks, package claims), a *build* phase (body sampling from
index-keyed RNG substreams), and a *submit* phase (vetting +
registration in plan order); per-listing finalize draws are keyed by
``(market, app)`` the same way, so no draw depends on the order work is
done in (see DESIGN.md's index-keyed contract).  Stages report to the
``repro.obs`` profiler when one is passed in.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ecosystem.apps import (
    AppBlueprint,
    AppVersion,
    Placement,
    PROVENANCE_CB_CLONE,
    PROVENANCE_FAKE,
    PROVENANCE_LEGIT,
    PROVENANCE_SB_CLONE,
    PROVENANCE_TEMPLATE_SPAM,
    OwnCode,
    perturb_own_code,
    template_spam_code,
)
from repro.ecosystem.calibration import (
    CELEBRITY_MALWARE,
    MIXED_GP_TO_CN_SHARE,
    REPACKAGED_MALWARE_SHARE,
    SINGLE_STORE_GP_SHARE,
    sample_cn_market_count,
)
from repro.ecosystem.developers import Developer
from repro.ecosystem.libraries import LibraryCatalog, default_catalog
from repro.ecosystem.popularity import sample_listing_rating
from repro.ecosystem.sharding import (
    AppBody,
    AppPlan,
    BodySampler,
    build_bodies,
    downloads_for_percentile,
)
from repro.ecosystem.threats import (
    CHINESE_FAMILY_WEIGHTS,
    GP_FAMILY_WEIGHTS,
    ClonerPersona,
    RepackagingModel,
    ThreatProfile,
)
from repro.ecosystem.world import VettingRecord, World
from repro.markets.categories import taxonomy_for
from repro.markets.profiles import (
    ALL_MARKET_IDS,
    CHINESE_MARKET_IDS,
    GOOGLE_PLAY,
    MarketProfile,
    get_profile,
)
from repro.markets.vetting import Submission, VettingPipeline
from repro.obs import NULL_OBS, Observability
from repro.util.rng import RngFactory
from repro.util.simtime import FIRST_CRAWL_DAY
from repro.util import text

__all__ = ["EcosystemGenerator"]

#: P(>=1 engine flags a clean 360-packed app); see JIAGU_HEURISTIC_BREADTH.
_JIAGU_FLAG_SHARE = 0.15

#: P(AV-rank >= 10 | malware payload), used to convert Table 4 rates into
#: injection targets (Binomial(60, breadth>=0.22) clears 10 ~97% of the time).
_MALWARE_DETECTION_RATE = 0.97

#: Developer team-size distribution (mean ~3 apps per developer).
_DEV_SIZES = (1, 2, 3, 4, 5, 6, 8, 12, 20, 40)
_DEV_SIZE_WEIGHTS = (0.45, 0.20, 0.12, 0.07, 0.05, 0.03, 0.03, 0.03, 0.015, 0.005)

#: Floor on a market's synthesized size, so tiny scales still give
#: every market enough listings to measure.
MIN_MARKET_SIZE = 40


class EcosystemGenerator:
    """Generates a :class:`~repro.ecosystem.world.World`."""

    def __init__(
        self,
        seed: int,
        scale: float,
        catalog: Optional[LibraryCatalog] = None,
        min_market_size: int = MIN_MARKET_SIZE,
        obs: Observability = NULL_OBS,
        repackaging: Optional[RepackagingModel] = None,
    ):
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        self._seed = seed
        self._scale = scale
        self._rngs = RngFactory(seed).child("ecosystem")
        self._catalog = catalog or default_catalog()
        self._min_market_size = min_market_size
        self._obs = obs
        self._repackaging = repackaging or RepackagingModel.default()
        self._persona_devs: Dict[str, Developer] = {}

        self._world = World(seed=seed, scale=scale, catalog=self._catalog)
        self._package_markets: Dict[str, Set[str]] = {}
        self._market_members: Dict[str, List[int]] = {m: [] for m in ALL_MARKET_IDS}
        self._name_pool: List[str] = []
        self._sampler: Optional[BodySampler] = None
        self._vetting: Dict[str, VettingPipeline] = {}
        self._next_dev_id = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self) -> World:
        """Run all stages and return the finished world."""
        obs = self._obs
        self._vetting = {
            m: VettingPipeline(get_profile(m), self._rngs.stream("vetting", m))
            for m in ALL_MARKET_IDS
        }
        with obs.stage("ecosystem.plan"):
            quotas = self._market_quotas()
            self._build_name_pool(sum(quotas.values()))
            self._sampler = BodySampler(self._catalog, self._name_pool)
            plans = self._plan_base_population(quotas)
        with obs.stage("ecosystem.build"):
            bodies = build_bodies(self._rngs, self._sampler, plans)
        with obs.stage("ecosystem.submit"):
            self._register_base_population(plans, bodies)
        with obs.stage("ecosystem.developers"):
            self._assign_developers()
        with obs.stage("ecosystem.misbehavior"):
            self._seed_celebrities()
            self._inject_fakes()
            self._inject_sb_clones()
            self._inject_cb_clones()
            self._inject_template_spam()
        with obs.stage("ecosystem.threats"):
            self._inject_threats()
        with obs.stage("ecosystem.finalize"):
            self._finalize_listings()
        from repro.store.corpus import AppTable

        self._world.apps = AppTable.of(self._world.apps)
        return self._world

    # ------------------------------------------------------------------
    # stage 1: quotas
    # ------------------------------------------------------------------

    def _market_quotas(self) -> Dict[str, int]:
        quotas = {}
        for market_id in ALL_MARKET_IDS:
            profile = get_profile(market_id)
            quotas[market_id] = max(
                self._min_market_size, int(round(profile.paper_size * self._scale))
            )
        return quotas

    # ------------------------------------------------------------------
    # stage 2: base population (plan -> build -> submit)
    # ------------------------------------------------------------------

    def _build_name_pool(self, total_quota: int) -> None:
        rng = self._rngs.stream("name-pool")
        pool_size = max(30, total_quota // 60)
        self._name_pool = [
            text.app_display_name(rng, common_fraction=0.0) for _ in range(pool_size)
        ]

    def _plan_base_population(self, quotas: Dict[str, int]) -> List[AppPlan]:
        """The serial planning pass: every draw that touches shared state.

        Quota decrements, market picks, and unique-package claims depend
        on each other app-to-app, so they stay on one stream, in one
        deterministic order.  Everything else about an app is deferred to
        the sharded build phase, keyed by the plan index recorded here.
        """
        rng = self._rngs.stream("base-population")
        plans: List[AppPlan] = []

        def plan(scope: str, popularity: float, markets: Tuple[str, ...]) -> None:
            package = self._unique_package(rng)
            self._package_markets.setdefault(package, set())
            plans.append(
                AppPlan(
                    index=len(plans),
                    scope=scope,
                    popularity=popularity,
                    markets=markets,
                    package=package,
                )
            )

        gp_quota = quotas[GOOGLE_PLAY]
        n_gp_only = int(round(gp_quota * SINGLE_STORE_GP_SHARE))
        n_mixed = gp_quota - n_gp_only

        for _ in range(n_gp_only):
            plan("global", float(rng.random()), (GOOGLE_PLAY,))

        cn_remaining = {m: quotas[m] for m in CHINESE_MARKET_IDS}

        for _ in range(n_mixed):
            popularity = float(rng.beta(1.8, 1.1))
            markets = (GOOGLE_PLAY,) + self._pick_cn_markets(
                rng, popularity, cn_remaining, cap=4 if popularity < 0.99 else None
            )
            plan("mixed", popularity, markets)

        # Chinese-only apps fill the remaining Chinese quotas.
        while any(v > 0 for v in cn_remaining.values()):
            popularity = float(rng.beta(1.0, 1.6))
            markets = self._pick_cn_markets(rng, popularity, cn_remaining)
            if not markets:
                break
            scope = "china"
            if rng.random() < MIXED_GP_TO_CN_SHARE * 0.08:
                # A slice of Chinese developers cross-list to Google Play
                # beyond the mixed population above.
                markets = (GOOGLE_PLAY,) + markets
                scope = "mixed"
            plan(scope, popularity, markets)
        return plans

    def _register_base_population(
        self, plans: Sequence[AppPlan], bodies: Sequence[AppBody]
    ) -> None:
        """The serial submit pass, in plan-index order.

        Vetting pipelines are stateful per-market streams; consuming them
        in index order is what makes the merged world independent of how
        the build phase was chunked.
        """
        for plan, body in zip(plans, bodies):
            rng = self._rngs.stream("register", plan.index)
            self._register(
                rng,
                scope=plan.scope,
                popularity=plan.popularity,
                markets=plan.markets,
                package=plan.package,
                body=body,
            )

    def _pick_cn_markets(
        self,
        rng: np.random.Generator,
        popularity: float,
        remaining: Dict[str, int],
        cap: Optional[int] = None,
    ) -> Tuple[str, ...]:
        """Choose Chinese markets weighted by remaining quota.

        Single-market apps favor stores with high single-store shares
        (AnZhi, OPPO, 25PP per Section 5.2); multi-market picks follow
        quota so totals land on Table 1's proportions.  ``cap`` bounds
        the spread (used for GP-first developers, who cross-list into a
        handful of Chinese stores at most — Section 5.2's 20-30% overlap).
        """
        open_markets = [m for m in CHINESE_MARKET_IDS if remaining[m] > 0]
        if not open_markets:
            return ()
        k = min(sample_cn_market_count(popularity, rng), len(open_markets))
        if cap is not None:
            k = min(k, cap)
        if k == 1:
            weights = np.asarray(
                [remaining[m] * (0.02 + get_profile(m).single_store_share)
                 for m in open_markets]
            )
        else:
            weights = np.asarray([float(remaining[m]) for m in open_markets])
        weights = weights / weights.sum()
        chosen = rng.choice(len(open_markets), size=k, replace=False, p=weights)
        picked = tuple(open_markets[int(i)] for i in chosen)
        for m in picked:
            remaining[m] -= 1
        return picked

    # ------------------------------------------------------------------
    # app factory
    # ------------------------------------------------------------------

    def _unique_package(self, rng: np.random.Generator) -> str:
        for _ in range(20):
            package = text.package_name(rng)
            if package not in self._package_markets:
                return package
        raise RuntimeError("could not find a unique package name")

    @staticmethod
    def _clone_versions(
        rng: np.random.Generator, victim: AppBlueprint
    ) -> Tuple[AppVersion, ...]:
        """A clone's version history: a prefix of the victim's.

        Repackagers take an existing build and re-sign it, so the clone's
        version numbering never runs ahead of the original's — which is
        also what keeps Figure 9 sound (a clone cannot make the original
        look outdated).
        """
        cut = int(rng.integers(1, len(victim.versions) + 1))
        return victim.versions[:cut]

    def _new_app(
        self,
        rng: np.random.Generator,
        scope: str,
        popularity: float,
        markets: Sequence[str],
        display_name: Optional[str] = None,
        package: Optional[str] = None,
        provenance: str = PROVENANCE_LEGIT,
        related_app_id: Optional[int] = None,
        clone_depth: int = 0,
        template_id: Optional[int] = None,
        own_code: Optional[OwnCode] = None,
        libraries: Optional[Tuple[Tuple[str, int], ...]] = None,
        threat: Optional[ThreatProfile] = None,
        developer: Optional[Developer] = None,
        forced: bool = False,
        versions: Optional[Tuple[AppVersion, ...]] = None,
    ) -> Optional[AppBlueprint]:
        """Create an app, submit it to its markets, and register it.

        The injection-stage path: body and submission draws share one
        stage stream (injections are inherently serial — they read the
        already-registered world).  Returns the blueprint, or ``None``
        if vetting rejected it from every market.  ``versions``
        overrides the sampled history — clones ship under their victim's
        version numbering, never ahead of it.
        """
        package = package or self._unique_package(rng)
        body = self._sampler.sample_body(
            rng,
            scope=scope,
            popularity=popularity,
            markets=markets,
            package=package,
            display_name=display_name,
            own_code=own_code,
            libraries=libraries,
            versions=versions,
        )
        return self._register(
            rng,
            scope=scope,
            popularity=popularity,
            markets=markets,
            package=package,
            body=body,
            provenance=provenance,
            related_app_id=related_app_id,
            clone_depth=clone_depth,
            template_id=template_id,
            threat=threat,
            developer=developer,
            forced=forced,
        )

    def _register(
        self,
        rng: np.random.Generator,
        *,
        scope: str,
        popularity: float,
        markets: Sequence[str],
        package: str,
        body: AppBody,
        provenance: str = PROVENANCE_LEGIT,
        related_app_id: Optional[int] = None,
        clone_depth: int = 0,
        template_id: Optional[int] = None,
        threat: Optional[ThreatProfile] = None,
        developer: Optional[Developer] = None,
        forced: bool = False,
    ) -> Optional[AppBlueprint]:
        """Submit a sampled body to its markets and register the result.

        Returns the blueprint, or ``None`` if vetting rejected it from
        every market.  Placements only exist for accepting markets.
        """
        blueprint = AppBlueprint(
            app_id=len(self._world.apps),
            package=package,
            display_name=body.display_name,
            category=body.category,
            developer=developer,  # may be assigned later for base apps
            scope=scope,
            popularity=popularity,
            quality=body.quality,
            min_sdk=body.min_sdk,
            target_sdk=body.target_sdk,
            release_day=body.versions[0].release_day,
            versions=body.versions,
            own_code=body.own_code,
            libraries=body.libraries,
            permissions_requested=body.permissions_requested,
            threat=threat,
            provenance=provenance,
            related_app_id=related_app_id,
            clone_depth=clone_depth,
            template_id=template_id,
        )
        accepted_any = False
        for market_id in markets:
            if self._submit(blueprint, market_id, rng, forced=forced):
                accepted_any = True
        if not accepted_any:
            return None
        self._world.apps.append(blueprint)
        if blueprint.threat is not None:
            self._world.threat_feed.record(blueprint.threat)
        return blueprint

    def _submit(
        self,
        blueprint: AppBlueprint,
        market_id: str,
        rng: np.random.Generator,
        forced: bool = False,
    ) -> bool:
        """Submit one app to one market through its vetting pipeline."""
        occupied = self._package_markets.setdefault(blueprint.package, set())
        if market_id in occupied:
            return False  # a market lists at most one app per package
        pipeline = self._vetting[market_id]
        threat_kind = (
            blueprint.threat.family_def.kind if blueprint.threat is not None else None
        )
        submission = Submission(
            package=blueprint.package,
            developer_is_company=blueprint.popularity > 0.15 or rng.random() < 0.6,
            apk_size_mb=float(rng.uniform(2, 80)),
            threat_kind=threat_kind,
            is_fake=blueprint.provenance == PROVENANCE_FAKE,
            is_clone=blueprint.provenance in (PROVENANCE_SB_CLONE, PROVENANCE_CB_CLONE),
            forced=forced,
        )
        verdict = pipeline.review(submission)
        self._world.vetting_log.append(
            VettingRecord(market_id, blueprint.app_id, verdict.accepted, verdict.reason)
        )
        if not verdict.accepted:
            return False

        profile = get_profile(market_id)
        version_index = self._version_index_for(blueprint, profile, rng)
        listed_day = int(
            blueprint.versions[version_index].release_day
            + pipeline.vetting_delay_days()
        )
        blueprint.placements[market_id] = Placement(
            market_id=market_id,
            version_index=version_index,
            category_label="",  # finalized later
            downloads=None,
            rating=None,
            listed_day=min(listed_day, FIRST_CRAWL_DAY - 1),
        )
        occupied.add(market_id)
        self._market_members[market_id].append(blueprint.app_id)
        return True

    @staticmethod
    def _version_index_for(
        blueprint: AppBlueprint, profile: MarketProfile, rng: np.random.Generator
    ) -> int:
        latest = blueprint.latest_version_index
        if latest == 0 or rng.random() < profile.highest_version_share:
            return latest
        lag = 1 + int(rng.geometric(0.55)) - 1
        return max(0, latest - lag)

    # ------------------------------------------------------------------
    # stage 3: developers
    # ------------------------------------------------------------------

    def _new_developer(self, rng: np.random.Generator, region: str) -> Developer:
        dev_id = self._next_dev_id
        self._next_dev_id += 1
        name = text.developer_name(rng, region)
        alt_names = ()
        if region == "china" and rng.random() < 0.15:
            alt_names = (name.replace("Co., Ltd.", "Technology").strip(),)
        dev = Developer(dev_id=dev_id, name=name, region=region, alt_names=alt_names)
        self._world.developers.append(dev)
        return dev

    def _assign_developers(self) -> None:
        rng = self._rngs.stream("developers")
        groups: Dict[str, List[AppBlueprint]] = {"global": [], "mixed": [], "china": []}
        for app in self._world.apps:
            if app.developer is None:
                groups[app.scope].append(app)
        sizes = np.asarray(_DEV_SIZES)
        size_probs = np.asarray(_DEV_SIZE_WEIGHTS)
        size_probs = size_probs / size_probs.sum()
        for scope, apps in groups.items():
            order = rng.permutation(len(apps))
            i = 0
            while i < len(apps):
                team = int(rng.choice(sizes, p=size_probs))
                if scope == "global":
                    region = "global"
                elif scope == "china":
                    region = "china"
                else:
                    region = "china" if rng.random() < 0.6 else "global"
                dev = self._new_developer(rng, region)
                for j in order[i : i + team]:
                    apps[int(j)].developer = dev
                i += team

    # ------------------------------------------------------------------
    # stage 4: celebrity malware (Table 5)
    # ------------------------------------------------------------------

    def _seed_celebrities(self) -> None:
        rng = self._rngs.stream("celebrities")
        for celeb in CELEBRITY_MALWARE:
            dev = self._new_developer(rng, "china")
            threat = ThreatProfile(family=celeb.family, variant=0)
            self._new_app(
                rng,
                scope="china" if GOOGLE_PLAY not in celeb.markets else "mixed",
                popularity=float(rng.uniform(0.5, 0.9)),
                markets=celeb.markets,
                display_name=celeb.display_name,
                package=celeb.package,
                threat=threat,
                developer=dev,
                forced=True,
            )

    # ------------------------------------------------------------------
    # stage 5-7: fakes and clones
    # ------------------------------------------------------------------

    def _bernoulli_round(self, rng: np.random.Generator, x: float) -> int:
        base = int(math.floor(x))
        return base + (1 if rng.random() < (x - base) else 0)

    def _misbehavior_target(self, market_id: str, rate_pct: float) -> float:
        """Target count so the final share (after injections grow the
        denominator) lands on the paper's rate."""
        profile = get_profile(market_id)
        inflow = (profile.fake_rate + profile.sb_clone_rate + profile.cb_clone_rate) / 100.0
        current = len(self._market_members[market_id])
        final_size = current / max(0.4, 1.0 - inflow)
        return final_size * rate_pct / 100.0

    def _official_candidates(self) -> List[AppBlueprint]:
        """Popular, distinctively-named apps — fake-app targets.

        Restricted to apps that will plausibly show >1M installs in some
        store (top of the popularity range, listed in a market with a
        meaningful >1M bin) under a name no other app uses — the shape
        the Section 6.1 heuristic anchors on.
        """
        name_counts: Dict[str, int] = {}
        for app in self._world.apps:
            name_counts[app.display_name] = name_counts.get(app.display_name, 0) + 1

        def has_big_market(app: AppBlueprint) -> bool:
            return any(
                get_profile(m).download_bin_shares[-1] >= 0.004
                for m in app.placements
            )

        return [
            app
            for app in self._world.apps
            if app.popularity >= 0.997
            and app.provenance == PROVENANCE_LEGIT
            and name_counts[app.display_name] == 1
            and has_big_market(app)
        ]

    def _inject_fakes(self) -> None:
        rng = self._rngs.stream("fakes")
        officials = self._official_candidates()
        if not officials:
            return
        weights = np.asarray([app.popularity for app in officials])
        weights = weights / weights.sum()
        deficits = {
            m: self._bernoulli_round(
                rng, self._misbehavior_target(m, get_profile(m).fake_rate)
            )
            for m in ALL_MARKET_IDS
        }
        attempts = 0
        budget = 40 * (sum(deficits.values()) + 1)
        while any(d > 0 for d in deficits.values()) and attempts < budget:
            attempts += 1
            market = max(deficits, key=deficits.get)
            if deficits[market] <= 0:
                break
            official = officials[int(rng.choice(len(officials), p=weights))]
            extra = [
                m for m in ALL_MARKET_IDS
                if deficits[m] > 0 and m != market and rng.random() < 0.25
            ][:2]
            dev = self._new_developer(rng, "china" if market != GOOGLE_PLAY else "global")
            threat = None
            if rng.random() < 0.4:
                family = self._sample_family(rng, "china" if market != GOOGLE_PLAY else "global")
                threat = ThreatProfile(family=family, variant=int(rng.integers(0, 30)))
            app = self._new_app(
                rng,
                scope="china" if market != GOOGLE_PLAY else "global",
                popularity=float(rng.uniform(0.0, 0.10)),
                markets=[market] + extra,
                display_name=official.display_name,
                provenance=PROVENANCE_FAKE,
                related_app_id=official.app_id,
                threat=threat,
                developer=dev,
            )
            if app is None:
                continue
            for m in app.placements:
                deficits[m] -= 1

    def _inject_sb_clones(self) -> None:
        rng = self._rngs.stream("sb-clones")
        victims = [
            app for app in self._world.apps
            if app.provenance == PROVENANCE_LEGIT and app.popularity >= 0.6
        ]
        if not victims:
            return
        # Popular apps attract cloning; purely-global apps a bit less,
        # since repackagers target the Chinese distribution channels.
        weights = np.asarray([
            app.popularity ** 3 * (0.6 if app.scope == "global" else 1.0)
            for app in victims
        ])
        weights = weights / weights.sum()
        deficits = {
            m: self._bernoulli_round(
                rng, self._misbehavior_target(m, get_profile(m).sb_clone_rate)
            )
            for m in ALL_MARKET_IDS
        }
        attempts = 0
        budget = 40 * (sum(deficits.values()) + 1)
        while any(d > 0 for d in deficits.values()) and attempts < budget:
            attempts += 1
            market = max(deficits, key=deficits.get)
            if deficits[market] <= 0:
                break
            victim = victims[int(rng.choice(len(victims), p=weights))]
            occupied = self._package_markets.get(victim.package, set())
            if market in occupied:
                continue
            targets = [market] + [
                m for m in ALL_MARKET_IDS
                if deficits[m] > 0 and m != market and m not in occupied
                and rng.random() < 0.3
            ][:3]
            dev = self._new_developer(rng, "china")
            own = perturb_own_code(rng, victim.own_code)
            app = self._new_app(
                rng,
                scope="china" if market != GOOGLE_PLAY else "global",
                popularity=float(rng.uniform(0.0, 0.35)),
                markets=targets,
                display_name=victim.display_name,
                package=victim.package,
                provenance=PROVENANCE_SB_CLONE,
                related_app_id=victim.app_id,
                clone_depth=1,
                own_code=own,
                libraries=victim.libraries,
                developer=dev,
                versions=self._clone_versions(rng, victim),
            )
            if app is None:
                continue
            for m in app.placements:
                deficits[m] -= 1

    def _persona_for(
        self, rng: np.random.Generator, market: str
    ) -> ClonerPersona:
        """The cloner persona operating this market's top-up attempt.

        A single-persona model consumes no RNG draw — the default
        profile must leave the ``cb-clones`` stream's draw sequence
        exactly as the Table 3 calibration was tuned against.
        """
        personas = [
            p for p in self._repackaging.personas if p.operates_in(market)
        ]
        if not personas:
            personas = list(self._repackaging.personas)
        if len(personas) == 1:
            return personas[0]
        return personas[int(rng.integers(len(personas)))]

    def _persona_developer(
        self,
        rng: np.random.Generator,
        persona: ClonerPersona,
        victim_dev: Optional[Developer],
    ) -> Developer:
        """The signing identity for one of the persona's clones.

        Persona key reuse builds shared-signing-key developer clusters,
        but a chain link must never share its parent's key — same-signer
        pairs read as legitimate reuse, which would hide the repack.
        """
        if persona.key_reuse > 0 and rng.random() < persona.key_reuse:
            dev = self._persona_devs.get(persona.name)
            if dev is None:
                dev = self._new_developer(rng, "china")
                self._persona_devs[persona.name] = dev
            if victim_dev is None or dev.fingerprint != victim_dev.fingerprint:
                return dev
        return self._new_developer(rng, "china")

    def _inject_cb_clones(self) -> None:
        """Code-based clones, produced by the repackaging model's
        personas: mostly direct repacks of popular legit apps, plus
        repackaging chains (clone-of-a-clone, ``clone_depth`` tracking
        the hop count and ``related_app_id`` one link up)."""
        rng = self._rngs.stream("cb-clones")
        victims = [
            app for app in self._world.apps
            if app.provenance == PROVENANCE_LEGIT and app.popularity >= 0.5
        ]
        if not victims:
            return
        weights = np.asarray([
            app.popularity ** 2 * (0.6 if app.scope == "global" else 1.0)
            for app in victims
        ])
        weights = weights / weights.sum()
        boost = self._repackaging.family_boost
        deficits = {
            m: self._bernoulli_round(
                rng,
                boost * self._misbehavior_target(m, get_profile(m).cb_clone_rate),
            )
            for m in ALL_MARKET_IDS
        }
        repacks: List[AppBlueprint] = []  # this stage's clones: chain fodder
        attempts = 0
        budget = 30 * (sum(deficits.values()) + 1)
        while any(d > 0 for d in deficits.values()) and attempts < budget:
            attempts += 1
            market = max(deficits, key=deficits.get)
            if deficits[market] <= 0:
                break
            persona = self._persona_for(rng, market)
            chain_pool = [
                a for a in repacks if a.clone_depth < persona.max_chain_depth
            ]
            # Guarded draws: an inert persona (no chains, no key reuse)
            # consumes nothing, keeping the stream calibration-identical.
            if (
                persona.chain_share > 0
                and chain_pool
                and rng.random() < persona.chain_share
            ):
                victim = chain_pool[int(rng.integers(len(chain_pool)))]
            else:
                victim = victims[int(rng.choice(len(victims), p=weights))]
            targets = [market] + [
                m for m in ALL_MARKET_IDS
                if deficits[m] > 0 and m != market and rng.random() < 0.3
            ][:3]
            dev = self._persona_developer(rng, persona, victim.developer)
            package = self._unique_package(rng)
            own = perturb_own_code(rng, victim.own_code, new_package=package)
            if rng.random() < 0.5:
                name = victim.display_name + " " + str(rng.integers(2, 9))
            else:
                name = self._sampler.sample_display_name(rng)
            app = self._new_app(
                rng,
                scope="china" if market != GOOGLE_PLAY else "global",
                popularity=float(rng.uniform(0.0, 0.35)),
                markets=targets,
                display_name=name,
                package=package,
                provenance=PROVENANCE_CB_CLONE,
                related_app_id=victim.app_id,
                clone_depth=victim.clone_depth + 1,
                own_code=own,
                libraries=victim.libraries,
                developer=dev,
                versions=self._clone_versions(rng, victim),
            )
            if app is None:
                continue
            repacks.append(app)
            for m in app.placements:
                deficits[m] -= 1

    def _inject_template_spam(self) -> None:
        """App-factory template spam (adversarial profiles only).

        Each studio signs all of its output with one key and stamps out
        apps carrying a random sample of the studio's shared block pool
        — pairwise overlap far below the clone threshold, so nothing
        here is a reportable clone; the point is the blocking-layer
        pressure (see :class:`RepackagingModel`).  The default model has
        no studios, so this stage creates no stream and no draws.
        """
        model = self._repackaging
        if model.template_studios <= 0 or model.template_spam_rate <= 0:
            return
        rng = self._rngs.stream("template-spam")
        base = sum(
            1 for a in self._world.apps if a.provenance == PROVENANCE_LEGIT
        )
        total = int(round(model.template_spam_rate * base))
        per_studio = max(1, total // model.template_studios)
        for studio in range(model.template_studios):
            pool = tuple(
                int(rng.integers(0, 2**32))
                for _ in range(model.template_pool_blocks)
            )
            dev = self._new_developer(rng, "china")
            for _ in range(per_studio):
                package = self._unique_package(rng)
                own = template_spam_code(
                    rng, package, pool, model.template_sample_ratio
                )
                markets = [
                    str(m) for m in rng.choice(
                        np.asarray(CHINESE_MARKET_IDS),
                        size=int(rng.integers(1, 4)),
                        replace=False,
                    )
                ]
                self._new_app(
                    rng,
                    scope="china",
                    popularity=float(rng.uniform(0.0, 0.2)),
                    markets=markets,
                    package=package,
                    provenance=PROVENANCE_TEMPLATE_SPAM,
                    template_id=studio,
                    own_code=own,
                    developer=dev,
                )

    # ------------------------------------------------------------------
    # stage 8: threats
    # ------------------------------------------------------------------

    @staticmethod
    def _sample_family(rng: np.random.Generator, region: str) -> str:
        weights = GP_FAMILY_WEIGHTS if region == "global" else CHINESE_FAMILY_WEIGHTS
        names = list(weights)
        probs = np.asarray([weights[n] for n in names])
        return str(rng.choice(names, p=probs / probs.sum()))

    def _market_malware_count(self, market_id: str) -> int:
        return sum(
            1
            for app_id in self._market_members[market_id]
            if self._world.apps[app_id].threat is not None
        )

    def _inject_threats(self) -> None:
        self._inject_malware()
        self._inject_grayware()

    def _inject_malware(self) -> None:
        rng = self._rngs.stream("malware")
        deficits: Dict[str, int] = {}
        for m in ALL_MARKET_IDS:
            size = len(self._market_members[m])
            target = get_profile(m).av10_rate / 100.0 / _MALWARE_DETECTION_RATE * size
            deficits[m] = self._bernoulli_round(rng, target) - self._market_malware_count(m)

        clone_pool = [
            a for a in self._world.apps
            if a.provenance in (PROVENANCE_SB_CLONE, PROVENANCE_CB_CLONE)
            and a.threat is None
        ]
        legit_pool = [
            a for a in self._world.apps
            if a.provenance == PROVENANCE_LEGIT and a.threat is None
            and a.popularity < 0.9
        ]
        rng.shuffle(clone_pool)
        rng.shuffle(legit_pool)

        attempts = 0
        budget = 60 * (sum(max(0, d) for d in deficits.values()) + 1)
        while any(d > 0 for d in deficits.values()) and attempts < budget:
            attempts += 1
            market = max(deficits, key=deficits.get)
            candidate = self._pop_threat_candidate(rng, market, clone_pool, legit_pool, deficits)
            if candidate is None:
                candidate = self._new_junk_app(rng, market)
                if candidate is None:
                    deficits[market] -= 1  # vetting ate it; avoid livelock
                    continue
            # Family mix follows where the app is actually distributed:
            # an app hosted in any Chinese market draws from the Chinese
            # family distribution (Figure 12), GP-only apps from GP's.
            region = (
                "global"
                if set(candidate.placements) <= {GOOGLE_PLAY}
                else "china"
            )
            repackaged = candidate.provenance in (PROVENANCE_SB_CLONE, PROVENANCE_CB_CLONE)
            threat = ThreatProfile(
                family=self._sample_family(rng, region),
                variant=int(rng.integers(0, 30)),
                repackaged=repackaged,
            )
            self._apply_threat(rng, candidate, threat, deficits)

    def _pop_threat_candidate(
        self,
        rng: np.random.Generator,
        market: str,
        clone_pool: List[AppBlueprint],
        legit_pool: List[AppBlueprint],
        deficits: Dict[str, int],
    ) -> Optional[AppBlueprint]:
        """Pick an existing listed app to infect; clones preferred at the
        paper's 38.3% repackaged-malware share."""
        pools = (
            (clone_pool, legit_pool)
            if rng.random() < REPACKAGED_MALWARE_SHARE
            else (legit_pool, clone_pool)
        )
        for pool in pools:
            for _ in range(min(len(pool), 60)):
                idx = int(rng.integers(0, len(pool)))
                app = pool[idx]
                if app.threat is not None or market not in app.placements:
                    continue
                in_deficit = sum(1 for m in app.placements if deficits.get(m, 0) > 0)
                if in_deficit * 2 >= len(app.placements):
                    pool[idx] = pool[-1]
                    pool.pop()
                    return app
        return None

    def _new_junk_app(self, rng: np.random.Generator, market: str) -> Optional[AppBlueprint]:
        scope = "global" if market == GOOGLE_PLAY else "china"
        dev = self._new_developer(rng, scope if scope == "china" else "global")
        return self._new_app(
            rng,
            scope=scope,
            popularity=float(rng.uniform(0.0, 0.25)),
            markets=(market,),
            developer=dev,
        )

    def _apply_threat(
        self,
        rng: np.random.Generator,
        app: AppBlueprint,
        threat: ThreatProfile,
        deficits: Dict[str, int],
    ) -> None:
        """Attach a payload and re-run security vetting in every hosting
        market; markets that catch it delist the app."""
        app.threat = threat
        self._world.threat_feed.record(threat)
        for market_id in list(app.placements):
            pipeline = self._vetting[market_id]
            submission = Submission(
                package=app.package,
                threat_kind=threat.family_def.kind,
            )
            verdict = pipeline.review(submission)
            self._world.vetting_log.append(
                VettingRecord(market_id, app.app_id, verdict.accepted,
                              "update:" + verdict.reason)
            )
            if verdict.accepted:
                deficits[market_id] = deficits.get(market_id, 0) - 1
            else:
                self._remove_placement(app, market_id)

    def _remove_placement(self, app: AppBlueprint, market_id: str) -> None:
        app.placements.pop(market_id, None)
        self._package_markets.get(app.package, set()).discard(market_id)
        try:
            self._market_members[market_id].remove(app.app_id)
        except ValueError:
            pass

    def _inject_grayware(self) -> None:
        """Top up 'flagged by >=1 engine' rates with aggressive ad SDKs."""
        rng = self._rngs.stream("grayware")
        aggressive = self._catalog.aggressive_libraries
        if not aggressive:
            return
        aggressive_packages = {lib.package for lib in aggressive}
        # Flaggable: a threat, or an aggressive library.  Decided once per
        # app, before any placement is topped up.
        flaggable = {
            a.app_id for a in self._world.apps
            if a.threat is not None
            or not aggressive_packages.isdisjoint(dict(a.libraries))
        }

        deficits: Dict[str, int] = {}
        for m in ALL_MARKET_IDS:
            profile = get_profile(m)
            size = len(self._market_members[m])
            rate = profile.av1_rate / 100.0
            if profile.requires_obfuscation:
                rate = max(0.0, (rate - _JIAGU_FLAG_SHARE) / (1.0 - _JIAGU_FLAG_SHARE))
            flagged = sum(map(flaggable.__contains__, self._market_members[m]))
            deficits[m] = self._bernoulli_round(rng, rate * size) - flagged

        pool = [
            a for a in self._world.apps
            if a.app_id not in flaggable and a.popularity < 0.95
        ]
        rng.shuffle(pool)
        attempts = 0
        budget = 40 * (sum(max(0, d) for d in deficits.values()) + 1)
        while any(d > 0 for d in deficits.values()) and attempts < budget and pool:
            attempts += 1
            market = max(deficits, key=deficits.get)
            candidate = None
            for _ in range(min(len(pool), 80)):
                idx = int(rng.integers(0, len(pool)))
                app = pool[idx]
                if market not in app.placements:
                    continue
                in_deficit = sum(1 for m in app.placements if deficits.get(m, 0) > 0)
                if in_deficit * 2 >= len(app.placements):
                    pool[idx] = pool[-1]
                    pool.pop()
                    candidate = app
                    break
            if candidate is None:
                candidate = self._new_junk_app(rng, market)
                if candidate is None:
                    deficits[market] -= 1
                    continue
            region = "global" if candidate.scope == "global" else "china"
            lib = self._pick_aggressive_lib(rng, region, aggressive)
            candidate.libraries = candidate.libraries + (
                (lib.package, int(rng.integers(0, lib.n_versions))),
            )
            # Re-vet in each hosting market as a grayware update.
            for market_id in list(candidate.placements):
                verdict = self._vetting[market_id].review(
                    Submission(package=candidate.package, threat_kind="grayware")
                )
                if verdict.accepted:
                    deficits[market_id] = deficits.get(market_id, 0) - 1
                else:
                    self._remove_placement(candidate, market_id)

    def _pick_aggressive_lib(self, rng, region, aggressive):
        weights = np.asarray(
            [self._catalog.usage(lib, region) + 1e-4 for lib in aggressive]
        )
        weights = weights / weights.sum()
        return aggressive[int(rng.choice(len(aggressive), p=weights))]

    # ------------------------------------------------------------------
    # stage 9: finalize listings
    # ------------------------------------------------------------------

    def _finalize_listings(self) -> None:
        """Assign downloads, ratings, and category labels.

        Ranks come from one noise stream per market, consumed in
        membership order, and a sort global to the market.  The
        per-listing draws (bin placement, rating, label) come from the
        stream keyed by ``(market, app)``.
        """
        for market_id in ALL_MARKET_IDS:
            members = self._market_members[market_id]
            if not members:
                continue
            profile = get_profile(market_id)
            taxonomy = taxonomy_for(market_id)
            # Noise keeps per-market rankings correlated with global
            # popularity without being identical across stores.  It
            # shrinks toward the top of the ranking: globally famous apps
            # hold the top slots of every store (so they land in the >1M
            # bin everywhere — the anchor the fake-app heuristic needs),
            # while the long tail shuffles freely between stores.
            noise_rng = self._rngs.stream("finalize-noise", market_id)
            scores = []
            for a in members:
                popularity = self._world.apps[a].popularity
                sigma = 0.02 * min(1.0, (1.0 - popularity) * 25.0)
                scores.append((popularity + noise_rng.normal(0, sigma), a))
            scores.sort()
            n = len(scores)
            for rank, (_, app_id) in enumerate(scores):
                app = self._world.apps[app_id]
                rng = self._rngs.stream("finalize-listing", market_id, app_id)
                downloads = downloads_for_percentile(rng, profile, (rank + 0.5) / n)
                if app.provenance == PROVENANCE_FAKE and downloads is not None:
                    downloads = min(downloads, int(rng.integers(40, 1000)))
                placement = app.placements[market_id]
                placement.downloads = downloads
                placement.rating = sample_listing_rating(
                    profile, app.quality, downloads, rng
                )
                if (
                    profile.category_null_share > 0
                    and rng.random() < profile.category_null_share
                ):
                    placement.category_label = taxonomy.null_label(rng)
                else:
                    placement.category_label = taxonomy.market_label(app.category)
