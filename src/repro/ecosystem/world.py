"""The generated world: ground truth for one study run.

The generator builds ``World.apps`` as a plain list; once generation
finishes it becomes an :class:`~repro.store.corpus.AppTable`, one
sequence over a record family.  The table starts on an in-memory family
that holds the blueprints themselves; :meth:`World.spill` copies its
rows into a :class:`~repro.store.corpus.CorpusStore`'s sqlite family.
Every accessor below has one implementation over the table, and
``content_digest()`` is backend-invariant because iteration order (by
``app_id``) is part of the family contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ecosystem.apps import AppBlueprint, Placement
from repro.ecosystem.developers import Developer
from repro.ecosystem.libraries import LibraryCatalog
from repro.ecosystem.threats import ThreatFeed

__all__ = ["World", "VettingRecord"]


@dataclass(frozen=True)
class VettingRecord:
    """One vetting decision made by a market at submission time."""

    market_id: str
    app_id: int
    accepted: bool
    reason: str


@dataclass
class World:
    """Ground truth for one study: apps, developers, libraries, threats.

    Markets and analyses must not reach into this object; it exists for
    generation, for serving stores, and for ground-truth validation in
    tests and detector-quality experiments.
    """

    seed: int
    scale: float
    catalog: LibraryCatalog
    developers: List[Developer] = field(default_factory=list)
    #: A list while the generator builds it, an ``AppTable`` after.
    apps: Sequence[AppBlueprint] = field(default_factory=list)
    threat_feed: ThreatFeed = field(default_factory=ThreatFeed)
    vetting_log: List[VettingRecord] = field(default_factory=list)

    def app(self, app_id: int) -> AppBlueprint:
        """The blueprint with this ``app_id`` (the table's unique key)."""
        return self.apps[app_id]

    # -- the app table ----------------------------------------------------

    @property
    def spilled(self) -> bool:
        """True once ``apps`` lives in a corpus store's sqlite family."""
        return self.apps.spilled

    def spill(self, store) -> None:
        """Copy the app table into ``store`` (a ``CorpusStore``).

        Every accessor keeps working; reads come back as decoded copies,
        so post-generation mutations must go through :meth:`write_back`.
        Developers stay in memory (they are shared, small, and pickled
        by reference so identity survives the round-trip).
        """
        if not self.spilled:
            self.apps = self.apps.spill(store, self.developers)

    def write_back(self, app: AppBlueprint) -> None:
        """Persist a mutated blueprint into the app table."""
        self.apps.write_back(app)

    def iter_placements(
        self, batch_size: Optional[int] = None
    ) -> Iterator[Tuple[AppBlueprint, Placement]]:
        """Yield every (app, placement) pair, streaming on the spilled
        backend (``batch_size`` tunes its cursor width)."""
        for app in self.apps.iter(batch_size):
            for placement in app.placements.values():
                yield app, placement

    def apps_in_market(self, market_id: str) -> List[AppBlueprint]:
        return [app for app in self.apps if market_id in app.placements]

    def market_size(self, market_id: str) -> int:
        return sum(1 for app in self.apps if market_id in app.placements)

    def total_listings(self) -> int:
        return sum(len(app.placements) for app in self.apps)

    def find_by_package(self, package: str) -> List[AppBlueprint]:
        """All apps with this package, in app_id order (an index lookup)."""
        return self.apps.find_by_package(package)

    def content_digest(self) -> str:
        """A stable hex digest over everything generation decides.

        Covers apps (including code features and version history),
        developers, placements, the vetting log, and the threat feed —
        if two runs disagree anywhere, their digests differ.  This is
        the index-keyed contract's check: the digest must be identical
        however the build phase is ordered or batched (see DESIGN.md).
        """
        h = hashlib.blake2b(digest_size=16)

        def rec(*parts: object) -> None:
            h.update("\x1f".join(repr(p) for p in parts).encode("utf-8"))
            h.update(b"\x1e")

        rec("world", self.seed, self.scale)
        for dev in self.developers:
            rec("dev", dev.dev_id, dev.name, dev.region, dev.alt_names)
        for app in self.apps:
            rec(
                "app",
                app.app_id,
                app.package,
                app.display_name,
                app.category,
                app.scope,
                app.popularity,
                app.quality,
                app.min_sdk,
                app.target_sdk,
                app.release_day,
                app.versions,
                app.own_code.main_package,
                sorted(app.own_code.features.items()),
                app.own_code.blocks,
                app.libraries,
                app.permissions_requested,
                (app.threat.family, app.threat.variant, app.threat.repackaged)
                if app.threat is not None
                else None,
                app.provenance,
                app.related_app_id,
                app.clone_depth,
                app.template_id,
                app.developer.dev_id if app.developer is not None else None,
            )
            for market_id in sorted(app.placements):
                p = app.placements[market_id]
                rec(
                    "placement",
                    app.app_id,
                    market_id,
                    p.version_index,
                    p.category_label,
                    p.downloads,
                    p.rating,
                    p.listed_day,
                    p.removed_at,
                )
        for record in self.vetting_log:
            rec("vetting", record.market_id, record.app_id,
                record.accepted, record.reason)
        rec("threats", self.threat_feed.variants)
        return h.hexdigest()

    def summary(self) -> Dict[str, int]:
        """Quick ground-truth tallies (for logging and examples)."""
        n_threat = sum(1 for a in self.apps if a.threat is not None)
        n_fake = sum(1 for a in self.apps if a.provenance == "fake")
        n_sb = sum(1 for a in self.apps if a.provenance == "sb_clone")
        n_cb = sum(1 for a in self.apps if a.provenance == "cb_clone")
        n_spam = sum(1 for a in self.apps if a.provenance == "template_spam")
        return {
            "apps": len(self.apps),
            "developers": len(self.developers),
            "listings": self.total_listings(),
            "threat_apps": n_threat,
            "fake_apps": n_fake,
            "sb_clones": n_sb,
            "cb_clones": n_cb,
            "template_spam": n_spam,
        }
