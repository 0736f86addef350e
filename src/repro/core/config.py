"""Study configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.net.faults import FaultPlan

__all__ = ["StudyConfig", "resolve_workers"]


def resolve_workers(workers: int = 0) -> int:
    """Resolve a thread-pool width (``0`` = one per CPU).

    The crawl engine caps its pool at the number of market lanes, so
    one width serves both pools.
    """
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers:
        return workers
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration for one end-to-end study run.

    Parameters
    ----------
    seed:
        Master seed; every stochastic component derives from it, so the
        same config reproduces the exact corpus, crawl, and reports.
    scale:
        Fraction of the paper's 6.27M-listing corpus to synthesize.
        The default (0.002, ~12.5K listings) regenerates every table and
        figure shape in well under a minute; tests use smaller values.
    download_apks:
        Whether the crawler downloads and parses APKs.  Metadata-only
        runs are much faster and still support Figures 1-2, 4, 6-9.
    """

    seed: int = 42
    scale: float = 0.002
    download_apks: bool = True
    #: Run a full second campaign (metadata for every market) in
    #: addition to the targeted recheck; enables the longitudinal churn
    #: analysis at the cost of roughly doubling crawl time.
    full_second_crawl: bool = False
    #: Thread width of the crawl engine (one lane per market) and of the
    #: analysis engine (per-APK library features, VT scans, permission
    #: extraction, clone scoring, experiment renders).  Every snapshot,
    #: artifact and report is identical at any width; only wall-clock
    #: time changes.
    workers: int = 1
    #: Per-market fault plans (a market not listed serves clean).  This
    #: is how a single market is blacked out while the rest of the fleet
    #: stays healthy.
    market_fault_plans: Optional[Mapping[str, FaultPlan]] = None
    #: Directory for the crawl's checkpoint journal (None disables
    #: checkpointing).  With ``resume=True`` a restarted study replays
    #: the journal and produces a bit-identical snapshot.
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    #: When a market's circuit breaker exhausts its trip budget:
    #: ``fail_fast=True`` aborts the study, the default degrades —
    #: the campaign completes with that market marked degraded.
    fail_fast: bool = False
    #: Write the campaign's span trace to this JSONL path (None leaves
    #: tracing off — the crawl hot path then costs one ``is None`` test).
    trace_out: Optional[str] = None
    #: Write the metrics registry to this JSONL path (None leaves the
    #: registry off; telemetry falls back to a private registry).
    metrics_out: Optional[str] = None
    #: Profile pipeline stages (wall time only) and print the
    #: critical-path report after the run.
    profile: bool = False
    #: Live campaign monitoring: heartbeat gauge samples plus the lane
    #: stall watchdog, at :class:`~repro.obs.monitor.CampaignMonitor`'s
    #: default interval and stall budget.  Digest-invariant — the
    #: monitor only observes.
    monitor: bool = False
    #: Directory of the persistent content-addressed artifact cache
    #: (``(apk_md5, analyzer, version)`` -> result).  ``None`` disables
    #: caching; re-runs then recompute every per-APK artifact.
    artifact_cache_dir: Optional[str] = None
    #: Corpus storage backend.  ``"memory"`` (default) holds world,
    #: snapshot, and units fully in RAM — today's behavior.  ``"sqlite"``
    #: spills record families to disk-backed segment tables once they
    #: cross ``store_spill_threshold`` and serves them through batched
    #: streaming cursors; every ``content_digest()`` is bit-identical
    #: between backends (the out-of-core contract, see DESIGN.md).
    store_backend: str = "memory"
    #: Record count above which a family spills to disk.  Small worlds
    #: stay fully in-memory under the sqlite backend, bit-identical to
    #: the memory backend in layout as well as digest.
    store_spill_threshold: int = 5000
    #: Root directory for the sqlite backend's segment tables and APK
    #: blob vault (a checkpointed run keeps its APKs in the journal's
    #: vault instead).  ``None`` resolves to ``<checkpoint_dir>/store``
    #: when checkpointing is on, else a self-cleaning temporary directory.
    store_dir: Optional[str] = None
    #: Hostility spec applied to every market server (``None`` = polite
    #: fleet, today's behavior).  A comma-joined behavior list
    #: (``"auth,binary"``), ``"full"`` for all four behaviors, or
    #: ``"profile"`` to give each market the behaviors its
    #: :class:`~repro.markets.profiles.MarketProfile` declares.
    hostility: Optional[str] = None
    #: Client identities per market lane (0 disables identity rotation;
    #: hostile antibot markets then ban the lane's single identity).  A
    #: lane rotates to its next unbanned identity when one is banned.
    identity_pool: int = 0
    #: How crawl requests reach the market servers.  ``"inprocess"``
    #: (default) calls ``server.handle`` directly — the fast path.
    #: ``"socket"`` stands up a :class:`~repro.serving.ServingTier`
    #: (one asyncio TCP listener per market) and routes every lane
    #: through it; snapshots are bit-identical either way (the
    #: transport contract, see DESIGN.md).
    transport: str = "inprocess"
    #: Repackaging profile for world generation: ``"default"``
    #: reproduces the paper's Table 3 clone rates; ``"adversarial"``
    #: builds deep repackaging chains and boosted near-duplicate
    #: families — the corpus shape the clone benchmarks stress.
    clone_families: str = "default"

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume requires checkpoint_dir")
        if self.store_backend not in ("memory", "sqlite"):
            raise ValueError(
                f"store_backend must be 'memory' or 'sqlite', "
                f"got {self.store_backend!r}"
            )
        if self.store_spill_threshold < 0:
            raise ValueError(
                f"store_spill_threshold must be non-negative, "
                f"got {self.store_spill_threshold}"
            )
        from repro.markets.hostility import HostilityPolicy

        if self.hostility is not None and self.hostility != "profile":
            HostilityPolicy.from_spec(self.hostility)  # validates the spec
        if self.identity_pool < 0:
            raise ValueError(
                f"identity_pool must be non-negative, got {self.identity_pool}"
            )
        if self.transport not in ("inprocess", "socket"):
            raise ValueError(
                f"transport must be 'inprocess' or 'socket', "
                f"got {self.transport!r}"
            )
        from repro.ecosystem.threats import RepackagingModel

        if self.clone_families not in RepackagingModel.PROFILES:
            raise ValueError(
                f"clone_families must be one of {RepackagingModel.PROFILES}, "
                f"got {self.clone_families!r}"
            )
