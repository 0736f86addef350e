"""Parallel, cache-aware execution layer for the post-crawl pipeline.

Everything downstream of the snapshot — per-APK library-feature
extraction, VirusTotal scans, permission extraction, clone-candidate
scoring, and the experiment renders — is embarrassingly parallel at the
unit level.  :class:`AnalysisEngine` fans that work across a thread
pool with a **deterministic merge**: results are always collected in
input order, so the output is bit-identical to the serial path at any
worker count (the same invariant the crawl engine guarantees for
snapshots).

The engine also owns the persistent :class:`ArtifactCache`: a
content-addressed store keyed by ``(apk_md5, analyzer_name,
analyzer_version)``.  A per-APK analyzer result depends only on the APK
bytes and the analyzer version, so re-running an experiment, the
April-2018 recheck, or ``run_all`` after a code-irrelevant change skips
every unchanged per-APK computation (incremental analysis).
Invalidation is bump-the-version: an analyzer that changes behavior
bumps its version constant and every stale entry misses.  Entries are
rows of one SQLite table, each committed by its put, and a corrupted or
truncated entry falls back to recompute — the cache can never poison a
run.

Per-APK analyzers are declared as :class:`UnitAnalyzer` specs and run
together: one :meth:`AnalysisEngine.map_units_cached` walk asks the
cache for every spec of a unit and decodes the unit's APK at most once,
for all the specs that missed.  A :class:`UnitWalk` shares one such
walk between the analyses that consume it.  On the out-of-core backend
a decode is a blob-vault read, and a walk per analyzer would cycle the
vault's bounded LRU once per analyzer.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.obs import NULL_OBS, NULL_SPAN, Observability
from repro.store.columnar import WAL_LIMIT_BYTES

__all__ = [
    "AnalysisEngine",
    "ArtifactCache",
    "CacheStats",
    "UnitAnalyzer",
    "UnitWalk",
]

T = TypeVar("T")
R = TypeVar("R")

#: Page cache of the artifact database, in KiB.  Each row is read at
#: most once per walk, so a small cache costs no reads.
_CACHE_KIB = 256


@dataclass
class CacheStats:
    """Hit/miss accounting for one engine's artifact cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


class ArtifactCache:
    """Content-addressed per-APK analyzer result store.

    Layout on disk: one SQLite database, ``<root>/artifacts.db``, with
    one row per artifact keyed by ``(analyzer, version, md5)``.  A file
    per artifact cost a file creation, a rename and often a directory
    per put: a cold checkpointed report run (seed 42, scale 0.0001,
    about 1,900 puts, 2-vCPU VM on an ext4 disk) spent 1.7-2.3 s of its
    5.3-6.4 s in puts, against 0.13 s as rows, each one WAL append.
    The database runs like the blob vault's: WAL, ``synchronous=NORMAL``,
    autocommit (a put is committed when it returns), a bounded ``-wal``
    file and a small page cache.

    Each row's document wraps its payload with the key it was stored
    under; a ``get`` whose wrapper does not match (or whose text is
    truncated, nested too deep to decode, or not JSON at all) counts as
    ``corrupt`` and behaves as a miss, so a damaged cache degrades to
    recomputation instead of wrong results.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "artifacts.db"
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA journal_size_limit={WAL_LIMIT_BYTES}")
        self._conn.execute(f"PRAGMA cache_size=-{_CACHE_KIB}")
        self._conn.execute("PRAGMA mmap_size=0")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS artifacts (analyzer TEXT NOT NULL,"
            " version TEXT NOT NULL, md5 TEXT NOT NULL, doc TEXT NOT NULL,"
            " PRIMARY KEY (analyzer, version, md5)) WITHOUT ROWID"
        )

    def close(self) -> None:
        """Close the database; every put is already committed."""
        with self._lock:
            self._conn.close()

    def get(self, analyzer: str, version: str, md5: str) -> Optional[object]:
        """The stored payload, or None on miss/corruption."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc FROM artifacts WHERE analyzer = ? AND version = ? AND md5 = ?",
                (analyzer, version, md5),
            ).fetchone()
            if row is None:
                self.stats.misses += 1
                return None
        raw = row[0]
        try:
            doc = json.loads(raw)
            if (
                doc["analyzer"] != analyzer
                or doc["version"] != version
                or doc["md5"] != md5
            ):
                raise ValueError("cache entry key mismatch")
            payload = doc["payload"]
        except (ValueError, KeyError, TypeError, RecursionError):
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return payload

    def put(self, analyzer: str, version: str, md5: str, payload: object) -> None:
        """Store a payload; the row is committed when this returns."""
        doc = {
            "analyzer": analyzer,
            "version": version,
            "md5": md5,
            "payload": payload,
        }
        raw = json.dumps(doc, separators=(",", ":"))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts VALUES (?, ?, ?, ?)",
                (analyzer, version, md5, raw),
            )
            self.stats.stores += 1

    def count_corrupt_hit(self) -> None:
        """Re-count a hit whose payload failed to decode as a corrupt miss."""
        with self._lock:
            self.stats.corrupt += 1
            self.stats.hits -= 1
            self.stats.misses += 1


@dataclass(frozen=True)
class UnitAnalyzer:
    """One per-APK analyzer, as :meth:`AnalysisEngine.map_units_cached` runs it.

    ``compute`` receives a decoded :class:`ParsedApk` and must depend on
    nothing else — that is what makes ``(name, version, md5)`` a
    complete artifact-cache key.  ``encode``/``decode`` convert a result
    to and from a JSON-safe payload.  ``version=None`` keeps the
    analyzer out of the cache (its result depends on more than the APK,
    or is cheaper to recompute than to store).
    """

    name: str
    version: Optional[str]
    compute: Callable[[Any], Any]
    encode: Callable[[Any], object] = lambda value: value
    decode: Callable[[object], Any] = lambda payload: payload


class UnitWalk:
    """Per-APK analyzers over one unit list, run together on first use.

    The analyses that share a walk each take their analyzer's results
    by name; the first take runs one
    :meth:`AnalysisEngine.map_units_cached` over every analyzer, so each
    unit's APK is decoded at most once however many analyses read it,
    and the walk's time lands in whichever analysis needed it first.
    Results are lists aligned with ``units``.  Each list is handed out
    once and then released, so a shared walk does not keep per-APK
    results alive after the analysis that folds them.
    """

    def __init__(
        self,
        engine: "AnalysisEngine",
        units: Sequence,
        analyzers: Sequence[UnitAnalyzer],
        stage: Optional[str] = None,
    ):
        self.engine = engine
        self.units = units
        self.analyzers = tuple(analyzers)
        self.stage = stage
        self._results: Optional[Dict[str, List[Optional[object]]]] = None
        self._lock = threading.Lock()

    def take(self, name: str) -> List[Optional[object]]:
        """The named analyzer's results, one per unit (None: no APK)."""
        with self._lock:
            if self._results is None:
                columns = self.engine.map_units_cached(
                    self.analyzers, self.units, stage=self.stage
                )
                self._results = {
                    analyzer.name: column
                    for analyzer, column in zip(self.analyzers, columns)
                }
            if name not in self._results:
                raise KeyError(f"walk has no untaken results for {name!r}")
            return self._results.pop(name)


class AnalysisEngine:
    """Worker pool + artifact cache for the analysis pipeline.

    ``map`` fans a pure function over items and returns results in
    input order — the deterministic merge that makes every analysis
    artifact identical at any worker count.  ``map_units_cached`` runs
    a list of per-APK analyzers (results a function of the APK bytes
    alone) in one walk over the units, through the artifact cache.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ArtifactCache] = None,
        obs: Observability = NULL_OBS,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.cache = cache
        self.obs = obs
        self.parallel_batches = 0

    @classmethod
    def from_config(cls, config, obs: Observability = NULL_OBS) -> "AnalysisEngine":
        """Build the engine a :class:`~repro.core.config.StudyConfig` asks for."""
        cache_dir = getattr(config, "artifact_cache_dir", None)
        return cls(
            workers=getattr(config, "workers", 1),
            cache=ArtifactCache(cache_dir) if cache_dir else None,
            obs=obs,
        )

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return self.cache.stats if self.cache is not None else None

    def stats_line(self) -> str:
        """One-line summary for run reports and the CLI."""
        cache = (
            "off"
            if self.cache is None
            else (
                f"{self.cache.stats.hits} hits / {self.cache.stats.misses} misses"
                + (
                    f" ({self.cache.stats.corrupt} corrupt)"
                    if self.cache.stats.corrupt
                    else ""
                )
            )
        )
        return f"analysis engine: {self.workers} workers, artifact cache {cache}"

    # -- execution ---------------------------------------------------------

    def map(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        stage: Optional[str] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results in input order.

        ``fn`` must be pure with respect to item order: the serial path
        and every worker width then produce identical output lists.
        """
        items = list(items)
        cm = self.obs.span(stage, n_items=len(items)) if stage else NULL_SPAN
        with cm:
            if self.workers == 1 or len(items) <= 1:
                return [fn(item) for item in items]
            self.parallel_batches += 1
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(fn, items))

    def map_units_cached(
        self,
        analyzers: Sequence[UnitAnalyzer],
        units: Sequence,
        stage: Optional[str] = None,
    ) -> List[List[Optional[object]]]:
        """Run per-APK analyzers over units in one walk, through the cache.

        Returns one result list per analyzer, each in unit order; units
        without an APK yield ``None``.  Per unit, every analyzer first
        asks the artifact cache under ``(name, version, apk_md5)`` — the
        md5 is record metadata, so a hit touches no APK content.  The
        unit's APK is resolved (on the spilled backend: one vault load)
        at most once, and only when some analyzer missed; every missing
        analyzer computes on that one decoded :class:`ParsedApk`.  A
        payload whose ``decode`` fails counts as corruption and falls
        back to recompute.
        """
        cache = self.cache
        analyzers = list(analyzers)

        def one(unit) -> List[Optional[object]]:
            md5 = unit.apk_md5
            if md5 is None:
                return [None] * len(analyzers)
            apk = None
            values: List[Optional[object]] = []
            for analyzer in analyzers:
                keyed = cache is not None and analyzer.version is not None
                if keyed:
                    payload = cache.get(analyzer.name, analyzer.version, md5)
                    if payload is not None:
                        try:
                            values.append(analyzer.decode(payload))
                            continue
                        except (ValueError, KeyError, TypeError):
                            cache.count_corrupt_hit()
                if apk is None:
                    apk = unit.apk.resolve()
                value = analyzer.compute(apk)
                if keyed:
                    cache.put(analyzer.name, analyzer.version, md5, analyzer.encode(value))
                values.append(value)
            return values

        if stage is None:
            stage = "analysis." + "+".join(a.name for a in analyzers) + ".map"
        rows = self.map(units, one, stage=stage)
        return [[row[i] for row in rows] for i in range(len(analyzers))]


#: A shared serial, cache-less engine: the default for analyzers called
#: without an engine, so the serial path stays the unthreaded baseline.
INLINE_ENGINE = AnalysisEngine(workers=1)
