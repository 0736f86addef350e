"""Corpus preparation: from per-market records to unique app units.

Section 5 identifies unique apps across markets by package name; within
a package, distinct developer signatures indicate distinct actors
(potential clones).  An :class:`AppUnit` is one (package, signer) pair
with a representative parsed APK and the per-market records backing it.

Unit construction streams: :func:`iter_units` walks the snapshot's
package groups (a batched cursor on the spilled backend) and yields
each package's units as soon as its records have been seen, so only one
package's records are resident at a time.  A unit holds its
representative APK *by record* — on the spilled backend that is a
:class:`~repro.store.blobs.LazyApk` proxy, so a fully-built unit list
costs metadata, not parsed APKs.  :func:`build_units` is the
materialized form and produces byte-identical output on both backends.

Building units decodes no APK: signer and representative ranking
(version code, md5) are row scalars.  The per-APK analyses then read
each unit's APK through one shared walk
(:class:`~repro.analysis.engine.UnitWalk`) that decodes it at most
once, plus clone extraction's second walk; no analysis walks units
reading APK content attribute by attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apk.archive import ParsedApk
from repro.crawler.snapshot import CrawlRecord, Snapshot

__all__ = [
    "AppUnit",
    "build_units",
    "iter_units",
    "normalized_downloads",
    "record_sort_key",
]


def record_sort_key(record: CrawlRecord) -> Tuple[str, str]:
    """Canonical order for a unit's backing records.

    ``(market_id, package)`` is the snapshot's primary key, so the key
    is unique within a unit and total: however records were grouped —
    serially, from a resumed journal, or by a parallel worker pool —
    the same record set always sorts to the same sequence.  That makes
    ``AppUnit.records[0]`` (the representative record backing
    ``app_name``) explicitly deterministic instead of an accident of
    crawl insertion order.
    """
    return (record.market_id, record.package)


def normalized_downloads(record: CrawlRecord) -> Optional[int]:
    """Install count normalized across reporting styles.

    Markets reporting exact counts pass through; Google Play's install
    ranges use the lower bound (the paper's estimation rule, footnote 8).
    Returns None when the market does not report installs.
    """
    if record.downloads is not None:
        return record.downloads
    if record.install_range is not None:
        return record.install_range[0]
    return None


def _apk_rank(apk) -> Tuple[int, str]:
    """Representative ranking key: (version code, md5 tie-break).

    Both are row scalars, so ranking never decodes a vaulted APK.
    """
    return (apk.version_code, apk.md5)


@dataclass
class AppUnit:
    """One unique app: a (package, signer) pair observed across markets.

    The representative APK is held through ``apk_record`` (the backing
    crawl record); ``apk`` dereferences it on demand — a lazy read on
    the spilled backend — and ``apk_md5`` answers identity questions
    (artifact-cache keys) without touching APK content at all.
    """

    package: str
    signer: Optional[str]  # None when no APK was obtained anywhere
    records: List[CrawlRecord] = field(default_factory=list)
    apk_record: Optional[CrawlRecord] = None

    @property
    def apk(self) -> Optional[ParsedApk]:
        return self.apk_record.apk if self.apk_record is not None else None

    @property
    def apk_md5(self) -> Optional[str]:
        return self.apk_record.md5 if self.apk_record is not None else None

    @property
    def markets(self) -> Tuple[str, ...]:
        return tuple(sorted({r.market_id for r in self.records}))

    @property
    def app_name(self) -> str:
        return self.records[0].app_name

    @property
    def max_downloads(self) -> Optional[int]:
        values = [
            d for d in (normalized_downloads(r) for r in self.records)
            if d is not None
        ]
        return max(values) if values else None

    @property
    def max_version_code(self) -> int:
        return max(r.version_code for r in self.records)


def _package_units(package: str, records: List[CrawlRecord]) -> List[AppUnit]:
    """Group one package's records into its (package, signer) units."""
    by_signer: Dict[str, AppUnit] = {}
    deferred: List[CrawlRecord] = []
    for record in records:
        apk = record.apk
        if apk is None:
            deferred.append(record)
            continue
        signer = apk.signer_fingerprint
        unit = by_signer.get(signer)
        if unit is None:
            unit = AppUnit(package=package, signer=signer)
            by_signer[signer] = unit
        unit.records.append(record)
        if unit.apk_record is None or _apk_rank(apk) > _apk_rank(unit.apk_record.apk):
            unit.apk_record = record

    apk_signers = len(by_signer)
    none_unit: Optional[AppUnit] = None
    for record in deferred:
        if apk_signers == 1:
            next(iter(by_signer.values())).records.append(record)
            continue
        if none_unit is None:
            none_unit = AppUnit(package=package, signer=None)
        none_unit.records.append(record)

    units = list(by_signer.values())
    if none_unit is not None:
        units.append(none_unit)
    units.sort(key=lambda u: (u.package, u.signer or ""))
    for unit in units:
        unit.records.sort(key=record_sort_key)
    return units


def iter_units(
    snapshot: Snapshot, batch_size: Optional[int] = None
) -> Iterator[AppUnit]:
    """Stream (package, signer) units in canonical order.

    Records lacking an APK join the unit of their package's sole signer
    when that is unambiguous; otherwise they form a signer-``None`` unit
    (they still carry metadata for market-level analyses).
    The representative APK is the one with the highest version code —
    the most up-to-date code the crawl saw — with the APK MD5 as the
    tie-break, so the choice depends only on the record *set*, never on
    the order records were ingested.  For the same reason each unit's
    records are sorted by :func:`record_sort_key` and units are yielded
    in ``(package, signer)`` order: any ingestion order and either
    snapshot backend produce the identical unit sequence.

    Grouping is per package (signer assignment never crosses packages),
    so the generator holds one package's records at a time —
    ``batch_size`` tunes the spilled backend's cursor width underneath.
    """
    for package, records in snapshot.iter_package_groups(batch_size):
        yield from _package_units(package, records)


def build_units(snapshot: Snapshot) -> List[AppUnit]:
    """The materialized unit list (see :func:`iter_units`)."""
    return list(iter_units(snapshot))
