"""Crawl snapshots.

A :class:`Snapshot` is the dataset one crawl campaign produces: one
:class:`CrawlRecord` per (market, package) with the market-reported
metadata and, when the APK could be downloaded (or backfilled from the
offline archive), the parsed APK.  All analyses in
:mod:`repro.analysis` consume snapshots, never the ground-truth world.

Records live in one record family (:mod:`repro.store.columnar`), and
every accessor has one implementation over it.  The family starts in
memory and holds the record objects themselves.  Handing the
constructor a :class:`~repro.store.corpus.CorpusStore` arms the spill:
once the record count crosses the store's spill threshold, the rows are
copied into a per-campaign SQLite family (record metadata as typed
columns, served APK bytes into the blob vault; records decode from
their row alone and are re-served with
:class:`~repro.store.blobs.LazyApk` proxies through batched streaming
cursors).
``content_digest()`` is backend-invariant: the streaming fold below
reproduces :func:`~repro.util.rng.stable_hash64` over the canonical row
tuple byte for byte without ever materializing it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.apk.archive import ParsedApk
from repro.store.blobs import LazyApk
from repro.store.columnar import MemoryFamily, ResidentCodec, StoreError
from repro.store.corpus import CRAWL_SCHEMA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.corpus import CorpusStore

__all__ = ["CrawlRecord", "Snapshot", "MarketHealth", "DeadLetter", "HEALTH_OK", "HEALTH_DEGRADED"]

APK_FROM_MARKET = "market"
APK_FROM_ARCHIVE = "archive"

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"


@dataclass
class DeadLetter:
    """One work item a lane abandoned instead of aborting the campaign.

    ``kind`` names the phase ("discovery", "search", "download",
    "recheck"); ``key`` identifies the item (a query, a package);
    ``reason`` records why it was given up.
    """

    market_id: str
    kind: str
    key: str
    reason: str


@dataclass
class MarketHealth:
    """One market's campaign outcome under partial failure.

    ``completed`` counts records successfully ingested; ``degraded``
    counts work items lost to terminal failures while the market was
    still being tried; ``quarantined`` counts items skipped outright
    after the circuit breaker wrote the market off.  ``status`` is
    ``"ok"`` unless the breaker quarantined the market mid-campaign.
    """

    market_id: str
    status: str = HEALTH_OK
    completed: int = 0
    degraded: int = 0
    quarantined: int = 0

    @property
    def ok(self) -> bool:
        return self.status == HEALTH_OK


@dataclass
class CrawlRecord:
    """One (market, package) observation."""

    market_id: str
    package: str
    app_name: str
    version_name: str
    version_code: int
    category: str
    downloads: Optional[int]
    install_range: Optional[Tuple[int, int]]
    rating: float
    updated_day: int
    developer_name: str
    crawl_day: float
    apk: Optional[ParsedApk] = None
    apk_source: Optional[str] = None  # "market" | "archive" | None

    @classmethod
    def from_metadata(
        cls, market_id: str, meta: Mapping[str, object], crawl_day: float
    ) -> "CrawlRecord":
        """Build a record from a market endpoint's JSON payload."""
        install_range = meta.get("install_range")
        return cls(
            market_id=market_id,
            package=str(meta["package"]),
            app_name=str(meta["name"]),
            version_name=str(meta["version_name"]),
            version_code=int(meta["version_code"]),  # type: ignore[arg-type]
            category=str(meta["category"]),
            downloads=(None if meta.get("downloads") is None
                       else int(meta["downloads"])),  # type: ignore[arg-type]
            install_range=(None if install_range is None
                           else (int(install_range[0]), int(install_range[1]))),
            rating=float(meta["rating"]),  # type: ignore[arg-type]
            updated_day=int(meta["updated_day"]),  # type: ignore[arg-type]
            developer_name=str(meta["developer"]),
            crawl_day=crawl_day,
        )

    @property
    def has_apk(self) -> bool:
        return self.apk is not None

    @property
    def signer(self) -> Optional[str]:
        return self.apk.signer_fingerprint if self.apk is not None else None

    @property
    def md5(self) -> Optional[str]:
        return self.apk.md5 if self.apk is not None else None


def _digest_row(r: "CrawlRecord") -> Tuple:
    """The canonical per-record tuple the content digest folds over."""
    return (
        r.market_id,
        r.package,
        r.app_name,
        r.version_name,
        r.version_code,
        r.category,
        r.downloads,
        r.install_range,
        r.rating,
        r.updated_day,
        r.developer_name,
        r.crawl_day,
        r.md5,
        r.signer,
        r.apk_source,
    )


def streaming_snapshot_digest(label: str, rows: Iterable[Tuple]) -> int:
    """Fold rows into the exact :func:`stable_hash64` snapshot digest.

    ``stable_hash64("snapshot-content", label, tuple(rows))`` hashes the
    ``repr`` of the full row tuple — which would materialize every
    record.  This reproduces the same byte stream incrementally: the
    tuple repr is ``(row0, row1, ...)`` with a trailing comma for the
    single-element case, so the digest is bit-identical to the legacy
    value at any corpus size (asserted by the store contract tests).
    """
    h = hashlib.blake2b(digest_size=8)
    prefix = "\x1f".join((repr("snapshot-content"), repr(label), "("))
    h.update(prefix.encode("utf-8"))
    count = 0
    for row in rows:
        if count:
            h.update(b", ")
        h.update(repr(row).encode("utf-8"))
        count += 1
    h.update(b",)" if count == 1 else b")")
    return int.from_bytes(h.digest(), "big")


def _apk_columns(apk) -> Tuple:
    """The APK scalars a crawl row carries, of a parsed or lazy APK.

    ``(md5, signer, vc_hint, min_sdk, obfuscated_by, dex_digest)``, or
    Nones when the record has no APK.
    """
    if apk is None:
        return None, None, None, None, None, None
    return (
        apk.md5,
        apk.signer_fingerprint,
        apk.version_code,
        apk.min_sdk,
        apk.obfuscated_by,
        apk.dex_digest,
    )


#: The crawl schema's APK columns, in :func:`_apk_columns` order.
_APK_COLUMNS = ("md5", "signer", "vc_hint", "min_sdk", "obfuscated_by", "dex_digest")


def _row(record: CrawlRecord) -> Tuple:
    """A record's crawl-schema columns, in schema order, payload excluded."""
    low, high = record.install_range or (None, None)
    return (
        record.market_id,
        record.package,
        *_apk_columns(record.apk),
        record.apk_source,
        record.app_name,
        record.version_name,
        record.version_code,
        record.category,
        record.downloads,
        low,
        high,
        record.rating,
        record.updated_day,
        record.developer_name,
        record.crawl_day,
    )


#: What an SQLite INTEGER holds.
_INT64 = range(-(1 << 63), 1 << 63)


def _check_storable(record: CrawlRecord) -> None:
    """Refuse a record whose metadata an SQLite row would alter.

    SQLite turns NaN into NULL, reads -0.0 from a REAL column back as
    0.0, an int as a float and a number in a TEXT column as text,
    cannot hold an int outside 64 bits, and the row decodes
    ``install_range`` as a pair of ints.  Each of those would change
    the record's content digest once it spills, so the record is
    refused at ``add`` instead.
    """
    def bad(field: str, why: str) -> StoreError:
        value = getattr(record, field)
        return StoreError(f"{record.market_id}/{record.package}: {field}={value!r} {why}")

    for field in ("market_id", "package", "app_name", "version_name", "category",
                  "developer_name"):
        if type(getattr(record, field)) is not str:
            raise bad(field, "is not a str")
    installs = record.install_range
    if installs is not None and (type(installs) is not tuple or len(installs) != 2):
        raise bad("install_range", "is not a pair")
    ints = [("version_code", record.version_code), ("updated_day", record.updated_day)]
    ints += [("downloads", record.downloads)] if record.downloads is not None else []
    ints += [("install_range", bound) for bound in installs or ()]
    for field, value in ints:
        if type(value) is not int or value not in _INT64:
            raise bad(field, "is not a 64-bit int")
    for field in ("rating", "crawl_day"):
        value = getattr(record, field)
        if type(value) is not float or value != value:
            raise bad(field, "is not a float other than NaN")
        if value == 0.0 and math.copysign(1.0, value) < 0:
            raise bad(field, "is -0.0, which SQLite reads back as 0.0")


class _ResidentRecords(ResidentCodec):
    """The memory family's codec: records and APKs stay as they are."""

    @staticmethod
    def keep_apk(apk: ParsedApk, blob: Optional[bytes] = None) -> ParsedApk:
        return apk


class _VaultRecords:
    """The sqlite family's codec: the record lives in its row's typed
    columns (the payload is NULL), served APK bytes in the blob vault,
    and decoded records hold :class:`LazyApk` proxies."""

    def __init__(self, vault):
        self.vault = vault

    def encode(self, record: CrawlRecord) -> None:
        """Store the record's APK, if parsed; the payload is NULL."""
        if isinstance(record.apk, ParsedApk):
            self.vault.put(record.apk)

    def decode(self, row: Tuple) -> CrawlRecord:
        (market_id, package, md5, signer, vc_hint, min_sdk, obfuscated_by, dex_digest,
         apk_source, app_name, version_name, version_code, category, downloads,
         installs_low, installs_high, rating, updated_day, developer_name, crawl_day,
         _) = row
        return CrawlRecord(
            market_id,
            package,
            app_name,
            version_name,
            version_code,
            category,
            downloads,
            None if installs_low is None else (installs_low, installs_high),
            rating,
            updated_day,
            developer_name,
            crawl_day,
            None if md5 is None else LazyApk(
                self.vault, md5, signer, vc_hint, min_sdk, obfuscated_by, dex_digest
            ),
            apk_source,
        )

    def keep_apk(self, apk: ParsedApk, blob: Optional[bytes] = None):
        """Store the APK's served bytes; the record keeps its lazy proxy."""
        return self.vault.lazy(apk, blob)


class Snapshot:
    """The dataset of one crawl campaign.

    ``store=None`` (the default) keeps the record family in memory.
    With a :class:`~repro.store.corpus.CorpusStore`, its rows are copied
    to the store's per-campaign segment table once the record count
    crosses the store's ``spill_threshold``; below it, behavior and
    memory layout are those of the memory backend.
    """

    def __init__(self, label: str, store: Optional["CorpusStore"] = None):
        self.label = label
        self._store = store
        self._family = MemoryFamily("crawl", **CRAWL_SCHEMA)
        self._codec = _ResidentRecords
        # Resident on both backends: duplicate detection and markets()
        # never touch the family.
        self._keys: Set[Tuple[str, str]] = set()
        self._market_ids: Set[str] = set()
        #: Per-market campaign health, filled by the coordinator; empty
        #: for snapshots produced outside a campaign (tests, loaders).
        self.health: Dict[str, MarketHealth] = {}
        #: Work items abandoned under partial failure (never populated
        #: on a clean campaign).
        self.dead_letters: List[DeadLetter] = []

    @property
    def spilled(self) -> bool:
        """True once records live in the segment table, not in memory."""
        return not isinstance(self._family, MemoryFamily)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[CrawlRecord]:
        return map(self._codec.decode, self._family.scan())

    def _records(self, **where: object) -> List[CrawlRecord]:
        return list(map(self._codec.decode, self._family.scan(**where)))

    def _spill(self) -> None:
        """Copy the memory family's rows into the store's segment table."""
        family = self._store.crawl_family(self.label)
        codec = _VaultRecords(self._store.vault)
        family.replace((*row[:-1], codec.encode(row[-1])) for row in self._family.scan())
        self._family, self._codec = family, codec

    # -- ingest ------------------------------------------------------------

    def add(self, record: CrawlRecord) -> bool:
        """Insert a record; returns False if (market, package) already seen.

        With a store armed, a record whose metadata an SQLite row would
        alter is refused with :class:`~repro.store.columnar.StoreError`
        before anything is stored (see :func:`_check_storable`).
        """
        key = (record.market_id, record.package)
        if key in self._keys:
            return False
        if self._store is not None:
            _check_storable(record)
        self._keys.add(key)
        self._market_ids.add(record.market_id)
        self._family.append(*_row(record), self._codec.encode(record))
        if (
            self._store is not None
            and not self.spilled
            and len(self._keys) > self._store.spill_threshold
        ):
            self._spill()
        return True

    def attach_apk(
        self,
        record: CrawlRecord,
        apk: ParsedApk,
        source: Optional[str],
        blob: Optional[bytes] = None,
    ) -> None:
        """Attach a downloaded APK to a record, writing through the family.

        The record's row gets the APK identity columns and the caller's
        record object gets the APK (on the memory family that object is
        the stored record).  Once spilled, the APK's served bytes
        (``blob``, which ``apk`` was parsed from) go to the blob vault
        and the record holds a :class:`LazyApk` — the parsed APK is
        released as soon as the caller drops it, so the download phase
        never accumulates the corpus in RAM.
        """
        apk = self._codec.keep_apk(apk, blob)
        columns = dict(zip(_APK_COLUMNS, _apk_columns(apk)), apk_source=source)
        self._family.update(
            columns, {"market_id": record.market_id, "package": record.package}
        )
        record.apk = apk
        record.apk_source = source

    # -- lookups -----------------------------------------------------------

    def get(self, market_id: str, package: str) -> Optional[CrawlRecord]:
        if (market_id, package) not in self._keys:
            return None
        # A resident key always has its row.
        return self._codec.decode(self._family.get(market_id=market_id, package=package))

    def in_market(self, market_id: str) -> List[CrawlRecord]:
        return self._records(market_id=market_id)

    def market_size(self, market_id: str) -> int:
        return self._family.count(market_id=market_id)

    def markets(self) -> List[str]:
        return sorted(self._market_ids)

    def for_package(self, package: str) -> List[CrawlRecord]:
        return self._records(package=package)

    def packages(self) -> List[str]:
        return sorted({package for _, package in self._keys})

    def markets_of(self, package: str) -> List[str]:
        return sorted(row[0] for row in self._family.scan(package=package))

    def with_apk(self) -> Iterator[CrawlRecord]:
        return (r for r in self if r.has_apk)

    def degraded_markets(self) -> List[str]:
        """Markets the campaign completed without (breaker-quarantined)."""
        return sorted(m for m, h in self.health.items() if not h.ok)

    # -- streaming cursors -------------------------------------------------

    def iter_sorted(self, batch_size: Optional[int] = None) -> Iterator[CrawlRecord]:
        """Stream records in canonical (market_id, package) order.

        Once spilled this pages an ordered cursor (one batch resident);
        SQLite's BINARY collation over UTF-8 equals Python's str order,
        so both families yield the identical sequence.
        """
        rows = self._family.scan(batch_size=batch_size, order_by=["market_id", "package"])
        return map(self._codec.decode, rows)

    def iter_package_groups(
        self, batch_size: Optional[int] = None
    ) -> Iterator[Tuple[str, List[CrawlRecord]]]:
        """Stream ``(package, records)`` groups in package order.

        Records within a group come in ingest order on both backends;
        unit building sorts them canonically anyway.  Only one package's
        records are resident at a time, which is what lets unit
        construction stream.
        """
        rows = self._family.scan(batch_size=batch_size, order_by=["package"])
        for package, group in groupby(rows, key=itemgetter(1)):
            yield package, list(map(self._codec.decode, group))

    def sorted_records(self) -> List[CrawlRecord]:
        """Records in canonical (market_id, package) order."""
        return list(self.iter_sorted())

    def content_digest(self) -> int:
        """A stable digest of the full snapshot content.

        Covers every metadata field plus APK identity and provenance,
        over records in canonical order — two crawls produced the same
        dataset iff their digests match, which is how the determinism
        tests compare a parallel crawl against the serial path, and how
        the store contract tests compare backends.  Computed as a
        streaming fold (see :func:`streaming_snapshot_digest`) so the
        spilled backend never materializes the row tuple.
        """
        return streaming_snapshot_digest(
            self.label, (_digest_row(r) for r in self.iter_sorted())
        )

    def apk_coverage(self, market_id: str) -> float:
        """Share of a market's records with a parsed APK."""
        total = with_apk = 0
        for row in self._family.scan(market_id=market_id):
            total += 1
            with_apk += row[2] is not None  # md5 column
        return with_apk / total if total else 0.0
