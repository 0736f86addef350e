"""Content-addressed APK blob vault with lazy proxies.

The vault keeps each APK as the market served it: the RAPK1 bytes
:func:`~repro.apk.archive.parse_apk` decodes, one row
``(md5 TEXT PRIMARY KEY, blob BLOB)`` per APK in a single SQLite
database (the crawl journal keeps its APKs in one too, at
``<checkpoint>/apks.db``, and a checkpointed corpus shares it).  An
APK's ``md5`` is the MD5 of its blob, so every read is self-verifying:
:meth:`BlobVault.load` refuses a blob over :data:`MAX_BLOB_BYTES`
before parsing it, and one that does not hash to its key after
(``parse_apk`` refuses every blob the size check would, so a blob the
crawl parsed loads back from an intact row).  A bounded LRU of
decoded :class:`~repro.apk.archive.ParsedApk` objects sits on top,
holding the last 256 APKs the vault decoded or the crawl handed to
:meth:`BlobVault.lazy`.  It earns its keep by keeping objects alive,
not by hits: a spilled report run (seed 42, scale 0.0001) makes
1,270 loads, one per APK-backed unit in the shared analysis walk and
one in clone extraction, and the LRU answers 25 of them.  The APKs it
holds keep their code packages in ``parse_apk``'s weak package table,
so a parse that shares a library with a recent APK reuses its decoded
package.  In that run the crawl constructs 2,756 packages for 15,293
dex entries, and analysis and the experiments 2,652 more.  The bound
is what keeps the resident set flat when a streaming cursor walks
millions of records.

The database runs in WAL mode with ``synchronous=NORMAL`` (as the
record families' :class:`~repro.store.columnar.ColumnStore` does), in
autocommit, so a put is committed when it returns: the crawl journal
writes the line that names an APK only after the APK's row.  The
connection gets a small page cache and no mmap, so the vault adds
next to nothing to the resident set beyond the LRU's decoded APKs.

:class:`LazyApk` is the out-of-core stand-in for a ``ParsedApk`` held
by a crawl record or app unit.  It carries the scalars the
record-level analyses read — ``md5``, ``signer_fingerprint``,
``version_code``, ``min_sdk``, ``obfuscated_by`` and ``dex_digest``,
under the names ``ParsedApk`` answers them — as columns of the
snapshot row, so a walk over those (Figure 3, §5.3, unit ranking)
never opens a blob.  Every other attribute resolves through the vault
on demand, and the proxy never caches the parsed object on itself, so
a retained record stays a few pointers wide.

The LRU cannot absorb a cyclic scan longer than itself, so per-APK
analyses do not walk proxies attribute by attribute: the analysis
engine resolves each unit's APK once (:meth:`LazyApk.resolve`) and runs
every analyzer that needs it on that one decode.  ``loads`` and
``decodes`` count calls and cache misses, the vault's read cost.
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.apk.archive import MAX_BLOB_BYTES, parse_apk, serialize_apk
from repro.store.columnar import WAL_LIMIT_BYTES

__all__ = ["BlobVault", "LazyApk", "VaultError", "DEFAULT_VAULT_CACHE", "MAX_BLOB_BYTES"]

#: Decoded-APK LRU size.  ~200 ParsedApks is a few MiB — enough to keep
#: the packages of recently crawled or decoded APKs in the package table
#: (see the module docstring) without letting the cache become the corpus.
DEFAULT_VAULT_CACHE = 256

#: SQLite page cache of the vault's connection, in KiB.
_CACHE_KIB = 64

#: Page size of a new vault database.  Served blobs are a few KiB, so
#: 1 KiB pages leave under a page of slack per row, and the WAL (1,000
#: pages between automatic checkpoints) stays near 1 MiB.
_PAGE_BYTES = 1024

_MD5 = re.compile(r"[0-9a-f]{32}")


class VaultError(ValueError):
    """A vault key that is not an MD5, or a row that is missing,
    oversized, or not the APK its key names."""


def _key(md5: str) -> str:
    if not _MD5.fullmatch(md5):
        raise VaultError(f"not an MD5 hex digest: {md5!r}")
    return md5


class BlobVault:
    """Served APK bytes keyed by MD5, one row each in one SQLite file."""

    def __init__(self, path: Union[str, Path], cache_size: int = DEFAULT_VAULT_CACHE):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._cache: "OrderedDict[str, object]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        self._lock = threading.Lock()
        #: ``load`` calls, and those that missed the LRU and decoded.
        self.loads = 0
        self.decodes = 0
        self._conn = sqlite3.connect(self.path, check_same_thread=False, isolation_level=None)
        self._conn.execute(f"PRAGMA page_size={_PAGE_BYTES}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA journal_size_limit={WAL_LIMIT_BYTES}")
        self._conn.execute(f"PRAGMA cache_size=-{_CACHE_KIB}")
        self._conn.execute("PRAGMA mmap_size=0")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS apks (md5 TEXT PRIMARY KEY, blob BLOB NOT NULL)"
        )

    def put(self, apk, blob: Optional[bytes] = None) -> str:
        """Store one APK's served bytes; idempotent; returns its MD5.

        ``blob`` is the bytes ``apk`` was parsed from.  Without it the
        APK is re-encoded, unless its MD5 is stored already, and the put
        is refused when the re-encoding does not hash to ``apk.md5``.
        """
        md5 = apk.md5
        if blob is None:
            if md5 in self:
                return md5
            blob = serialize_apk(apk)
            if hashlib.md5(blob).hexdigest() != md5:
                raise VaultError(f"APK {md5} does not re-encode to its served bytes")
        with self._lock:
            self._conn.execute("INSERT OR IGNORE INTO apks VALUES (?, ?)", (md5, blob))
        return md5

    def load(self, md5: str):
        """Decode one APK by digest, through the bounded LRU.

        Raises :class:`VaultError` for a missing, oversized or
        mismatched row and :class:`~repro.apk.archive.ApkParseError` for
        one that does not parse.
        """
        with self._lock:
            self.loads += 1
            apk = self._cache.get(md5)
            if apk is not None:
                self._cache.move_to_end(md5)
                return apk
            self.decodes += 1
            row = self._conn.execute(
                "SELECT length(blob), CASE WHEN length(blob) <= ? THEN blob END "
                "FROM apks WHERE md5 = ?",
                (MAX_BLOB_BYTES, _key(md5)),
            ).fetchone()
        if row is None:
            raise VaultError(f"no APK {md5} in {self.path}")
        size, blob = row
        if blob is None:
            raise VaultError(f"APK {md5} is {size} bytes, over the {MAX_BLOB_BYTES}-byte cap")
        apk = parse_apk(blob)
        if apk.md5 != md5:
            raise VaultError(f"vault row {md5} holds APK {apk.md5}")
        self._remember(apk)
        return apk

    def _remember(self, apk) -> None:
        """Make ``apk`` the LRU's most recent entry, evicting past the bound."""
        with self._lock:
            self._cache[apk.md5] = apk
            self._cache.move_to_end(apk.md5)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def __contains__(self, md5: str) -> bool:
        with self._lock:
            if md5 in self._cache:
                return True
            query = "SELECT 1 FROM apks WHERE md5 = ?"
            return self._conn.execute(query, (_key(md5),)).fetchone() is not None

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT count(*) FROM apks").fetchone()[0]

    def lazy(self, apk, blob: Optional[bytes] = None) -> "LazyApk":
        """Store ``apk`` (see :meth:`put`), hold it in the LRU as if just
        loaded, and return its lazy stand-in."""
        self.put(apk, blob)
        self._remember(apk)
        return LazyApk(
            self,
            apk.md5,
            apk.signer_fingerprint,
            apk.version_code,
            apk.min_sdk,
            apk.obfuscated_by,
            apk.dex_digest,
        )

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class LazyApk:
    """A ``ParsedApk`` proxy that re-reads from the vault on demand.

    The row scalars live on the proxy (``md5``, ``signer_fingerprint``,
    ``version_code``, ``min_sdk``, ``obfuscated_by``, ``dex_digest``);
    everything else — manifest, code packages, META-INF, merged
    features — delegates to :meth:`BlobVault.load`, one ``load`` per
    attribute read; the vault's LRU rarely answers it (25 of 1,270 loads
    in the run the module docstring describes), so each read is usually
    a decode.  The proxy never pins the decoded object, so holding a
    million proxies costs a million small structs, not a million parsed
    APKs.
    """

    __slots__ = (
        "_vault", "md5", "signer_fingerprint", "version_code", "min_sdk", "obfuscated_by",
        "dex_digest",
    )

    def __init__(
        self,
        vault: BlobVault,
        md5: str,
        signer_fingerprint: str,
        version_code: int,
        min_sdk: int,
        obfuscated_by: Optional[str],
        dex_digest: int,
    ):
        self._vault = vault
        self.md5 = md5
        self.signer_fingerprint = signer_fingerprint
        self.version_code = version_code
        self.min_sdk = min_sdk
        self.obfuscated_by = obfuscated_by
        self.dex_digest = dex_digest

    def resolve(self):
        """The decoded :class:`~repro.apk.archive.ParsedApk` (one vault load)."""
        return self._vault.load(self.md5)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._vault.load(self.md5), name)

    def __repr__(self) -> str:
        return f"LazyApk(md5={self.md5!r})"
