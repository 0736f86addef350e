"""Content-addressed APK blob vault with lazy proxies.

The vault stores parsed-APK documents on disk keyed by MD5 (the crawl
journal keeps its APKs in one too, at ``<checkpoint>/apks``), sharded
two hex characters deep, and serves reads through
``mmap`` so repeated loads of a hot shard stay in the page cache rather
than duplicating bytes per reader.  A bounded LRU of decoded
:class:`~repro.apk.archive.ParsedApk` objects sits on top; the bound is
what keeps the resident set flat when a streaming cursor walks millions
of records.

:class:`LazyApk` is the out-of-core stand-in for a ``ParsedApk`` held
by a crawl record or app unit.  It carries the manifest scalars the
record-level analyses read — ``md5``, ``signer_fingerprint``,
``version_code``, ``min_sdk`` and ``obfuscated_by``, under the names
``ParsedApk`` answers them — as columns of the snapshot row, so a walk
over those (Figure 3, the §5.3 identity key, unit ranking) never opens
a blob.  Every other attribute resolves through the vault on demand,
and the proxy never caches the parsed object on itself, so a retained
record stays a few pointers wide.

The LRU cannot absorb a cyclic scan longer than itself, so per-APK
analyses do not walk proxies attribute by attribute: the analysis
engine resolves each unit's APK once (:meth:`LazyApk.resolve`) and runs
every analyzer that needs it on that one decode.  ``loads`` and
``decodes`` count calls and cache misses, the vault's read cost.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

__all__ = ["BlobVault", "LazyApk", "DEFAULT_VAULT_CACHE"]

#: Decoded-APK LRU size.  ~200 ParsedApks is a few MiB — enough to keep
#: one analysis batch hot without letting the cache become the corpus.
DEFAULT_VAULT_CACHE = 256

_MD5 = re.compile(r"[0-9a-f]{32}")


class BlobVault:
    """Disk store of parsed-APK docs: ``root/<md5[:2]>/<md5>.json``."""

    def __init__(self, root: Union[str, Path], cache_size: int = DEFAULT_VAULT_CACHE):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cache: "OrderedDict[str, object]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        self._lock = threading.Lock()
        #: ``load`` calls, and those that missed the LRU and decoded.
        self.loads = 0
        self.decodes = 0

    def _path(self, md5: str) -> Path:
        if not _MD5.fullmatch(md5):
            raise ValueError(f"not an MD5 hex digest: {md5!r}")
        return self.root / md5[:2] / f"{md5}.json"

    def put(self, apk) -> str:
        """Store one parsed APK; idempotent; returns its MD5."""
        from repro.crawler.dataset import _apk_to_doc

        md5 = apk.md5
        path = self._path(md5)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.{id(apk):x}.tmp")
            tmp.write_text(
                json.dumps(_apk_to_doc(apk), separators=(",", ":")),
                encoding="utf-8",
            )
            os.replace(tmp, path)
        return md5

    def load(self, md5: str):
        """Decode one APK by digest, through the bounded LRU."""
        from repro.crawler.dataset import _apk_from_doc

        with self._lock:
            self.loads += 1
            apk = self._cache.get(md5)
            if apk is not None:
                self._cache.move_to_end(md5)
                return apk
            self.decodes += 1
        path = self._path(md5)
        with open(path, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
                doc = json.loads(view[:])
        apk = _apk_from_doc(doc)
        with self._lock:
            self._cache[md5] = apk
            self._cache.move_to_end(md5)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return apk

    def __contains__(self, md5: str) -> bool:
        with self._lock:
            if md5 in self._cache:
                return True
        return self._path(md5).exists()

    def lazy(self, apk) -> "LazyApk":
        """Store ``apk`` and return its lazy stand-in."""
        self.put(apk)
        return LazyApk(
            self,
            apk.md5,
            apk.signer_fingerprint,
            apk.version_code,
            apk.min_sdk,
            apk.obfuscated_by,
        )


class LazyApk:
    """A ``ParsedApk`` proxy that re-reads from the vault on demand.

    The row scalars live on the proxy (``md5``, ``signer_fingerprint``,
    ``version_code``, ``min_sdk``, ``obfuscated_by``); everything else —
    manifest, code packages, META-INF, merged features — delegates to
    the vault's bounded LRU, one ``load`` per attribute read.  The proxy
    never pins the decoded object, so holding a million proxies costs a
    million small structs, not a million parsed APKs.
    """

    __slots__ = (
        "_vault", "md5", "signer_fingerprint", "version_code", "min_sdk", "obfuscated_by",
    )

    def __init__(
        self,
        vault: BlobVault,
        md5: str,
        signer_fingerprint: str,
        version_code: int,
        min_sdk: int,
        obfuscated_by: Optional[str],
    ):
        self._vault = vault
        self.md5 = md5
        self.signer_fingerprint = signer_fingerprint
        self.version_code = version_code
        self.min_sdk = min_sdk
        self.obfuscated_by = obfuscated_by

    def resolve(self):
        """The decoded :class:`~repro.apk.archive.ParsedApk` (one vault load)."""
        return self._vault.load(self.md5)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._vault.load(self.md5), name)

    def __repr__(self) -> str:
        return f"LazyApk(md5={self.md5!r})"
