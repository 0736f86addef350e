"""Binary APK archive format.

``serialize_apk`` turns an :class:`~repro.apk.models.Apk` into a
compressed binary blob (magic ``RAPK1``); ``parse_apk`` reverses it.
Analyzers only ever receive blobs (from crawler downloads) and work on
the resulting :class:`ParsedApk` — this enforces the boundary between
the synthetic world and the measurement code.

The per-code-package ``dex`` segments are the bulk of every blob, and
the part shared verbatim across a package's 16-market × version
fan-out (per §5.3 placements differ only by manifest, channel file,
and signature).  Each distinct segment is therefore encoded once and
decoded once:

* **Encode once.**  A :class:`SegmentCache` passed to
  :func:`serialize_apk` JSON-encodes each distinct package once and
  splices the bytes thereafter.  The emitted bytes are identical with
  or without it.
* **Decode once.**  :func:`parse_apk` keeps a table of the
  :class:`CodePackage` objects it has decoded, keyed by the exact JSON
  text of their ``dex`` entry and holding them by weak reference, and
  returns the one already built for an entry of the same text without
  decoding it again.  A package lives exactly as long as some
  :class:`ParsedApk` holds it: a resident snapshot shares one copy of
  every library, and a spilled run, whose crawl hands each parsed APK
  to the blob vault's LRU, shares those of the APKs that LRU holds.
  A hit returns exactly what a cold decode would: JSON text decodes to
  one value, and a JSON object ends at its closing brace, so an entry
  that starts with a stored text decodes as that text did.  Only a
  successful cold decode stores a text, and a document laid out other
  than :func:`serialize_apk` writes it (whitespace, key order, invalid
  JSON) goes through ``json.loads`` and decodes, or fails, cold.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
import weakref
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.apk.models import Apk, ChannelFile, CodePackage, Manifest

__all__ = [
    "MAGIC",
    "MAX_BLOB_BYTES",
    "MAX_DOCUMENT_BYTES",
    "ApkParseError",
    "ParsedApk",
    "SegmentCache",
    "serialize_apk",
    "parse_apk",
]

MAGIC = b"RAPK1"

#: Largest inflated document :func:`parse_apk` accepts.  Blobs arrive
#: from market servers and zlib inflates up to ~1000x, so the output is
#: bounded before it is allocated.  The largest document the 50x smoke
#: corpus (seed 7, scale 0.02: all 169,273 market placements) produces
#: is 17,816 bytes; the cap leaves ~14x headroom above it.
MAX_DOCUMENT_BYTES = 256 * 1024

#: Largest blob :func:`parse_apk` accepts, and so the largest the blob
#: vault stores and reads back.  A blob is a compressed document, so a
#: served one never comes near the document cap; one past it is damage.
MAX_BLOB_BYTES = MAX_DOCUMENT_BYTES


class ApkParseError(Exception):
    """Raised when a blob is not a valid APK archive."""


def _package_doc(pkg: CodePackage) -> dict:
    return {
        "name": pkg.name,
        "features": sorted(pkg.features.items()),
        "blocks": list(pkg.blocks),
    }


class SegmentCache:
    """Encoded ``dex`` segments, keyed by code-package content.

    The key is ``(name, feature_digest, blocks)`` — the full content of
    a :class:`CodePackage` — so a hit can only ever return the bytes the
    cold path would have produced.  Thread-safe: stores are idempotent
    (same key -> same bytes), so the lock only guards dict integrity,
    and the cache is shared across all 16 market stores plus the
    archive backfill.
    """

    def __init__(self) -> None:
        self._fragments: Dict[Tuple[str, int, Tuple[int, ...]], str] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def fragment(self, pkg: CodePackage) -> str:
        """The compact-JSON encoding of one package's dex segment."""
        key = (pkg.name, pkg.feature_digest, tuple(pkg.blocks))
        with self._lock:
            cached = self._fragments.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        encoded = json.dumps(_package_doc(pkg), separators=(",", ":"))
        with self._lock:
            self._fragments[key] = encoded
        return encoded

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "segments": len(self._fragments),
            }


def serialize_apk(apk: Apk, segments: Optional[SegmentCache] = None) -> bytes:
    """Serialize an APK to its on-the-wire binary form.

    With a :class:`SegmentCache`, the per-package ``dex`` fragments come
    from the cache and only the small per-placement parts (manifest,
    signature, META-INF) are re-encoded; the output bytes are identical
    either way (the splice reassembles exactly the compact-JSON document
    of the cold path — same key order, same separators).
    """
    manifest_doc = {
        "package": apk.manifest.package,
        "version_code": apk.manifest.version_code,
        "version_name": apk.manifest.version_name,
        "min_sdk": apk.manifest.min_sdk,
        "target_sdk": apk.manifest.target_sdk,
        "permissions": list(apk.manifest.permissions),
    }
    signature_doc = {
        "fingerprint": apk.signer_fingerprint,
        "signer": apk.signer_name,
    }
    meta_inf_doc = [[entry.name, entry.content] for entry in apk.meta_inf]
    if segments is None:
        doc = {
            "manifest": manifest_doc,
            "dex": [_package_doc(pkg) for pkg in apk.packages],
            "signature": signature_doc,
            "meta_inf": meta_inf_doc,
            "obfuscated_by": apk.obfuscated_by,
        }
        body = json.dumps(doc, separators=(",", ":"))
    else:
        compact = lambda value: json.dumps(value, separators=(",", ":"))  # noqa: E731
        body = (
            '{"manifest":'
            + compact(manifest_doc)
            + ',"dex":['
            + ",".join(segments.fragment(pkg) for pkg in apk.packages)
            + '],"signature":'
            + compact(signature_doc)
            + ',"meta_inf":'
            + compact(meta_inf_doc)
            + ',"obfuscated_by":'
            + compact(apk.obfuscated_by)
            + "}"
        )
    payload = zlib.compress(body.encode("utf-8"), 6)
    return MAGIC + struct.pack(">I", len(payload)) + payload


@dataclass
class ParsedApk:
    """The analyzer-facing view of one APK file.

    Produced only by :func:`parse_apk`, so everything here is derived
    from the archive bytes, exactly as androguard/ApkSigner would derive
    it from a real APK.
    """

    manifest: Manifest
    packages: Tuple[CodePackage, ...]
    signer_fingerprint: str
    signer_name: str
    meta_inf: Tuple[ChannelFile, ...]
    obfuscated_by: Optional[str]
    md5: str
    size_bytes: int

    def merged_features(self) -> Dict[int, int]:
        # Memoized: every permission/library pass re-reads this per APK,
        # and a parsed APK's packages never change after parse_apk.
        cached = getattr(self, "_merged_features", None)
        if cached is None:
            cached = {}
            for pkg in self.packages:
                for fid, count in pkg.features.items():
                    cached[fid] = cached.get(fid, 0) + count
            self._merged_features = cached
        return cached

    @property
    def dex_digest(self) -> int:
        """One digest of the executable content alone: the sorted feature
        digests of the code packages, ignoring package names (renamed by
        packers) and META-INF entries.  Signed 64-bit, so an SQLite
        INTEGER column stores it as it is.  Memoized like
        :meth:`merged_features`."""
        cached = getattr(self, "_dex_digest", None)
        if cached is None:
            key = repr(tuple(sorted(pkg.feature_digest for pkg in self.packages)))
            digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
            cached = self._dex_digest = int.from_bytes(digest, "big", signed=True)
        return cached

    def package_names(self) -> Tuple[str, ...]:
        return tuple(pkg.name for pkg in self.packages)

    def package_digests(self) -> Dict[str, int]:
        """Map code-package name -> feature digest (AV/library lookups)."""
        return {pkg.name: pkg.feature_digest for pkg in self.packages}

    @property
    def version_code(self) -> int:
        return self.manifest.version_code

    @property
    def min_sdk(self) -> int:
        return self.manifest.min_sdk

    def resolve(self) -> "ParsedApk":
        """The decoded APK: this one (a vault proxy loads its document)."""
        return self

    @property
    def identity(self) -> Tuple[str, int]:
        """The (package, version_code) primary key used throughout §5."""
        return (self.manifest.package, self.manifest.version_code)


#: Decoded code packages by the exact JSON text of their ``dex`` entry.
#: Values are weak, so the table never keeps a package alive by itself.
_PACKAGES: "weakref.WeakValueDictionary[str, CodePackage]" = weakref.WeakValueDictionary()
_PACKAGES_LOCK = threading.Lock()

#: The scanner ``json.loads`` runs, called here one document part at a time.
_scan = json.JSONDecoder().scan_once

#: The document's keys in the order :func:`serialize_apk` writes them.
_LAYOUT = ("manifest", "dex", "signature", "meta_inf", "obfuscated_by")


def _scan_dex(text: str, i: int) -> Tuple[list, int]:
    """The ``dex`` list at ``text[i]``: the shared package of each entry
    whose exact text the table holds, and ``(value, text)`` of the rest.

    A JSON object ends at its closing brace whatever follows it, so an
    entry that starts with a stored text *is* that text, and decodes as
    it did.  A compact entry ends at the first ``]}`` (its ``blocks``
    list closing); where that guess is wrong, the lookup just misses.
    """
    if text[i : i + 1] != "[":
        raise ValueError("not a dex list")
    if text[i + 1 : i + 2] == "]":
        return [], i + 2
    entries: list = []
    while True:
        i += 1
        end = text.find("]}", i) + 2
        with _PACKAGES_LOCK:
            item = _PACKAGES.get(text[i:end])
        if item is None:
            value, end = _scan(text, i)
            item = (value, text[i:end])
        entries.append(item)
        i = end
        separator = text[i : i + 1]
        if separator == "]":
            return entries, i + 1
        if separator != ",":
            raise ValueError("not a dex list")


def _load_compact(text: str) -> Optional[dict]:
    """``json.loads(text)`` for a document laid out as :func:`serialize_apk`
    writes it, with ``dex`` as :func:`_scan_dex` reads it; None for any
    other text, which ``json.loads`` then decodes, or refuses, itself.
    """
    doc = {}
    i = 0
    try:
        for n, name in enumerate(_LAYOUT):
            head = ('{"' if n == 0 else ',"') + name + '":'
            if not text.startswith(head, i):
                return None
            read = _scan_dex if name == "dex" else _scan
            doc[name], i = read(text, i + len(head))
    except (StopIteration, ValueError, RecursionError):
        return None
    return doc if i == len(text) - 1 and text.endswith("}") else None


def _cold_package(entry) -> CodePackage:
    return CodePackage(
        name=entry["name"],
        features={int(fid): int(count) for fid, count in entry["features"]},
        blocks=tuple(map(int, entry["blocks"])),
    )


def _shared_package(item) -> CodePackage:
    """The package of one item of a :func:`_scan_dex` list: a hit as it
    is, a miss decoded cold and, once that succeeds, stored."""
    if type(item) is not tuple:
        return item
    value, text = item
    pkg = _cold_package(value)
    with _PACKAGES_LOCK:
        return _PACKAGES.setdefault(text, pkg)


def parse_apk(blob: bytes) -> ParsedApk:
    """Parse a serialized APK blob.

    Code packages are shared: a ``dex`` entry of the same text as one an
    earlier parse decoded, while that package is alive, comes back as
    the same :class:`CodePackage` object (see the module docstring).

    Raises :class:`ApkParseError` on malformed input (bad magic,
    truncation, a blob over :data:`MAX_BLOB_BYTES`, corrupt payload,
    bytes after the compressed stream, JSON nested too deep to decode,
    a document inflating past :data:`MAX_DOCUMENT_BYTES`, or schema
    violations), never anything else.
    """
    if len(blob) < len(MAGIC) + 4:
        raise ApkParseError("blob too short")
    if len(blob) > MAX_BLOB_BYTES:
        raise ApkParseError(f"blob too long: {len(blob)} bytes, over the {MAX_BLOB_BYTES}-byte cap")
    if blob[: len(MAGIC)] != MAGIC:
        raise ApkParseError("bad magic")
    (length,) = struct.unpack(">I", blob[len(MAGIC) : len(MAGIC) + 4])
    payload = blob[len(MAGIC) + 4 :]
    if len(payload) != length:
        raise ApkParseError(f"payload length mismatch: {len(payload)} != {length}")
    inflater = zlib.decompressobj()
    try:
        document = inflater.decompress(payload, MAX_DOCUMENT_BYTES + 1)
        if len(document) > MAX_DOCUMENT_BYTES:
            raise ApkParseError(
                f"payload inflates past the {MAX_DOCUMENT_BYTES}-byte document cap"
            )
        if not inflater.eof:
            raise ApkParseError("corrupt payload: truncated stream")
        if inflater.unused_data:
            raise ApkParseError(
                f"corrupt payload: {len(inflater.unused_data)} bytes after the stream"
            )
        text = document.decode("utf-8")
        compact = _load_compact(text)
        doc = compact or json.loads(text)
    except (zlib.error, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested too deep for the decoder's stack.
        raise ApkParseError(f"corrupt payload: {exc}") from exc

    try:
        mdoc = doc["manifest"]
        manifest = Manifest(
            package=mdoc["package"],
            version_code=int(mdoc["version_code"]),
            version_name=mdoc["version_name"],
            min_sdk=int(mdoc["min_sdk"]),
            target_sdk=int(mdoc["target_sdk"]),
            permissions=tuple(mdoc["permissions"]),
        )
        packages = tuple(map(_shared_package if compact else _cold_package, doc["dex"]))
        meta_inf = tuple(ChannelFile(name, content) for name, content in doc["meta_inf"])
        return ParsedApk(
            manifest=manifest,
            packages=packages,
            signer_fingerprint=doc["signature"]["fingerprint"],
            signer_name=doc["signature"]["signer"],
            meta_inf=meta_inf,
            obfuscated_by=doc.get("obfuscated_by"),
            md5=hashlib.md5(blob).hexdigest(),
            size_bytes=len(blob),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ApkParseError(f"schema violation: {exc!r}") from exc
