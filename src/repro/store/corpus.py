"""The corpus store facade and the world's app table.

:class:`CorpusStore` bundles the two disk layers one study run needs —
a :class:`~repro.store.columnar.ColumnStore` of record-family segment
tables and a :class:`~repro.store.blobs.BlobVault` of served APK bytes —
under one root directory, and resolves itself from a
:class:`~repro.core.config.StudyConfig` (``store_backend="sqlite"``).
A checkpointed run hands it the crawl journal's vault instead, so each
APK is stored once per run.
It also declares the schema of each record family, which the memory and
the sqlite family of that record kind share.

:class:`AppTable` is ``World.apps`` once generation finishes: a
read-mostly sequence of :class:`~repro.ecosystem.apps.AppBlueprint`
rows keyed by ``app_id`` with an indexed ``package`` column (so
``find_by_package`` is a lookup, not a corpus scan), over one record
family.  It starts on a :class:`~repro.store.columnar.MemoryFamily`
holding the blueprints themselves; :meth:`AppTable.spill` copies its
rows into the store's sqlite family, where the row codec pickles each
blueprint with two store-specific twists:

* **Developers keep identity.**  A :class:`Developer` is pickled as a
  persistent id and resolved against the world's developer list on
  load, so ``app.developer is world.developers[i]`` still holds and a
  developer is stored once, not once per app.
* **Memos are stripped.**  ``OwnCode`` memoizes its built
  :class:`CodePackage`; the memo is dropped before pickling so payload
  bytes stay deterministic and small.

Mutation contract: callers that mutate a blueprint (catalog evolution
bumping ``placement.version_index``) call :meth:`AppTable.write_back`.
On the sqlite family that persists it (a read there is a decoded copy);
on the memory family it rewrites the row with the same object.
"""

from __future__ import annotations

import io
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.ecosystem.developers import Developer
from repro.store.blobs import BlobVault
from repro.store.columnar import (
    DEFAULT_BATCH_SIZE,
    ColumnStore,
    Family,
    MemoryFamily,
    ResidentCodec,
    StoreError,
)

__all__ = [
    "AppTable",
    "CorpusStore",
    "SpilledAppList",
    "APPS_SCHEMA",
    "CRAWL_SCHEMA",
    "DEFAULT_SPILL_THRESHOLD",
]

#: Below this many records a family stays in memory (bit-identical to
#: the memory backend); above it, rows spill to the segment tables.
DEFAULT_SPILL_THRESHOLD = 5000

#: Decoded-blueprint LRU for random access (market stores resolve
#: ``world.app(listing.app_id)`` on every APK build).
DEFAULT_APP_CACHE = 512

#: The world's apps: one row per blueprint.
APPS_SCHEMA = dict(
    key_columns=[("app_id", "INTEGER"), ("package", "TEXT")],
    unique=["app_id"],
    indexes=[["package"]],
)

#: One crawl campaign's records: the APK identity and the manifest
#: scalars record-level analyses read (a spilled record's ``LazyApk``
#: answers them without opening its blob), then the record's metadata,
#: so a spilled record decodes from its row alone.  The payload is the
#: record object on the memory family and NULL on the sqlite one.
CRAWL_SCHEMA = dict(
    key_columns=[
        ("market_id", "TEXT"),
        ("package", "TEXT"),
        ("md5", "TEXT"),
        ("signer", "TEXT"),
        ("vc_hint", "INTEGER"),
        ("min_sdk", "INTEGER"),
        ("obfuscated_by", "TEXT"),
        ("dex_digest", "INTEGER"),
        ("apk_source", "TEXT"),
        ("app_name", "TEXT"),
        ("version_name", "TEXT"),
        ("version_code", "INTEGER"),
        ("category", "TEXT"),
        ("downloads", "INTEGER"),
        ("installs_low", "INTEGER"),
        ("installs_high", "INTEGER"),
        ("rating", "REAL"),
        ("updated_day", "INTEGER"),
        ("developer_name", "TEXT"),
        ("crawl_day", "REAL"),
    ],
    unique=["market_id", "package"],
    indexes=[["market_id"], ["package"]],
)


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name) or "_"


class CorpusStore:
    """One run's disk corpus: segment tables + APK vault under a root."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        vault: Optional[BlobVault] = None,
    ):
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-corpus-")
            root = self._tmp.name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.batch_size = batch_size
        self.spill_threshold = spill_threshold
        self.columns = ColumnStore(self.root / "corpus.db", batch_size=batch_size)
        self._own_vault = vault is None
        self.vault = BlobVault(self.root / "apks.db") if vault is None else vault

    @classmethod
    def from_config(
        cls, config, vault: Optional[BlobVault] = None
    ) -> Optional["CorpusStore"]:
        """The store a config asks for — None for the memory backend.

        ``vault`` is a vault the run already has (the crawl journal's);
        without one the store opens its own under its root.
        """
        if getattr(config, "store_backend", "memory") != "sqlite":
            return None
        root = getattr(config, "store_dir", None)
        if root is None and getattr(config, "checkpoint_dir", None):
            root = Path(config.checkpoint_dir) / "store"
        return cls(
            root,
            spill_threshold=getattr(
                config, "store_spill_threshold", DEFAULT_SPILL_THRESHOLD
            ),
            vault=vault,
        )

    # -- families ----------------------------------------------------------

    def apps_family(self) -> Family:
        return self.columns.family("apps", **APPS_SCHEMA)

    def crawl_family(self, label: str) -> Family:
        """The record family of one crawl campaign."""
        return self.columns.family(f"crawl_{_sanitize(label)}", **CRAWL_SCHEMA)

    def close(self) -> None:
        self.columns.close()
        if self._own_vault:
            self.vault.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


class _AppPickler(pickle.Pickler):
    """Pickles blueprints with developers as persistent references."""

    def persistent_id(self, obj):
        if isinstance(obj, Developer):
            return ("dev", obj.dev_id)
        return None


class _AppUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes, developers):
        super().__init__(io.BytesIO(data))
        self._developers = developers

    def persistent_load(self, pid):
        kind, dev_id = pid
        if kind != "dev":
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._developers[dev_id]


class _PickleCodec:
    """The sqlite apps family's row codec: pickled blueprints.

    Decoded and written-back blueprints sit in a bounded LRU keyed by
    ``app_id``, so a caller that mutated a cached blueprint (and has not
    written it back yet) sees its own mutation, as on the memory family.
    """

    def __init__(self, developers: List[Developer], cache_size: int = DEFAULT_APP_CACHE):
        self._developers = {dev.dev_id: dev for dev in developers}
        self._cache: "OrderedDict[int, object]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        self._lock = threading.Lock()

    def encode(self, app) -> bytes:
        # Drop the frozen OwnCode's CodePackage memo: it is derived
        # state, rebuilt on demand, and would bloat every payload.
        app.own_code.__dict__.pop("_code_package", None)
        buffer = io.BytesIO()
        _AppPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(app)
        self._remember(app.app_id, app)
        return buffer.getvalue()

    def decode(self, row):
        app_id = row[0]
        with self._lock:
            app = self._cache.get(app_id)
        if app is None:
            app = _AppUnpickler(row[-1], self._developers).load()
        self._remember(app_id, app)
        return app

    def _remember(self, app_id: int, app) -> None:
        with self._lock:
            self._cache[app_id] = app
            self._cache.move_to_end(app_id)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)


class AppTable(Sequence):
    """``World.apps``: blueprints by ``app_id`` over one record family."""

    def __init__(self, family, codec=ResidentCodec):
        self._family = family
        self._codec = codec
        self._len = family.count()

    @classmethod
    def of(cls, apps: Sequence) -> "AppTable":
        """The memory table over a generated app list (in app_id order)."""
        family = MemoryFamily("apps", **APPS_SCHEMA)
        for position, app in enumerate(apps):
            if app.app_id != position:
                raise StoreError(
                    f"app list out of order: position {position} holds "
                    f"app_id {app.app_id}"
                )
            family.append(app.app_id, app.package, app)
        return cls(family)

    @property
    def spilled(self) -> bool:
        return not isinstance(self._family, MemoryFamily)

    def spill(self, store: CorpusStore, developers: List[Developer]) -> "AppTable":
        """This table's rows copied into ``store``'s apps family."""
        family = store.apps_family()
        codec = _PickleCodec(developers)
        family.replace((*row[:-1], codec.encode(row[-1])) for row in self._family.scan())
        return AppTable(family, codec)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"app index {index} out of range")
        row = self._family.get(app_id=index)
        if row is None:
            raise StoreError(f"app {index} missing from store")
        return self._codec.decode(row)

    def __iter__(self) -> Iterator:
        return self.iter()

    def iter(self, batch_size: Optional[int] = None) -> Iterator:
        """Stream blueprints in app_id order (one batch resident on disk)."""
        return map(self._codec.decode, self._family.scan(batch_size=batch_size))

    # -- queries and write-back --------------------------------------------

    def find_by_package(self, package: str) -> List:
        return [self._codec.decode(row) for row in self._family.scan(package=package)]

    def write_back(self, app) -> None:
        """Persist a mutated blueprint (placement evolution, etc.)."""
        changed = self._family.update(
            {"payload": self._codec.encode(app)}, {"app_id": app.app_id}
        )
        if changed != 1:
            raise StoreError(f"write_back of app {app.app_id} touched {changed} rows")


class SpilledAppList(AppTable):
    """An app table over a sqlite apps family, e.g. one reopened from disk."""

    def __init__(self, family: Family, developers: List[Developer]):
        super().__init__(family, _PickleCodec(developers))
