"""Out-of-core corpus storage.

``repro.store`` is the record layer that lets worlds, snapshots, and
analysis corpora scale past RAM.  Consumers code against one record
family interface (:mod:`repro.store.columnar`) with two
implementations: a :class:`~repro.store.columnar.MemoryFamily` that
holds rows as Python objects, and a SQLite
:class:`~repro.store.columnar.Family` (one segment table per family in
a :class:`~repro.store.columnar.ColumnStore`).  A content-addressed
:class:`~repro.store.blobs.BlobVault` holds the served APK bytes, and
the :class:`~repro.store.corpus.CorpusStore` facade that a
:class:`~repro.core.config.StudyConfig` resolves to bundles the two
disk layers.

The contract (see DESIGN.md, "Out-of-core corpus"): every public
``content_digest()`` — world, snapshot, report — is **backend
invariant**.  Records start in memory families; the sqlite backend
spills them by copying the rows into sqlite families once they cross
the configured spill threshold, and re-serves them through batched
streaming cursors.  Digest equality between the two backends is the
repo's equality oracle.
"""

from repro.store.blobs import BlobVault, LazyApk
from repro.store.columnar import ColumnStore, Family, StoreError
from repro.store.corpus import CorpusStore, SpilledAppList

__all__ = [
    "BlobVault",
    "ColumnStore",
    "CorpusStore",
    "Family",
    "LazyApk",
    "SpilledAppList",
    "StoreError",
]
