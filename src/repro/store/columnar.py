"""Record families: one interface, an in-memory and a SQLite implementation.

A **record family** (apps, per-campaign crawl records) is a table of
rows: the declared key columns — the fields queries filter or order on
— followed by one opaque payload.  Consumers code against the family
interface (``append``, ``update``, ``get``, ``count``,
``scan(batch_size, order_by, **where)``, ``flush``) and never against a
backend:

* :class:`MemoryFamily` keeps rows as Python tuples in insertion order,
  with a dict index per declared ``unique``/``indexes`` column set.
  Payloads are the caller's objects, stored as they are.
* :class:`Family` is one segment table in a :class:`ColumnStore` (one
  SQLite database per run).  Payloads are whatever bytes or text the
  caller's row codec encodes; the table stays narrow and scans stay
  sequential (hot columns are real columns, cold state is one blob).

Design points of the SQLite family:

* **Insertion order is the contract.**  Every family row carries the
  implicit SQLite ``rowid``; :meth:`Family.scan` pages through it in
  batches, so a cursor yields records in exactly the order ``append``
  saw them — the same order a :class:`MemoryFamily` scans.  This is
  what keeps content digests backend-invariant.
* **Batched, buffered writes.**  Appends accumulate in a small buffer
  and land with one ``executemany`` per batch; any read flushes first.
* **Pagination, not long-lived cursors.**  ``scan`` re-queries with
  ``rowid > last`` per batch, so interleaved updates (the crawl
  attaching APKs, catalog evolution writing back placements) never run
  on top of a half-consumed cursor.
* **Thread-safe.**  One connection, one lock: crawl lanes append from
  worker threads while the coordinator reads.
* **mmap-friendly.**  The database is opened with a generous
  ``mmap_size`` so reads are served straight from the page cache.
"""

from __future__ import annotations

import functools
import os
import sqlite3
import threading
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ColumnStore",
    "Family",
    "MemoryFamily",
    "ResidentCodec",
    "StoreError",
    "DEFAULT_BATCH_SIZE",
    "WAL_LIMIT_BYTES",
]

DEFAULT_BATCH_SIZE = 512

#: How much of the database file SQLite may serve via mmap (bytes).
_MMAP_BYTES = 256 * 1024 * 1024

#: Size SQLite truncates a store database's ``-wal`` file back to
#: (bytes), here and in the blob vault.  Without a limit the WAL keeps
#: its high-water mark until the last connection closes: after a
#: spilled report run (seed 42, scale 0.0001) the corpus WAL stood at
#: 4.1 MB beside a 2.1 MB database.  Between checkpoints it still grows
#: to one checkpoint interval (SQLite's 1,000 pages: 4 MiB of the
#: corpus's 4 KiB pages, 1 MiB of the vault's 1 KiB ones) plus the
#: commit that crosses it; the limit cuts it back each time the WAL
#: restarts.  A 128-page interval kept the corpus WAL under 1.2 MB but
#: made the spilled crawl about 4% slower, so the interval stays
#: SQLite's.
WAL_LIMIT_BYTES = 2 * 1024 * 1024


class StoreError(Exception):
    """Raised for invalid store usage or a corrupt segment database."""


@functools.lru_cache(maxsize=None)
def _check_identifier(name: str) -> str:
    # Cached: every query checks its column names, and a spilled report
    # run makes tens of thousands of queries over a few dozen names.
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise StoreError(f"invalid identifier {name!r}")
    return name


def _equals(columns) -> List[str]:
    return [f"{_check_identifier(c)} = ?" for c in columns]


def _where_sql(clauses: Sequence[str]) -> str:
    return " WHERE " + " AND ".join(clauses) if clauses else ""


def _check_width(name: str, columns: Sequence[str], values: Tuple) -> None:
    if len(values) != len(columns):
        raise StoreError(f"{name}: expected {len(columns)} values, got {len(values)}")


class Family:
    """One record family on disk: a segment table plus its write buffer."""

    def __init__(
        self,
        store: "ColumnStore",
        name: str,
        key_columns: Sequence[Tuple[str, str]],
        unique: Optional[Sequence[str]] = None,
        indexes: Sequence[Sequence[str]] = (),
    ):
        self._store = store
        self.name = _check_identifier(name)
        self.table = f"fam_{name}"
        self._columns = [(_check_identifier(c), t) for c, t in key_columns]
        self._column_names = [c for c, _ in self._columns] + ["payload"]
        self._pending: List[Tuple] = []
        self._unique = unique
        self._indexes = indexes
        with store._lock:
            self._create_locked()
        placeholders = ", ".join("?" for _ in self._column_names)
        self._insert_sql = (
            f"INSERT INTO {self.table} ({', '.join(self._column_names)}) "
            f"VALUES ({placeholders})"
        )

    def _create_locked(self) -> None:
        """Create the table and its indexes unless they exist."""
        conn = self._store._conn
        cols = ", ".join(f"{c} {t}" for c, t in self._columns)
        conn.execute(f"CREATE TABLE IF NOT EXISTS {self.table} ({cols}, payload BLOB)")
        if self._unique:
            conn.execute(
                f"CREATE UNIQUE INDEX IF NOT EXISTS idx_{self.name}_key "
                f"ON {self.table} ({', '.join(self._unique)})"
            )
        for i, index in enumerate(self._indexes):
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_{self.name}_{i} "
                f"ON {self.table} ({', '.join(index)})"
            )
        conn.commit()

    # -- writes ------------------------------------------------------------

    def append(self, *values: object) -> None:
        """Buffer one row (key column values in order, then payload)."""
        _check_width(self.name, self._column_names, values)
        with self._store._lock:
            self._pending.append(values)
            if len(self._pending) >= self._store.batch_size:
                self._flush_locked()

    def update(self, assignments: Dict[str, object], where: Dict[str, object]) -> int:
        """Update matching rows; returns the number of rows changed."""
        self.flush()
        sets = ", ".join(_equals(assignments))
        with self._store._lock:
            cur = self._store._conn.execute(
                f"UPDATE {self.table} SET {sets}{_where_sql(_equals(where))}",
                tuple(assignments.values()) + tuple(where.values()),
            )
            self._store._conn.commit()
            return cur.rowcount

    def replace(self, rows: Iterable[Tuple]) -> None:
        """Make ``rows`` the family's whole content.

        This is how a spill lands: whatever an earlier run left in the
        table (a resumed checkpoint's store) is dropped first, because
        every run regenerates the records it spills.  A table whose
        columns differ from the family's is dropped and created anew.
        """
        with self._store._lock:
            self._pending.clear()
            conn = self._store._conn
            layout = [row[1] for row in conn.execute(f"PRAGMA table_info({self.table})")]
            if layout == self._column_names:
                conn.execute(f"DELETE FROM {self.table}")
            else:
                # Left by a checkout with another column layout: the
                # INSERT would not fit it.
                conn.execute(f"DROP TABLE {self.table}")
                self._create_locked()
        for row in rows:
            self.append(*row)
        self.flush()

    def flush(self) -> None:
        with self._store._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._pending:
            self._store._conn.executemany(self._insert_sql, self._pending)
            self._pending.clear()
            self._store._conn.commit()

    # -- reads -------------------------------------------------------------

    def get(self, **where: object) -> Optional[Tuple]:
        """The first matching row (key columns + payload), or None."""
        self.flush()
        sql = (
            f"SELECT {', '.join(self._column_names)} FROM {self.table}"
            f"{_where_sql(_equals(where))} LIMIT 1"
        )
        with self._store._lock:
            cur = self._store._conn.execute(sql, tuple(where.values()))
            return cur.fetchone()

    def count(self, **where: object) -> int:
        self.flush()
        sql = f"SELECT COUNT(*) FROM {self.table}{_where_sql(_equals(where))}"
        with self._store._lock:
            cur = self._store._conn.execute(sql, tuple(where.values()))
            return int(cur.fetchone()[0])

    def scan(
        self,
        batch_size: Optional[int] = None,
        order_by: Optional[Sequence[str]] = None,
        **where: object,
    ) -> Iterator[Tuple]:
        """Stream rows in batches.

        Rows come back in ``order_by`` order (default: insertion order),
        with ``rowid`` as the final tie-break so pagination is total.
        The cursor holds at most one batch in memory and re-queries
        between batches, so writers may interleave safely.
        """
        self.flush()
        batch = batch_size or self._store.batch_size
        order_cols = [_check_identifier(c) for c in (order_by or ())]
        select_cols = self._column_names + order_cols + ["rowid"]
        cond = _equals(where)
        base_args = tuple(where.values())
        n_keys = len(self._column_names)
        # Pagination key: (order_by columns..., rowid) strictly greater
        # than the last row seen.
        last: Optional[Tuple] = None
        while True:
            clauses = list(cond)
            args: Tuple = base_args
            if last is not None:
                cols = "(" + ", ".join(order_cols + ["rowid"]) + ")"
                marks = "(" + ", ".join("?" for _ in range(len(order_cols) + 1)) + ")"
                clauses.append(f"{cols} > {marks}")
                args = base_args + last
            sql = f"SELECT {', '.join(select_cols)} FROM {self.table}"
            sql += _where_sql(clauses) + " ORDER BY " + ", ".join(order_cols + ["rowid"])
            sql += " LIMIT ?"
            with self._store._lock:
                rows = self._store._conn.execute(sql, args + (batch,)).fetchall()
            for row in rows:
                yield row[:n_keys]
            if len(rows) < batch:
                return
            last = tuple(rows[-1][n_keys:])


class ResidentCodec:
    """The row codec of a :class:`MemoryFamily`: a payload is the object
    itself, so nothing is encoded, copied or decoded."""

    encode = staticmethod(lambda obj: obj)
    decode = staticmethod(itemgetter(-1))


class MemoryFamily:
    """One record family held in memory, with :class:`Family`'s methods.

    Rows are tuples in insertion order; a row's position is its rowid.
    Each declared column set gets a dict index from key to rowids, the
    ``unique`` one first (it rejects a duplicate at ``append``), so
    ``get``, ``count`` and ``scan`` are lookups whenever ``where`` covers
    an index.  Indexed columns are immutable: ``update`` rewrites the
    others.  There is no write buffer, so ``flush`` is a no-op.  Writes
    take a lock; reads take none, because a read only looks up lists and
    tuples that a write extends or swaps whole.
    """

    def __init__(
        self,
        name: str,
        key_columns: Sequence[Tuple[str, str]],
        unique: Optional[Sequence[str]] = None,
        indexes: Sequence[Sequence[str]] = (),
    ):
        self.name = _check_identifier(name)
        self._column_names = [_check_identifier(c) for c, _ in key_columns] + ["payload"]
        self._position = {c: i for i, c in enumerate(self._column_names)}
        self._unique = bool(unique)
        # (columns, key of a row, key of a where mapping, key -> rowids)
        self._indexes = [
            (
                frozenset(cols),
                itemgetter(*(self._position[c] for c in cols)),
                itemgetter(*cols),
                {},
            )
            for cols in ([unique] if unique else []) + list(indexes)
        ]
        self._rows: List[Tuple] = []
        self._lock = threading.Lock()

    def append(self, *values: object) -> None:
        _check_width(self.name, self._column_names, values)
        keys = [row_key(values) for _, row_key, _, _ in self._indexes]
        with self._lock:
            if self._unique and keys[0] in self._indexes[0][3]:
                raise StoreError(f"{self.name}: duplicate key {keys[0]!r}")
            rowid = len(self._rows)
            self._rows.append(values)
            for (_, _, _, index), key in zip(self._indexes, keys):
                index.setdefault(key, []).append(rowid)

    def update(self, assignments: Dict[str, object], where: Dict[str, object]) -> int:
        if any(cols.intersection(assignments) for cols, _, _, _ in self._indexes):
            raise StoreError(f"{self.name}: indexed columns are immutable")
        changes = {self._position[c]: v for c, v in assignments.items()}
        with self._lock:
            matched = self._match(where)
            for rowid in matched:
                row = self._rows[rowid]
                self._rows[rowid] = tuple(changes.get(i, x) for i, x in enumerate(row))
            return len(matched)

    def flush(self) -> None:
        pass

    def get(self, **where: object) -> Optional[Tuple]:
        matched = self._match(where)
        return self._rows[matched[0]] if matched else None

    def count(self, **where: object) -> int:
        return len(self._match(where))

    def scan(
        self,
        batch_size: Optional[int] = None,
        order_by: Optional[Sequence[str]] = None,
        **where: object,
    ) -> Iterator[Tuple]:
        """Matching rows in ``order_by`` order, insertion order breaking
        ties.  ``batch_size`` is accepted for parity: rows are resident."""
        rows = [self._rows[rowid] for rowid in self._match(where)]
        if order_by:
            rows.sort(key=itemgetter(*(self._position[c] for c in order_by)))
        return iter(rows)

    def _match(self, where: Dict[str, object]) -> Sequence[int]:
        """Rowids of the rows matching ``where``, ascending."""
        matched: Sequence[int] = range(len(self._rows))
        rest = where
        for cols, _, where_key, index in self._indexes:
            if cols.issubset(where):
                matched = index.get(where_key(where), ())
                rest = {c: v for c, v in where.items() if c not in cols}
                break
        if rest:
            checks = [(self._position[c], v) for c, v in rest.items()]
            rows = self._rows
            matched = [
                i for i in matched if all(rows[i][p] == v for p, v in checks)
            ]
        return matched


class ColumnStore:
    """One SQLite database of record-family segment tables."""

    def __init__(self, path: os.PathLike, batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise StoreError(f"batch_size must be positive, got {batch_size}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.batch_size = batch_size
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA journal_size_limit={WAL_LIMIT_BYTES}")
        self._conn.execute(f"PRAGMA mmap_size={_MMAP_BYTES}")
        self._families: Dict[str, Family] = {}

    def family(
        self,
        name: str,
        key_columns: Sequence[Tuple[str, str]],
        unique: Optional[Sequence[str]] = None,
        indexes: Sequence[Sequence[str]] = (),
    ) -> Family:
        """Open (creating if needed) one record family."""
        fam = self._families.get(name)
        if fam is None:
            fam = Family(self, name, key_columns, unique=unique, indexes=indexes)
            self._families[name] = fam
        return fam

    def family_names(self) -> List[str]:
        """Every family present in the database (including other runs')."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name LIKE 'fam_%'"
            ).fetchall()
        return sorted(name[len("fam_"):] for (name,) in rows)

    def flush(self) -> None:
        with self._lock:
            for fam in self._families.values():
                fam._flush_locked()

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
