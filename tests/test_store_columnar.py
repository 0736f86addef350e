"""Tests for the record families and the APK blob vault.

``TestFamily`` runs against both families through the parametrized
``family`` fixture; the cases that exercise SQLite specifics (keyset
pagination under interleaved writes, the flush-time unique violation,
reopening a database) stay sqlite-only.
"""

import sqlite3
import sys
import threading

import pytest

from repro import Study, StudyConfig
from repro.experiments import run_all
from repro.store.blobs import BlobVault, LazyApk
from repro.store.columnar import WAL_LIMIT_BYTES, ColumnStore, MemoryFamily, StoreError

from conftest import make_parsed

RECORDS = dict(
    key_columns=[("market", "TEXT"), ("package", "TEXT")],
    unique=["market", "package"],
    indexes=[["package"]],
)


@pytest.fixture()
def store(tmp_path):
    with ColumnStore(tmp_path / "corpus.db", batch_size=4) as cs:
        yield cs


@pytest.fixture(params=["sqlite", "memory"])
def open_family(request, store):
    """Opens a family, ``(name, key_columns, unique, indexes)``, on
    either backend."""
    return store.family if request.param == "sqlite" else MemoryFamily


@pytest.fixture()
def family(open_family):
    return open_family("records", **RECORDS)


def _records_family(store):
    return store.family("records", **RECORDS)


class TestFamily:
    def test_append_scan_roundtrip(self, family):
        rows = [("m1", f"pkg.{i:03d}", f"payload-{i}".encode()) for i in range(10)]
        for row in rows:
            family.append(*row)
        got = list(family.scan(batch_size=3))
        assert got == rows

    def test_scan_honors_where(self, family):
        family.append("m1", "a", b"1")
        family.append("m2", "a", b"2")
        family.append("m1", "b", b"3")
        assert list(family.scan(market="m1")) == [("m1", "a", b"1"), ("m1", "b", b"3")]

    def test_ordered_scan_sorts_by_columns(self, family):
        family.append("m2", "b", b"1")
        family.append("m1", "c", b"2")
        family.append("m1", "a", b"3")
        ordered = [r[:2] for r in family.scan(order_by=["market", "package"])]
        assert ordered == [("m1", "a"), ("m1", "c"), ("m2", "b")]

    def test_keyset_pagination_survives_interleaved_writes(self, store):
        fam = _records_family(store)
        for i in range(6):
            fam.append("m1", f"p{i}", b"x")
        fam.flush()
        seen = []
        cursor = fam.scan(batch_size=2, order_by=["package"])
        seen.append(next(cursor))
        # A write landing mid-scan must not disturb the cursor's window;
        # sorting after the scan position, it shows up at the tail.
        fam.append("m1", "p9", b"y")
        fam.flush()
        seen.extend(cursor)
        assert [r[1] for r in seen] == ["p0", "p1", "p2", "p3", "p4", "p5", "p9"]

    def test_get_and_count(self, family):
        family.append("m1", "a", b"1")
        family.append("m2", "a", b"2")
        assert family.get(market="m2", package="a") == ("m2", "a", b"2")
        assert family.get(market="m3", package="a") is None
        assert family.count() == 2
        assert family.count(package="a") == 2
        assert family.count(market="m1") == 1

    def test_update_rewrites_columns(self, family):
        family.append("m1", "a", b"old")
        changed = family.update({"payload": b"new"}, {"market": "m1", "package": "a"})
        assert changed == 1
        assert family.get(market="m1", package="a") == ("m1", "a", b"new")

    def test_unique_constraint_enforced(self, tmp_path):
        cs = ColumnStore(tmp_path / "dup.db", batch_size=4)
        fam = _records_family(cs)
        fam.append("m1", "a", b"1")
        fam.append("m1", "a", b"2")
        with pytest.raises(Exception):
            fam.flush()
        # The failed batch stays pending (fail-loudly, even at close);
        # drop it so the store can shut down cleanly.
        fam._pending.clear()
        cs.close()

    def test_bad_identifier_rejected(self, open_family):
        with pytest.raises(StoreError):
            open_family("bad-name", [("x", "TEXT")])


class TestMemoryFamily:
    def test_duplicate_rejected_at_append(self):
        fam = MemoryFamily("records", **RECORDS)
        fam.append("m1", "a", b"1")
        with pytest.raises(StoreError):
            fam.append("m1", "a", b"2")
        assert fam.count() == 1

    def test_indexed_columns_are_immutable(self):
        fam = MemoryFamily("records", **RECORDS)
        fam.append("m1", "a", b"1")
        with pytest.raises(StoreError):
            fam.update({"package": "b"}, {"market": "m1", "package": "a"})

    def test_payload_is_the_object_itself(self):
        fam = MemoryFamily("records", **RECORDS)
        payload = object()
        fam.append("m1", "a", payload)
        assert fam.get(market="m1", package="a")[-1] is payload

    def test_index_lookup_keeps_insertion_order(self):
        fam = MemoryFamily("records", **RECORDS)
        for market in ("m3", "m1", "m2"):
            fam.append(market, "a", market.encode())
        fam.append("m1", "b", b"other")
        assert [r[0] for r in fam.scan(package="a")] == ["m3", "m1", "m2"]
        assert fam.count(package="a") == 3
        assert fam.get(market="m2", package="b") is None

    def test_concurrent_writers_lose_nothing(self):
        # Crawl lanes attach APKs from worker threads; a lost append or a
        # rowid handed out twice would leave an index pointing at the
        # wrong row.
        fam = MemoryFamily("records", **RECORDS)

        def writer(market):
            for i in range(200):
                fam.append(market, f"p{i}", b"old")
                fam.update({"payload": b"new"}, {"market": market, "package": f"p{i}"})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(f"m{k}",)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert fam.count() == 1600
        assert all(row[-1] == b"new" for row in fam.scan())
        for i in range(200):
            rows = list(fam.scan(package=f"p{i}"))
            assert sorted(row[0] for row in rows) == [f"m{k}" for k in range(8)]
            assert {row[1] for row in rows} == {f"p{i}"}


class TestReopen:
    def test_rows_survive_close_and_reopen(self, tmp_path):
        path = tmp_path / "corpus.db"
        with ColumnStore(path, batch_size=4) as cs:
            fam = _records_family(cs)
            fam.append("m1", "a", b"persisted")
        with ColumnStore(path, batch_size=4) as cs:
            fam = _records_family(cs)
            assert fam.count() == 1
            assert fam.get(market="m1", package="a") == ("m1", "a", b"persisted")
            assert "records" in cs.family_names()

    def test_replace_recreates_a_table_of_another_layout(self, tmp_path):
        # A database left by a checkout whose family had fewer columns:
        # the spill's replace must land in the family's own layout.
        path = tmp_path / "corpus.db"
        with ColumnStore(path, batch_size=4) as cs:
            _records_family(cs).append("m1", "a", b"old layout")
        wider = dict(RECORDS, key_columns=RECORDS["key_columns"] + [("extra", "INTEGER")])
        with ColumnStore(path, batch_size=4) as cs:
            fam = cs.family("records", **wider)
            fam.replace([("m1", "a", 7, b"new"), ("m2", "a", None, b"rows")])
            assert list(fam.scan()) == [("m1", "a", 7, b"new"), ("m2", "a", None, b"rows")]
            assert fam.get(market="m2", package="a") == ("m2", "a", None, b"rows")
            fam.append("m1", "a", 8, b"duplicate")
            with pytest.raises(sqlite3.IntegrityError):  # the unique index is back
                fam.flush()
            fam._pending.clear()


class TestBlobVault:
    def test_put_load_roundtrip(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        apk = make_parsed(package="com.vault.app")
        vault.put(apk)
        assert apk.md5 in vault
        loaded = vault.load(apk.md5)
        assert loaded.md5 == apk.md5
        assert loaded.manifest.package == "com.vault.app"

    def test_put_is_idempotent(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        apk = make_parsed()
        assert vault.put(apk) == vault.put(apk) == apk.md5

    def test_lazy_proxy_defers_and_delegates(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        apk = make_parsed(package="com.lazy.app", version_code=9)
        lazy = vault.lazy(apk)
        assert isinstance(lazy, LazyApk)
        # Identity columns are resident; content loads on demand.
        assert lazy.md5 == apk.md5
        assert lazy.signer_fingerprint == apk.signer_fingerprint
        assert lazy.version_code == 9
        assert lazy.manifest.package == "com.lazy.app"

    @pytest.mark.parametrize("key", ["ab/cd", "abcd", "AB" * 16, "g" * 32, "0" * 33])
    def test_rejects_keys_that_are_not_md5_hex(self, tmp_path, key):
        vault = BlobVault(tmp_path / "apks.db")
        with pytest.raises(ValueError):
            vault.load(key)
        with pytest.raises(ValueError):
            key in vault

    def test_counts_loads_and_decodes(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db", cache_size=1)
        first, second = make_parsed(package="com.a"), make_parsed(package="com.b")
        vault.put(first)
        vault.put(second)
        for md5 in (first.md5, first.md5, second.md5, first.md5):
            vault.load(md5)
        assert (vault.loads, vault.decodes) == (4, 3)

    def test_cache_is_bounded(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db", cache_size=2)
        md5s = []
        for i in range(4):
            apk = make_parsed(package=f"com.bound.app{i}", version_code=i + 1)
            vault.put(apk)
            md5s.append(apk.md5)
        for md5 in md5s:
            assert vault.load(md5).md5 == md5
        assert len(vault._cache) <= 2


class TestWalBound:
    """A spilled report run leaves every ``-wal`` file within the limit.

    The run is the benchmark's ``report_spilled`` (seed 42, scale
    0.0001).  Without ``journal_size_limit`` the corpus WAL stayed at its
    4,140,632-byte high-water mark beside a 2,076,672-byte database.
    """

    def test_wal_within_limit_after_the_run(self, tmp_path):
        result = Study(StudyConfig(
            seed=42, scale=0.0001, store_backend="sqlite",
            store_spill_threshold=0, store_dir=str(tmp_path),
        )).run()
        try:
            result.materialize()
            run_all(result)
            sizes = {wal.name: wal.stat().st_size for wal in tmp_path.rglob("*-wal")}
        finally:
            result.corpus.close()
        assert set(sizes) == {"corpus.db-wal", "apks.db-wal"}
        assert max(sizes.values()) <= WAL_LIMIT_BYTES, sizes
