"""The blob vault keeps served APK bytes and verifies every read.

``TestVaultPut`` covers what a put stores (the served bytes, or a
re-encoding that must hash to the APK's MD5); ``TestVaultReads`` feeds
``load`` damaged rows — truncated, bit-flipped, oversized, or holding
another APK — and requires a typed error from the vault and from the
crawl journal that reads through it; ``TestVaultWriteBudget`` holds a
checkpointed spilled run to one vault, one row per downloaded APK.
"""

import dataclasses
import hashlib
import sqlite3
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.blobs as blobs
from repro.apk.archive import MAGIC, ApkParseError, parse_apk, serialize_apk
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.crawler.journal import CrawlJournal, JournalError
from repro.store.blobs import MAX_BLOB_BYTES, BlobVault, VaultError

from conftest import make_apk_bytes

SERVED = [
    make_apk_bytes(package=f"com.vault.fuzz{i}", version_code=i + 1, permissions=("P",) * i)
    for i in range(3)
]


def _md5(blob: bytes) -> str:
    return hashlib.md5(blob).hexdigest()


def _rows(path):
    with sqlite3.connect(path) as conn:
        return conn.execute("SELECT md5, blob FROM apks").fetchall()


def _rewrite(path, md5, content):
    """Replace one row's blob in place, through a second connection."""
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE apks SET blob = ? WHERE md5 = ?", (content, md5))


class TestVaultPut:
    def test_put_stores_the_served_bytes(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        blob = SERVED[1]
        assert vault.put(parse_apk(blob), blob) == _md5(blob)
        assert _rows(vault.path) == [(_md5(blob), blob)]

    def test_put_without_bytes_stores_the_reencoding(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        vault.put(parse_apk(SERVED[2]))
        assert _rows(vault.path) == [(_md5(SERVED[2]), SERVED[2])]

    def test_refuses_a_reencoding_of_another_md5(self, tmp_path):
        vault = BlobVault(tmp_path / "apks.db")
        forged = dataclasses.replace(parse_apk(SERVED[0]), md5="0" * 32)
        with pytest.raises(VaultError, match="0" * 32):
            vault.put(forged)
        assert len(vault) == 0

    def test_stored_md5_is_neither_encoded_nor_written(self, tmp_path, monkeypatch):
        vault = BlobVault(tmp_path / "apks.db")
        apk = parse_apk(SERVED[0])
        vault.put(apk, SERVED[0])

        def no_encoding(_apk):
            raise AssertionError("a stored APK was re-encoded")

        monkeypatch.setattr(blobs, "serialize_apk", no_encoding)
        with sqlite3.connect(vault.path) as conn:
            before = conn.execute("PRAGMA data_version").fetchone()
            assert vault.put(apk) == apk.md5
            assert vault.put(apk, SERVED[0]) == apk.md5
            assert conn.execute("PRAGMA data_version").fetchone() == before


#: Bytes after a served blob's compressed stream, counted by its length
#: header: none, a few, or enough to cross the blob cap.
_TRAILERS = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=8),
    st.integers(MAX_BLOB_BYTES - 4096, MAX_BLOB_BYTES + 4096).map(bytes),
)


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(SERVED) - 1), trailer=_TRAILERS, data=st.data())
def test_every_blob_parse_apk_accepts_loads_back(index, trailer, data):
    # What the crawl accepts is what the vault can read back: a parsed
    # blob is put with its bytes and loaded, through a cold LRU, as an
    # equal ParsedApk.
    payload = SERVED[index][len(MAGIC) + 4 :] + trailer
    blob = MAGIC + struct.pack(">I", len(payload)) + payload
    if data.draw(st.booleans(), label="flip"):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        blob = bytes(flipped)
    try:
        apk = parse_apk(blob)
    except ApkParseError:
        return
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "apks.db"
        vault = BlobVault(path)
        vault.put(apk, blob)
        vault.close()
        vault = BlobVault(path)
        try:
            assert vault.load(apk.md5) == apk
        finally:
            vault.close()


@pytest.fixture(scope="module")
def served_ckpt(tmp_path_factory):
    """A checkpoint directory whose vault holds every ``SERVED`` APK."""
    root = tmp_path_factory.mktemp("ckpt")
    vault = CrawlJournal(root).apks
    for blob in SERVED:
        vault.put(parse_apk(blob), blob)
    vault.close()
    return root


def _reopened(root):
    """The checkpoint's journal with a cold vault LRU."""
    return CrawlJournal(root, resume=True)


class TestVaultReads:
    """Each damaged row ends in a typed error, never in a wrong APK."""

    def _assert_refused(self, root, md5, content, errors):
        path = root / "apks.db"
        original = dict(_rows(path))[md5]
        _rewrite(path, md5, content)
        journal = _reopened(root)
        try:
            with pytest.raises(errors):
                journal.apks.load(md5)
            with pytest.raises(JournalError, match=md5):
                journal.campaign("c").apk(md5)
        finally:
            journal.apks.close()
            _rewrite(path, md5, original)
        journal = _reopened(root)
        assert journal.apks.load(md5).md5 == md5
        journal.apks.close()

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, len(SERVED) - 1), data=st.data())
    def test_truncated_row(self, served_ckpt, index, data):
        blob = SERVED[index]
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        self._assert_refused(served_ckpt, _md5(blob), blob[:cut], (ApkParseError, VaultError))

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, len(SERVED) - 1), data=st.data())
    def test_bit_flipped_row(self, served_ckpt, index, data):
        blob = SERVED[index]
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        self._assert_refused(
            served_ckpt, _md5(blob), bytes(flipped), (ApkParseError, VaultError)
        )

    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(0, len(SERVED) - 1), extra=st.integers(1, 4096))
    def test_oversized_row(self, served_ckpt, index, extra):
        blob = SERVED[index]
        padded = blob + bytes(MAX_BLOB_BYTES - len(blob) + extra)
        self._assert_refused(served_ckpt, _md5(blob), padded, VaultError)

    @settings(max_examples=20, deadline=None)
    @given(pair=st.permutations(range(len(SERVED))))
    def test_key_swapped_row(self, served_ckpt, pair):
        # The row of one APK holds another, well-formed APK's bytes.
        key, other = SERVED[pair[0]], SERVED[pair[1]]
        self._assert_refused(served_ckpt, _md5(key), other, VaultError)


def _vault_databases(root):
    """Every SQLite file under ``root`` that holds an ``apks`` table."""
    found = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        with path.open("rb") as handle:
            if handle.read(16) != b"SQLite format 3\x00":
                continue
        with sqlite3.connect(path) as conn:
            tables = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )}
        if "apks" in tables:
            found.append(path)
    return found


class TestVaultWriteBudget:
    """A checkpointed spilled run stores each downloaded APK once, as
    its served bytes, in the journal's vault (which the corpus shares)."""

    CFG = dict(seed=42, scale=0.0001, store_backend="sqlite", store_spill_threshold=0)

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("ckpt")
        result = Study(StudyConfig(**self.CFG, checkpoint_dir=str(ckpt))).run()
        result.corpus.vault.close()  # fold the WAL into the database file
        return ckpt, result

    def test_one_vault_database(self, run):
        ckpt, result = run
        assert _vault_databases(ckpt) == [ckpt / "apks.db"]
        assert result.corpus.vault.path == ckpt / "apks.db"

    def test_one_row_per_downloaded_md5(self, run):
        ckpt, result = run
        downloaded = {r.apk.md5 for r in result.snapshot if r.apk is not None}
        keys = [md5 for md5, _ in _rows(ckpt / "apks.db")]
        assert len(downloaded) > 1000
        assert sorted(keys) == sorted(downloaded)

    def test_every_blob_hashes_to_its_key(self, run):
        ckpt, _ = run
        for md5, blob in _rows(ckpt / "apks.db"):
            assert _md5(blob) == md5
            # The spill path's re-encoding gives back the served bytes.
            assert serialize_apk(parse_apk(blob)) == blob

    def test_no_json_apk_files(self, run):
        ckpt, _ = run
        assert [p.name for p in ckpt.rglob("*.json")] == ["journal.json"]
