"""Checkpoint journal: WAL mechanics and full-fidelity replay."""

import gc
import json
import sqlite3
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.archive import parse_apk
from repro.crawler.backfill import ArchiveBackfill
from repro.crawler.crawler import CrawlCoordinator
from repro.crawler.journal import (
    CrawlJournal,
    JournalError,
    LaneJournal,
)
from repro.crawler.snapshot import CrawlRecord
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.server import MarketServer
from repro.markets.store import build_stores
from repro.store.blobs import BlobVault
from repro.store.corpus import CorpusStore
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock

from conftest import make_parsed


@pytest.fixture(scope="module")
def world():
    return EcosystemGenerator(seed=93, scale=0.0002).generate()


def crawl_once(world, root, resume=False, workers=1, faults=None,
               download_apks=True, label="campaign", corpus=None):
    """One full campaign against freshly built servers."""
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(s, clock, faults=faults) for m, s in stores.items()}
    seeds = [
        listing.package
        for listing in stores["google_play"].iter_live(clock.now)
        if stable_hash32("privacygrade", listing.package) % 100 < 74
    ]
    journal = CrawlJournal(root, resume=resume) if root is not None else None
    coordinator = CrawlCoordinator(
        servers,
        clock,
        gp_seeds=seeds,
        backfill=ArchiveBackfill(world) if download_apks else None,
        download_apks=download_apks,
        workers=workers,
        journal=journal,
        corpus=corpus,
    )
    snapshot = coordinator.crawl(label, duration_days=15.0)
    if journal is not None:
        journal.close()
    return snapshot, coordinator


def assert_records_identical(a, b):
    """Field-by-field equality over every CrawlRecord (incl. APKs)."""
    assert len(a) == len(b)
    assert a.content_digest() == b.content_digest()
    for ra in a.sorted_records():
        rb = b.get(ra.market_id, ra.package)
        assert rb is not None, (ra.market_id, ra.package)
        assert ra.app_name == rb.app_name
        assert ra.version_name == rb.version_name
        assert ra.version_code == rb.version_code
        assert ra.category == rb.category
        assert ra.downloads == rb.downloads
        assert ra.install_range == rb.install_range
        assert ra.rating == rb.rating
        assert ra.updated_day == rb.updated_day
        assert ra.developer_name == rb.developer_name
        assert ra.crawl_day == rb.crawl_day
        assert ra.apk_source == rb.apk_source
        if ra.apk is None:
            assert rb.apk is None
        else:
            assert rb.apk is not None
            assert ra.apk.md5 == rb.apk.md5
            assert ra.apk.manifest == rb.apk.manifest
            assert ra.apk.signer_fingerprint == rb.apk.signer_fingerprint


def _overwrite_row(vault, md5, content):
    """Replace one vault row's blob in place, through a second connection."""
    with sqlite3.connect(vault.path) as conn:
        conn.execute("UPDATE apks SET blob = ? WHERE md5 = ?", (content, md5))


class TestApkStore:
    """The journal's APK vault (``<ckpt>/apks.db``)."""

    def test_put_get_roundtrip(self, tmp_path):
        apk = make_parsed(package="com.store.roundtrip")
        md5 = CrawlJournal(tmp_path).apks.put(apk)
        fresh = CrawlJournal(tmp_path, resume=True)  # cold cache: reads the row
        loaded = fresh.campaign("c").apk(md5)
        assert loaded.md5 == apk.md5
        assert loaded.manifest == apk.manifest
        assert loaded.package_digests() == apk.package_digests()

    def test_put_is_idempotent(self, tmp_path):
        vault = CrawlJournal(tmp_path).apks
        apk = make_parsed()
        assert vault.put(apk) == vault.put(apk)
        assert len(vault) == 1
        assert [p.name for p in tmp_path.rglob("*.json")] == ["journal.json"]

    def test_missing_entry_raises(self, tmp_path):
        campaign = CrawlJournal(tmp_path).campaign("c")
        with pytest.raises(JournalError, match="0" * 32):
            campaign.apk("0" * 32)

    @pytest.mark.parametrize("content", [b"", b"{not json", b"[]", b"[" * 200_000],
                             ids=["empty", "not-json", "array", "deep"])
    def test_unreadable_entry_raises(self, tmp_path, content):
        journal = CrawlJournal(tmp_path)
        md5 = journal.apks.put(make_parsed())
        _overwrite_row(journal.apks, md5, content)
        with pytest.raises(JournalError, match=md5):
            journal.campaign("c").apk(md5)

    def test_spilled_campaign_keeps_no_parsed_apk_alive(self, world, tmp_path, monkeypatch):
        # Every APK a spilled campaign parses goes to disk (corpus vault,
        # journal vault) and into the corpus vault's LRU; once attached,
        # nothing but that bounded LRU may pin it.
        import repro.crawler.crawler as crawler_module

        parsed = []

        def tracking_parse(blob):
            apk = parse_apk(blob)
            parsed.append(weakref.ref(apk))
            return apk

        monkeypatch.setattr(crawler_module, "parse_apk", tracking_parse)
        vault = BlobVault(tmp_path / "store" / "apks.db", cache_size=32)
        corpus = CorpusStore(tmp_path / "store", spill_threshold=0, vault=vault)
        snapshot, coordinator = crawl_once(world, tmp_path / "ckpt", corpus=corpus)
        gc.collect()
        assert sum(r.apk is not None for r in snapshot) == len(parsed) > 100
        alive = {id(ref()) for ref in parsed if ref() is not None}
        assert alive == {id(apk) for apk in vault._cache.values()}
        assert len(alive) <= 32
        assert coordinator._journal.apks.loads == 0
        corpus.close()
        vault.close()

    def test_package_table_follows_the_vault_lru(self, world, tmp_path, monkeypatch):
        # parse_apk shares decoded packages through a weak table, so on
        # the spilled path it keeps alive no more than the vault's LRU.
        import repro.apk.archive as archive

        table = type(archive._PACKAGES)()  # empty, of the program's kind
        monkeypatch.setattr(archive, "_PACKAGES", table)
        vault = BlobVault(tmp_path / "store" / "apks.db", cache_size=32)
        corpus = CorpusStore(tmp_path / "store", spill_threshold=0, vault=vault)
        snapshot, _ = crawl_once(world, tmp_path / "ckpt", corpus=corpus)

        def lru_packages():
            return {id(pkg) for apk in vault._cache.values() for pkg in apk.packages}

        gc.collect()
        assert {id(pkg) for pkg in table.values()} <= lru_packages()
        # Resolve every APK, several times the LRU's size.
        resolved = sum(record.apk.resolve() is not None for record in snapshot if record.apk)
        assert resolved > 3 * 32
        gc.collect()
        live = {id(pkg) for pkg in table.values()}
        assert live and live <= lru_packages()
        corpus.close()
        vault.close()


class TestLaneJournal:
    def _lane(self, tmp_path, name="tencent"):
        return LaneJournal(tmp_path / f"{name}.jsonl", name)

    def test_record_then_replay_in_order(self, tmp_path):
        lane = self._lane(tmp_path)
        lane.record_begin({"server": 1})
        lane.record("discovery", "tencent", {"metas": []}, {"server": 2})
        lane.record("apk", "com.a", {"outcome": "market"}, {"server": 3})
        lane.close()
        reopened = self._lane(tmp_path)
        assert reopened.begin_state() == {"server": 1}
        assert reopened.last_state() == {"server": 3}
        assert reopened.replay("discovery", "tencent") == {"metas": []}
        assert reopened.replay("apk", "com.a") == {"outcome": "market"}
        assert reopened.replay("apk", "com.b") is None  # exhausted: go live

    def test_replay_divergence_raises(self, tmp_path):
        lane = self._lane(tmp_path)
        lane.record_begin({})
        lane.record("discovery", "tencent", {}, {})
        lane.close()
        reopened = self._lane(tmp_path)
        with pytest.raises(JournalError):
            reopened.replay("apk", "com.other")

    def test_append_with_pending_replay_raises(self, tmp_path):
        lane = self._lane(tmp_path)
        lane.record_begin({})
        lane.record("discovery", "tencent", {}, {})
        lane.close()
        reopened = self._lane(tmp_path)
        with pytest.raises(JournalError):
            reopened.record("apk", "com.a", {}, {})

    def test_torn_final_line_is_discarded(self, tmp_path):
        lane = self._lane(tmp_path)
        lane.record_begin({"s": 0})
        lane.record("apk", "com.a", {"outcome": "market"}, {"s": 1})
        lane.close()
        path = tmp_path / "tencent.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "apk", "key": "com.b", "resu')  # died mid-write
        reopened = self._lane(tmp_path)
        assert reopened.entries == 2
        assert reopened.last_state() == {"s": 1}
        assert reopened.replay("apk", "com.a") == {"outcome": "market"}
        assert reopened.replay("apk", "com.b") is None

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "tencent.jsonl"
        path.write_text('not json\n{"kind": "apk", "key": "a", "result": {}, "state": {}}\n')
        with pytest.raises(JournalError):
            LaneJournal(path, "tencent")

    @pytest.mark.parametrize("final", [False, True])
    def test_deeply_nested_line_is_corrupt(self, tmp_path, final):
        # Too deep for the decoder's stack: damage, not a torn write,
        # even as the final line.
        good = '{"kind": "begin", "key": "tencent", "state": {}}'
        nested = "[" * 100_000 + "]" * 100_000
        lines = [good, nested] if final else [nested, good]
        path = tmp_path / "tencent.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError) as err:
            LaneJournal(path, "tencent")
        assert str(err.value) == f"{path}:{2 if final else 1}: corrupt entry"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)

#: Lines of a lane file: well-formed entries, near misses that drop or
#: retype one field, and arbitrary JSON values.
_ENTRY = st.one_of(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["begin", "apk", "search"]),
        "key": st.sampled_from(["tencent", "com.a"]),
        "result": st.fixed_dictionaries({"n": st.integers(0, 3)}),
        "state": st.fixed_dictionaries({"s": st.integers(0, 3)}),
    }),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["begin", "apk"]) | _JSON,
        "key": st.just("com.a") | _JSON,
    }, optional={"result": _JSON, "state": _JSON}),
    _JSON,
)


class TestWrongShapeEntries:
    """Well-formed JSON of the wrong shape is a JournalError at load,
    naming the line and the field."""

    def _write(self, tmp_path, *lines):
        path = tmp_path / "tencent.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("line, problem", [
        ("[1,2]", "entry is a JSON array, not an object"),
        ('"str"', "entry is a JSON string, not an object"),
        ('{"kind":"begin"}', "entry has no 'key' field"),
        ('{"kind":"begin","key":"tencent"}', "entry has no 'state' field"),
        ('{"kind":"apk","key":"com.a","state":{}}', "entry has no 'result' field"),
        ('{"kind":"apk","key":"com.a","result":[],"state":{}}',
         "field 'result' is a JSON array, not an object"),
        ('{"kind":7,"key":"com.a","result":{},"state":{}}',
         "field 'kind' is a JSON number, not a string"),
    ])
    def test_named_at_path_and_line(self, tmp_path, line, problem):
        good = '{"kind":"apk","key":"com.b","result":{},"state":{}}'
        path = self._write(tmp_path, line, good)
        with pytest.raises(JournalError) as err:
            LaneJournal(path, "tencent")
        assert str(err.value) == f"{path}:1: {problem}"

    def test_begin_only_first(self, tmp_path):
        begin = '{"kind":"begin","key":"tencent","state":{}}'
        path = self._write(tmp_path, begin, begin)
        with pytest.raises(JournalError, match=":2: 'begin' entry after the first"):
            LaneJournal(path, "tencent")

    def test_wrong_shape_final_line_is_not_torn(self, tmp_path):
        path = self._write(tmp_path, '{"kind":"begin","key":"tencent","state":{}}', "[1,2]")
        with pytest.raises(JournalError, match=":2: entry is a JSON array"):
            LaneJournal(path, "tencent")

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(_ENTRY.map(lambda v: json.dumps(v)), max_size=5),
        torn=st.booleans(),
        probes=st.lists(st.tuples(st.sampled_from(["apk", "search", "begin"]),
                                  st.sampled_from(["tencent", "com.a"])), max_size=4),
    )
    def test_load_and_replay_fail_only_as_journal_errors(
        self, tmp_path_factory, lines, torn, probes
    ):
        path = tmp_path_factory.mktemp("lane") / "tencent.jsonl"
        body = "".join(line + "\n" for line in lines)
        path.write_text(body + ('{"kind": "apk", "ke' if torn else ""), encoding="utf-8")
        try:
            lane = LaneJournal(path, "tencent")
        except JournalError:
            return
        lane.begin_state()
        lane.last_state()
        for kind, key in probes:
            try:
                result = lane.replay(kind, key)
            except JournalError:
                return
            assert result is None or isinstance(result, dict)


class TestCrawlJournalLifecycle:
    def test_fresh_run_clears_stale_campaign(self, tmp_path):
        journal = CrawlJournal(tmp_path, resume=False)
        journal.campaign("first").lane("tencent").record_begin({"s": 0})
        journal.close()
        fresh = CrawlJournal(tmp_path, resume=False)
        lane = fresh.campaign("first").lane("tencent")
        assert lane.begin_state() is None
        fresh.close()

    def test_resume_keeps_entries(self, tmp_path):
        journal = CrawlJournal(tmp_path, resume=False)
        journal.campaign("first").lane("tencent").record_begin({"s": 7})
        journal.close()
        resumed = CrawlJournal(tmp_path, resume=True)
        assert resumed.campaign("first").lane("tencent").begin_state() == {"s": 7}
        resumed.close()

    def test_version_mismatch_raises(self, tmp_path):
        # A checkpoint written while the vault held JSON documents.
        (tmp_path / "journal.json").write_text(
            json.dumps({"format": "repro-crawl-journal", "version": 3})
        )
        with pytest.raises(JournalError, match="unsupported journal version 3"):
            CrawlJournal(tmp_path)


class TestFullReplayFidelity:
    def test_replayed_campaign_reproduces_every_field(self, world, tmp_path):
        # Original run journals everything; the "resumed" run replays the
        # complete journal against untouched servers and must rebuild the
        # records bit-for-bit — metadata, install ranges, None downloads,
        # APK payloads, and provenance tags included.
        root = tmp_path / "ckpt"
        original, _ = crawl_once(world, root)
        replayed, coordinator = crawl_once(world, root, resume=True)
        assert_records_identical(original, replayed)
        # The replay issued essentially no live traffic (recheck-free
        # campaign): servers only saw the journal restore, and the
        # restored counters describe the original traffic exactly.
        for market_id, lane in original.stats.telemetry.markets.items():
            replayed_lane = replayed.stats.telemetry.markets[market_id]
            assert replayed_lane.export_state() == lane.export_state(), market_id
        assert replayed.stats.telemetry.total_requests > 0
        for server in coordinator._servers.values():
            assert server.requests_served >= 0
        # Field coverage sanity: the corpus genuinely exercises the
        # optional fields the journal must round-trip.
        records = list(original)
        assert any(r.install_range is not None and r.downloads is None
                   for r in records)
        assert any(r.downloads is not None for r in records)
        assert any(r.apk_source == "market" for r in records)
        assert any(r.apk_source == "archive" for r in records)
        assert any(r.apk is None for r in records)

    def test_journal_disabled_matches_journaled_run(self, world, tmp_path):
        plain, _ = crawl_once(world, None)
        journaled, _ = crawl_once(world, tmp_path / "ckpt")
        assert plain.content_digest() == journaled.content_digest()

    def test_replay_under_faults_is_identical(self, world, tmp_path):
        from repro.net.faults import FaultPlan

        plan = FaultPlan(transient_500=0.05, timeout=0.03, max_consecutive=2)
        root = tmp_path / "ckpt"
        original, _ = crawl_once(world, root, faults=plan, download_apks=False)
        replayed, _ = crawl_once(world, root, resume=True, faults=plan,
                                 download_apks=False)
        assert_records_identical(original, replayed)
