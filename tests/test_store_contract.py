"""The out-of-core contract: sqlite and memory backends are bit-identical.

Every ``content_digest()`` — world, snapshot, experiment reports — must
not depend on where the records live.  These tests pin that contract at
the unit level (spill boundary, cursor order, reopen) and end-to-end
(full study, memory vs sqlite, serial vs parallel analysis).
"""

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.crawler.snapshot import (
    CrawlRecord,
    Snapshot,
    _digest_row,
    _VaultRecords,
    streaming_snapshot_digest,
)
from repro.ecosystem.generator import EcosystemGenerator
from repro.experiments.runner import (
    EXPERIMENT_IDS,
    digest_reports,
    run_all,
    run_experiment,
)
from repro.store import CorpusStore, SpilledAppList
from repro.store.blobs import BlobVault
from repro.store.columnar import DEFAULT_BATCH_SIZE, ColumnStore, StoreError
from repro.util.rng import stable_hash64

from conftest import make_parsed, make_record


def _make_world(seed=11, scale=0.0005):
    return EcosystemGenerator(seed=seed, scale=scale).generate()


def _records(n, market="tencent"):
    return [
        make_record(market_id=market, package=f"com.app.{i:04d}", downloads=100 + i)
        for i in range(n)
    ]


class TestWorldSpill:
    @pytest.mark.parametrize("seed,scale", [(11, 0.0005), (42, 0.001)])
    def test_digest_invariant_across_backends(self, tmp_path, seed, scale):
        world = _make_world(seed, scale)
        before = world.content_digest()
        world.spill(CorpusStore(tmp_path, spill_threshold=0))
        assert world.spilled
        assert world.content_digest() == before

    def test_cursor_order_matches_materialized(self, tmp_path):
        world = _make_world()
        packages = [app.package for app in world.apps]
        world.spill(CorpusStore(tmp_path, spill_threshold=0))
        assert [a.package for a in world.apps.iter(batch_size=7)] == packages
        assert [a.app_id for a in world.apps] == list(range(len(packages)))

    def test_developer_identity_survives(self, tmp_path):
        world = _make_world()
        world.spill(CorpusStore(tmp_path, spill_threshold=0))
        for app in world.apps.iter(batch_size=64):
            if app.developer is not None:
                assert app.developer is world.developers[app.developer.dev_id]
                break
        else:
            pytest.fail("no app with a developer")

    def test_find_by_package_uses_index(self, tmp_path):
        world = _make_world()
        target = world.apps[0].package
        expected = [a.app_id for a in world.apps if a.package == target]
        world.spill(CorpusStore(tmp_path, spill_threshold=0))
        assert [a.app_id for a in world.find_by_package(target)] == expected

    def test_write_back_survives_reopen(self, tmp_path):
        world = _make_world()
        store = CorpusStore(tmp_path / "corpus", spill_threshold=0)
        world.spill(store)
        app = world.apps[0]
        market_id = next(iter(app.placements))
        app.placements[market_id].version_index = 999
        world.write_back(app)
        store.close()

        reopened = CorpusStore(tmp_path / "corpus", spill_threshold=0)
        apps = SpilledAppList(reopened.apps_family(), world.developers)
        assert len(apps) == len(world.apps)
        assert apps[0].placements[market_id].version_index == 999
        reopened.close()


class TestSnapshotSpill:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_streaming_digest_matches_stable_hash(self, n):
        # The incremental fold must equal the one-shot tuple hash for
        # every tuple-repr shape (empty, single-element ",)" case, many).
        rows = [_digest_row(r) for r in _records(n)]
        assert streaming_snapshot_digest("t", iter(rows)) == stable_hash64(
            "snapshot-content", "t", tuple(rows)
        )

    def test_digest_invariant_with_attach_before_and_after_spill(self, tmp_path):
        def build(store):
            snap = Snapshot("t", store=store)
            records = _records(9)
            for record in records[:5]:
                snap.add(record)
            snap.attach_apk(
                records[0], make_parsed(package=records[0].package), "market"
            )
            for record in records[5:]:
                snap.add(record)
            snap.attach_apk(
                records[7], make_parsed(package=records[7].package), "archive"
            )
            return snap

        memory = build(None)
        spilled = build(CorpusStore(tmp_path, spill_threshold=4, batch_size=3))
        assert spilled.spilled and not memory.spilled
        assert spilled.content_digest() == memory.content_digest()
        assert spilled.apk_coverage("tencent") == memory.apk_coverage("tencent")
        assert spilled.packages() == memory.packages()
        assert [r.package for r in spilled.iter_sorted(batch_size=2)] == [
            r.package for r in memory.sorted_records()
        ]

    def test_spill_threshold_boundary(self, tmp_path):
        store = CorpusStore(tmp_path, spill_threshold=3)
        snap = Snapshot("t", store=store)
        records = _records(4)
        for record in records[:3]:
            snap.add(record)
        assert not snap.spilled  # at the threshold: still in memory
        snap.add(records[3])
        assert snap.spilled  # one past: spilled
        plain = Snapshot("t")
        for record in _records(4):
            plain.add(record)
        assert snap.content_digest() == plain.content_digest()

    def test_duplicate_add_rejected_on_both_backends(self, tmp_path):
        for store in (None, CorpusStore(tmp_path, spill_threshold=0)):
            snap = Snapshot("t", store=store)
            assert snap.add(make_record())
            assert not snap.add(make_record())
            assert len(snap) == 1

    def test_accessors_agree_across_backends(self, tmp_path):
        # Packages listed in one to four markets, ingested interleaved,
        # with APKs attached on both sides of the spill.
        markets = ("tencent", "baidu", "huawei", "xiaomi")

        def build(store):
            snap = Snapshot("t", store=store)
            for i in range(8):
                for market in markets[: 1 + i % 4]:
                    record = make_record(
                        market_id=market, package=f"com.multi.{i}", downloads=i
                    )
                    snap.add(record)
                    if i % 3 == 0:
                        snap.attach_apk(
                            record, make_parsed(package=record.package), "market"
                        )
            return snap

        memory = build(None)
        spilled = build(CorpusStore(tmp_path, spill_threshold=5, batch_size=3))
        assert spilled.spilled and not memory.spilled

        def rows(records):
            return [_digest_row(r) for r in records]

        def groups(snap):
            return [(p, rows(rs)) for p, rs in snap.iter_package_groups(batch_size=2)]

        assert memory.markets_of("com.multi.3") == sorted(markets)
        assert spilled.markets() == memory.markets()
        assert spilled.packages() == memory.packages()
        for package in memory.packages():
            assert spilled.markets_of(package) == memory.markets_of(package)
            assert rows(spilled.for_package(package)) == rows(memory.for_package(package))
        for market in markets:
            assert rows(spilled.in_market(market)) == rows(memory.in_market(market))
            assert spilled.market_size(market) == memory.market_size(market)
        assert groups(spilled) == groups(memory)


#: The crawl family's columns before record metadata became typed
#: columns: the record was one JSON payload.
_JSON_PAYLOAD_LAYOUT = dict(
    key_columns=[
        ("market_id", "TEXT"),
        ("package", "TEXT"),
        ("md5", "TEXT"),
        ("signer", "TEXT"),
        ("vc_hint", "INTEGER"),
        ("min_sdk", "INTEGER"),
        ("obfuscated_by", "TEXT"),
        ("apk_source", "TEXT"),
    ],
    unique=["market_id", "package"],
    indexes=[["market_id"], ["package"]],
)


def test_spill_replaces_a_crawl_table_of_the_json_payload_layout(tmp_path):
    with ColumnStore(tmp_path / "corpus.db") as columns:
        old = columns.family("crawl_t", **_JSON_PAYLOAD_LAYOUT)
        old.append("tencent", "com.old", None, None, None, None, None, None, '{"name":"x"}')

    def build(store):
        snap = Snapshot("t", store=store)
        records = _records(3)
        for record in records:
            snap.add(record)
        snap.attach_apk(records[1], make_parsed(package=records[1].package), "market")
        return snap

    memory = build(None)
    spilled = build(CorpusStore(tmp_path, spill_threshold=0))
    assert spilled.spilled
    assert spilled.content_digest() == memory.content_digest()


_TEXT = st.text(max_size=12)
_INT = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**65), 2**65))
_FLOAT = st.one_of(
    st.floats(),
    st.integers(-(2**53), 2**53).map(float),  # int-valued floats
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(-5, 5),  # an int where a float belongs
)
_RECORDS = st.builds(
    CrawlRecord,
    market_id=_TEXT,
    package=_TEXT,
    app_name=_TEXT,
    version_name=_TEXT,
    version_code=_INT,
    category=_TEXT,
    downloads=st.none() | _INT,
    install_range=st.none() | st.tuples(_INT, _INT),
    rating=_FLOAT,
    updated_day=_INT,
    developer_name=_TEXT,
    crawl_day=_FLOAT,
)


def _sqlite_would_alter(record):
    """True when an SQLite row cannot hold the record's metadata as is."""
    ints = [record.version_code, record.updated_day, record.downloads]
    ints += list(record.install_range or ())
    if any(v is not None and not -(2**63) <= v < 2**63 for v in ints):
        return True
    floats = (record.rating, record.crawl_day)
    return any(
        type(v) is not float or math.isnan(v) or (v == 0 and math.copysign(1, v) < 0)
        for v in floats
    )


@pytest.fixture(scope="module")
def round_trip_store(tmp_path_factory):
    store = CorpusStore(tmp_path_factory.mktemp("round-trip"), spill_threshold=0)
    yield store
    store.close()


@settings(max_examples=150, deadline=None)
@given(record=_RECORDS)
def test_sqlite_record_round_trips_or_is_refused(round_trip_store, record):
    # A record appended to the sqlite family decodes to the digest row
    # it has on the memory family, or is refused at the append: SQLite
    # would turn NaN into NULL, -0.0 into 0.0 and an int into a float,
    # and holds no int outside 64 bits.
    memory = Snapshot("t")
    memory.add(record)
    spilled = Snapshot("t", store=round_trip_store)
    try:
        spilled.add(record)
    except StoreError:
        assert _sqlite_would_alter(record)
        assert len(spilled) == 0
        return
    assert not _sqlite_would_alter(record)
    assert spilled.spilled
    assert [_digest_row(r) for r in spilled] == [_digest_row(r) for r in memory]


@pytest.mark.parametrize(
    "fields",
    [
        dict(downloads=None, install_range=None),
        dict(install_range=(10000, 50000), downloads=None),
        dict(app_name="微信 ✓", developer_name="Tencent 腾讯", package="com.例え"),
        dict(rating=4.0, crawl_day=2784.0),
        dict(rating=math.inf, version_code=2**63 - 1, downloads=-(2**63)),
    ],
)
def test_sqlite_record_round_trips(tmp_path, fields):
    record = make_record(**fields)
    spilled = Snapshot("t", store=CorpusStore(tmp_path, spill_threshold=0))
    spilled.add(record)
    assert spilled.spilled
    assert [_digest_row(r) for r in spilled] == [_digest_row(record)]


@pytest.mark.parametrize(
    "fields",
    [
        dict(rating=math.nan),
        dict(crawl_day=-0.0),
        dict(rating=4),
        dict(downloads=2**63),
        dict(install_range=(1, 2**64)),
        dict(install_range=[1, 5]),
    ],
)
def test_sqlite_refuses_what_it_would_alter(tmp_path, fields):
    spilled = Snapshot("t", store=CorpusStore(tmp_path, spill_threshold=0))
    with pytest.raises(StoreError):
        spilled.add(make_record(**fields))
    assert len(spilled) == 0 and not spilled.spilled
    assert spilled.add(make_record())


class TestCheckpointedResume:
    """A sqlite corpus under a checkpoint directory survives a resume:
    the store's families are refilled, not appended to."""

    CFG = dict(seed=42, scale=0.0001)

    def test_resume_over_a_populated_store(self, tmp_path):
        memory = Study(StudyConfig(**self.CFG)).run()
        sqlite = dict(
            self.CFG,
            store_backend="sqlite",
            store_spill_threshold=0,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        Study(StudyConfig(**sqlite)).run()
        resumed = Study(StudyConfig(**sqlite, resume=True)).run()
        assert resumed.world.spilled and resumed.snapshot.spilled
        assert resumed.world.content_digest() == memory.world.content_digest()
        assert resumed.snapshot.content_digest() == memory.snapshot.content_digest()


class TestStudyContract:
    """End-to-end: memory(w=1) vs sqlite(w=2) — everything digests equal."""

    CFG = dict(seed=42, scale=0.0005, download_apks=True)

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        memory = Study(StudyConfig(**self.CFG)).run()
        sqlite = Study(
            StudyConfig(
                **self.CFG,
                store_backend="sqlite",
                store_spill_threshold=0,
                store_dir=str(tmp_path_factory.mktemp("corpus")),
                workers=2,
            )
        ).run()
        return memory, sqlite

    def test_world_digests_equal(self, pair):
        memory, sqlite = pair
        assert sqlite.world.spilled
        # Cursors cross page boundaries: more rows than one batch.
        assert len(sqlite.world.apps) > DEFAULT_BATCH_SIZE
        assert memory.world.content_digest() == sqlite.world.content_digest()

    def test_snapshot_digests_equal(self, pair):
        memory, sqlite = pair
        assert sqlite.snapshot.spilled
        assert len(sqlite.snapshot) > DEFAULT_BATCH_SIZE
        assert memory.snapshot.content_digest() == sqlite.snapshot.content_digest()

    def test_units_equal(self, pair):
        memory, sqlite = pair
        key = lambda u: (u.package, u.signer, u.apk_md5, u.markets)
        assert [key(u) for u in memory.units] == [key(u) for u in sqlite.units]

    def test_report_digests_equal(self, pair):
        memory, sqlite = pair
        assert digest_reports(run_all(memory)) == digest_reports(run_all(sqlite))

    @pytest.mark.parametrize("backend", [0, 1], ids=["memory", "sqlite"])
    def test_row_scalars_match_manifests(self, pair, backend):
        checked = 0
        for record in pair[backend].snapshot:
            apk = record.apk
            if apk is None:
                continue
            decoded = apk.resolve()
            assert (apk.min_sdk, apk.version_code, apk.obfuscated_by, apk.dex_digest) == (
                decoded.manifest.min_sdk,
                decoded.manifest.version_code,
                decoded.obfuscated_by,
                decoded.dex_digest,
            )
            checked += 1
        assert checked > 0


class TestVaultLoadBudget:
    """A spilled study reads each APK-backed unit's blob at most twice.

    Records decode from their row's typed columns, and record walks
    (Figure 3, §5.3's identity key and executable-content digest) read
    the manifest scalars from the row.  Only two walks over the units
    open blobs: the per-APK analyzers' shared walk, and clone
    extraction, which needs the library clustering that walk feeds.
    """

    CFG = dict(seed=42, scale=0.0001, store_backend="sqlite", store_spill_threshold=0)

    @pytest.fixture(scope="class")
    def counted(self, tmp_path_factory):
        loads = Counter()
        phase = ["run"]
        load = BlobVault.load

        def counting_load(vault, md5):
            loads[phase[0]] += 1
            return load(vault, md5)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BlobVault, "load", counting_load)
            store_dir = str(tmp_path_factory.mktemp("corpus"))
            result = Study(StudyConfig(**self.CFG, store_dir=store_dir)).run()
            phase[0] = "code_clones"
            result.code_clones
            phase[0] = "materialize"
            result.materialize()
            for experiment_id in EXPERIMENT_IDS:  # run_all's serial order
                phase[0] = experiment_id
                run_experiment(experiment_id, result)
        return result, loads

    def test_figure3_reads_no_blob(self, counted):
        _, loads = counted
        assert loads["figure3"] == 0

    def test_section53_reads_no_blob(self, counted):
        result, loads = counted
        assert result.snapshot.spilled
        assert loads["section53"] == 0

    def test_whole_run_within_budget(self, counted):
        result, loads = counted
        apk_units = sum(1 for unit in result.units if unit.apk_md5 is not None)
        # Study.run's recheck needs the VirusTotal scan: the shared walk.
        assert 0 < loads["run"] <= apk_units
        assert 0 < loads["code_clones"] <= apk_units
        assert sum(loads.values()) == loads["run"] + loads["code_clones"], dict(loads)
        vault = result.corpus.vault
        assert vault.loads == sum(loads.values())
        assert 0 < vault.decodes <= vault.loads

    def test_record_decodes_parse_no_json(self, counted, monkeypatch):
        result, _ = counted
        parses = Counter()
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            parses["json"] += 1
            return real_loads(*args, **kwargs)

        assert isinstance(result.snapshot._codec, _VaultRecords)
        real_decode = _VaultRecords.decode

        def counting_decode(self, row):
            parses["decode"] += 1
            return real_decode(self, row)

        monkeypatch.setattr(json, "loads", counting_loads)
        monkeypatch.setattr(_VaultRecords, "decode", counting_decode)
        records = list(result.snapshot)
        for market in result.snapshot.markets():
            records += result.snapshot.in_market(market)
        assert parses["decode"] == len(records) == 2 * len(result.snapshot) > 0
        assert parses["json"] == 0
