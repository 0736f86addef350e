"""The out-of-core contract: sqlite and memory backends are bit-identical.

Every ``content_digest()`` — world, snapshot, experiment reports — must
not depend on where the records live.  These tests pin that contract at
the unit level (spill boundary, cursor order, reopen) and end-to-end
(full study, memory vs sqlite, serial vs parallel analysis).
"""

from collections import Counter

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.crawler.snapshot import (
    Snapshot,
    _digest_row,
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
                store_batch_size=32,
                store_dir=str(tmp_path_factory.mktemp("corpus")),
                workers=2,
            )
        ).run()
        return memory, sqlite

    def test_world_digests_equal(self, pair):
        memory, sqlite = pair
        assert sqlite.world.spilled
        assert memory.world.content_digest() == sqlite.world.content_digest()

    def test_snapshot_digests_equal(self, pair):
        memory, sqlite = pair
        assert sqlite.snapshot.spilled
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
            assert (apk.min_sdk, apk.version_code, apk.obfuscated_by) == (
                decoded.manifest.min_sdk,
                decoded.manifest.version_code,
                decoded.obfuscated_by,
            )
            checked += 1
        assert checked > 0


class TestVaultLoadBudget:
    """A spilled study reads each vaulted APK a bounded number of times.

    Record walks (Figure 3, the §5.3 identity key) read the manifest
    scalars from the row, and the per-APK analyzers share one walk over
    the units, so ``BlobVault.load`` calls stay within one pass over the
    stored blobs plus two over the APK-backed units.
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
            phase[0] = "materialize"
            result.materialize()
            for experiment_id in EXPERIMENT_IDS:  # run_all's serial order
                phase[0] = experiment_id
                run_experiment(experiment_id, result)
        return result, loads

    def test_figure3_reads_no_blob(self, counted):
        _, loads = counted
        assert loads["figure3"] == 0

    def test_section53_reads_each_compared_blob_once(self, counted):
        result, loads = counted
        groups = {}
        for record in result.snapshot:
            apk = record.apk
            if apk is not None:
                key = (record.package, apk.version_code, apk.signer_fingerprint)
                groups.setdefault(key, []).append(apk)
        compared = set()
        for apks in groups.values():
            md5s = {apk.md5 for apk in apks}
            if len(md5s) > 1 and all(apk.obfuscated_by is None for apk in apks):
                compared |= md5s
        assert compared, "the budget needs divergent unpacked groups to compare"
        assert loads["section53"] <= len(compared)

    def test_whole_run_within_budget(self, counted):
        result, loads = counted
        stored = len(result.corpus.vault)
        apk_units = sum(1 for unit in result.units if unit.apk_md5 is not None)
        total = sum(loads.values())
        assert 0 < total <= stored + 2 * apk_units, dict(loads)
        vault = result.corpus.vault
        assert vault.loads == total
        assert 0 < vault.decodes <= vault.loads
