"""Index-keyed generation and the segment cache: the determinism contracts.

The index-keyed contract (DESIGN.md): the generated ``World`` is
bit-identical however the build phase is ordered or batched, because
every body draws from an RNG substream keyed by its stable identity
(app index, listing key) — never by its position in the work list.  The
segment-cache contract: every served APK blob is byte-identical with
the cache on or off.  Both are checked here at test scale; the enforced
segment-cache floor lives in ``benchmarks/test_bench_worldgen.py``.
"""

import hashlib

import pytest

from repro.apk.archive import SegmentCache, parse_apk, serialize_apk
from repro.apk.models import Apk, CodePackage, Manifest
from repro.crawler.journal import CrawlJournal
from repro.ecosystem import generator
from repro.ecosystem.generator import EcosystemGenerator
from repro.markets.profiles import ALL_MARKET_IDS
from repro.markets.store import build_stores

from test_crawler_journal import assert_records_identical, crawl_once


class TestShardedDeterminism:
    @pytest.mark.parametrize("seed,scale", [(7, 0.0003), (99, 0.0005)])
    def test_world_digest_identical_at_any_chunking(self, seed, scale, monkeypatch):
        reference = EcosystemGenerator(seed, scale).generate().content_digest()
        build = generator.build_bodies

        def reversed_chunks(rngs, sampler, plans):
            # Build in chunks of 7, last chunk first, then reassemble.
            chunks = [plans[i:i + 7] for i in range(0, len(plans), 7)]
            built = [build(rngs, sampler, chunk) for chunk in reversed(chunks)]
            return [body for bodies in reversed(built) for body in bodies]

        monkeypatch.setattr(generator, "build_bodies", reversed_chunks)
        assert EcosystemGenerator(seed, scale).generate().content_digest() == reference

    def test_digest_distinguishes_worlds(self):
        a = EcosystemGenerator(7, 0.0003).generate()
        b = EcosystemGenerator(8, 0.0003).generate()
        assert a.content_digest() != b.content_digest()


class TestSegmentCache:
    @pytest.fixture(scope="class")
    def world(self):
        return EcosystemGenerator(seed=17, scale=0.0003).generate()

    def test_blobs_byte_identical_cache_on_vs_off(self, world):
        segments = SegmentCache()
        warm = build_stores(world, segments=segments)
        cold = build_stores(world, segment_cache=False)
        compared = 0
        for market_id in ALL_MARKET_IDS:
            for listing in warm[market_id].iter_live(0.0):
                a = warm[market_id].apk_bytes(listing.package, 0.0)
                b = cold[market_id].apk_bytes(listing.package, 0.0)
                assert a == b, (market_id, listing.package)
                if a is not None:
                    assert (
                        hashlib.md5(a).hexdigest() == hashlib.md5(b).hexdigest()
                    )
                    compared += 1
        # The fan-out is real: far more placements than distinct segments.
        stats = segments.stats()
        assert compared > 0
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["hits"] > stats["misses"]

    def test_obfuscating_market_bypasses_cache(self, world):
        # 360's Jiagu packing rewrites package names per app, so its
        # blobs never touch the shared cache — and still parse.
        segments = SegmentCache()
        stores = build_stores(world, segments=segments)
        store = stores["market360"]
        served = 0
        for listing in store.iter_live(0.0):
            blob = store.apk_bytes(listing.package, 0.0)
            if blob is not None:
                assert parse_apk(blob).obfuscated_by is not None
                served += 1
        assert served > 0
        assert segments.stats()["hits"] == 0

    def test_splice_matches_cold_serialization(self):
        apk = Apk(
            manifest=Manifest(
                package="com.example.app",
                version_code=7,
                version_name="1.2.3",
                min_sdk=9,
                target_sdk=19,
                permissions=("android.permission.INTERNET",),
            ),
            packages=(
                CodePackage(name="com.example.app", features={3: 2, 1: 5},
                            blocks=(11, 12)),
                CodePackage(name="com.lib", features={7: 1}, blocks=(13,)),
            ),
            signer_fingerprint="fp",
            signer_name="Dev — Co.",  # non-ASCII exercises ensure_ascii parity
        )
        segments = SegmentCache()
        first = serialize_apk(apk, segments)
        assert first == serialize_apk(apk)
        # Second pass is all hits and still identical.
        assert serialize_apk(apk, segments) == first
        assert segments.stats()["hits"] == 2


class TestMemoization:
    def test_feature_digest_memo(self):
        pkg = CodePackage(name="a", features={1: 2}, blocks=(3,))
        assert pkg.feature_digest == pkg.feature_digest
        fresh = CodePackage(name="a", features={1: 2}, blocks=(3,))
        assert fresh.feature_digest == pkg.feature_digest

    def test_merged_features_memo(self):
        apk = Apk(
            manifest=Manifest(package="p", version_code=1, version_name="1",
                              min_sdk=9, target_sdk=9),
            packages=(CodePackage(name="p", features={1: 2}),
                      CodePackage(name="q", features={1: 3, 4: 1})),
            signer_fingerprint="fp",
            signer_name="dev",
        )
        parsed = parse_apk(serialize_apk(apk))
        merged = parsed.merged_features()
        assert merged == {1: 5, 4: 1}
        assert parsed.merged_features() is merged  # memoized

    def test_own_code_package_memo(self):
        from repro.ecosystem.apps import OwnCode

        own = OwnCode(main_package="com.x", features={5: 1}, blocks=(9,))
        assert own.as_code_package() is own.as_code_package()


class TestShardedWorldCrawl:
    """The checkpoint contract holds over an index-keyed generated world."""

    @pytest.fixture(scope="class")
    def world(self):
        return EcosystemGenerator(seed=31, scale=0.0002).generate()

    def test_kill_and_resume_matches_uninterrupted(self, world, tmp_path_factory):
        baseline, _ = crawl_once(world, None)

        root = tmp_path_factory.mktemp("journal")
        crawl_once(world, root)
        # Simulate a crash mid-campaign: truncate every lane's WAL to
        # half its records, then resume from the damaged journal.
        truncated = 0
        for lane_file in root.rglob("*.jsonl"):
            lines = lane_file.read_text().splitlines(keepends=True)
            keep = len(lines) // 2
            lane_file.write_text("".join(lines[:keep]))
            truncated += len(lines) - keep
        assert truncated > 0

        resumed, _ = crawl_once(world, root, resume=True)
        assert_records_identical(resumed, baseline)

    def test_journal_replay_identical(self, world, tmp_path):
        first, _ = crawl_once(world, tmp_path)
        replayed, _ = crawl_once(world, tmp_path, resume=True)
        assert_records_identical(replayed, first)
