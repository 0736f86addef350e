"""Tests for the parallel analysis engine and artifact cache."""

import json
import sqlite3
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro.analysis.engine import (
    AnalysisEngine,
    ArtifactCache,
    CacheStats,
    UnitAnalyzer,
)
from repro.analysis.malware import scan_units
from repro.analysis.permissions import analyze_overprivilege
from repro.analysis.virustotal import VirusTotalService, default_engines
from repro.core.config import resolve_workers
from repro.core.study import StudyResult
from repro.experiments import digest_reports, run_all

from conftest import make_parsed, make_record


def _unit_like(apk):
    """The minimal duck type map_units_cached needs."""

    class Unit:
        def __init__(self, apk):
            self.apk = apk
            self.apk_md5 = apk.md5 if apk is not None else None

    return Unit(apk)


def _rewrite(cache, key, edit):
    """Replace one stored entry's document with ``edit(document)``."""
    with closing(sqlite3.connect(cache.path)) as conn:
        (raw,) = conn.execute(
            "SELECT doc FROM artifacts WHERE analyzer = ? AND version = ? AND md5 = ?", key
        ).fetchone()
        with conn:
            conn.execute(
                "UPDATE artifacts SET doc = ? WHERE analyzer = ? AND version = ? AND md5 = ?",
                (edit(raw), *key),
            )


class TestResolveAnalysisWorkers:
    """The one width resolver serves the analysis pool too."""

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_auto_is_positive(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("lib", "1", "ab" * 16, {"x": [1, 2]})
        assert cache.get("lib", "1", "ab" * 16) == {"x": [1, 2]}
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("lib", "1", "cd" * 16) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_version_bump_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("lib", "1", "ab" * 16, "old")
        assert cache.get("lib", "2", "ab" * 16) is None
        assert cache.stats.misses == 1
        # The old version's entry is still intact.
        assert cache.get("lib", "1", "ab" * 16) == "old"

    def test_truncated_entry_is_corrupt_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("lib", "1", "ab" * 16, {"x": 1})
        _rewrite(cache, ("lib", "1", "ab" * 16), lambda raw: raw[: len(raw) // 2])
        assert cache.get("lib", "1", "ab" * 16) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_deeply_nested_entry_is_corrupt_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("lib", "1", "ab" * 16, {"x": 1})
        _rewrite(cache, ("lib", "1", "ab" * 16), lambda raw: "[" * 200_000)
        assert cache.get("lib", "1", "ab" * 16) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_key_mismatch_is_corrupt_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("lib", "1", "ab" * 16, 42)

        def rekey(raw):
            doc = json.loads(raw)
            doc["md5"] = "ee" * 16
            return json.dumps(doc)

        _rewrite(cache, ("lib", "1", "ab" * 16), rekey)
        assert cache.get("lib", "1", "ab" * 16) is None
        assert cache.stats.corrupt == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        """Puts write rows of one database, never a file per entry."""
        cache = ArtifactCache(tmp_path)
        for i in range(20):
            cache.put("lib", "1", f"{i:032x}", list(range(i)))
        names = {p.name for p in tmp_path.rglob("*")}
        assert names <= {"artifacts.db", "artifacts.db-wal", "artifacts.db-shm"}
        assert "artifacts.db" in names

    def test_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        md5 = "ab" * 16
        cache.put("virustotal", "3", md5, [1])
        assert cache.path == tmp_path / "artifacts.db"
        with closing(sqlite3.connect(cache.path)) as conn:
            rows = conn.execute("SELECT analyzer, version, md5 FROM artifacts").fetchall()
        assert rows == [("virustotal", "3", md5)]

    def test_concurrent_puts_and_gets_lose_nothing(self, tmp_path):
        """Analysis threads share one connection; no put or count is lost."""
        cache = ArtifactCache(tmp_path)
        threads, per_thread = 8, 40

        def work(t):
            for i in range(per_thread):
                md5 = f"{t:02x}{i:030x}"
                cache.put("lib", "1", md5, [t, i])
                assert cache.get("lib", "1", md5) == [t, i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(work, t) for t in range(threads)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert cache.stats.as_dict() == {
            "hits": total, "misses": 0, "stores": total, "corrupt": 0,
        }
        cache.close()
        with closing(sqlite3.connect(tmp_path / "artifacts.db")) as conn:
            assert conn.execute("SELECT COUNT(*) FROM artifacts").fetchone() == (total,)

    def test_stats_accounting(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("a", "1", "11" * 16, 1)
        cache.get("a", "1", "11" * 16)
        cache.get("a", "1", "22" * 16)
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
        }
        assert cache.stats.lookups == 2


class TestEngineMap:
    def test_serial_parallel_same_order(self):
        items = list(range(200))
        serial = AnalysisEngine(workers=1).map(items, lambda x: x * x)
        parallel = AnalysisEngine(workers=4).map(items, lambda x: x * x)
        assert serial == parallel == [x * x for x in items]

    def test_single_item_stays_serial(self):
        engine = AnalysisEngine(workers=4)
        assert engine.map([3], lambda x: x + 1) == [4]
        assert engine.parallel_batches == 0

    def test_parallel_batches_counted(self):
        engine = AnalysisEngine(workers=4)
        engine.map([1, 2, 3], lambda x: x)
        assert engine.parallel_batches == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            AnalysisEngine(workers=0)

    def test_stats_line(self, tmp_path):
        assert "cache off" in AnalysisEngine().stats_line()
        engine = AnalysisEngine(cache=ArtifactCache(tmp_path))
        assert "0 hits / 0 misses" in engine.stats_line()


class TestMapUnitsCached:
    def _units(self, n=6):
        return [
            _unit_like(make_parsed(package=f"com.unit{i}", signer="ab" * 8))
            for i in range(n)
        ] + [_unit_like(None)]

    def test_apkless_unit_yields_none(self):
        engine = AnalysisEngine()
        out = engine.map_units_cached(
            [UnitAnalyzer("t", "1", lambda apk: 1)], [_unit_like(None)]
        )
        assert out == [[None]]

    def test_second_run_computes_nothing(self, tmp_path):
        calls = []

        def compute(apk):
            calls.append(apk.md5)
            return apk.manifest.version_code

        units = self._units()
        for run in range(2):
            engine = AnalysisEngine(cache=ArtifactCache(tmp_path))
            [out] = engine.map_units_cached(
                [UnitAnalyzer("vc", "1", compute, decode=int)], units
            )
            assert out[:-1] == [3] * 6 and out[-1] is None
        assert len(calls) == 6  # first run only
        assert engine.cache.stats.hits == 6
        assert engine.cache.stats.misses == 0

    def test_decode_failure_falls_back_to_compute(self, tmp_path):
        units = self._units(1)[:1]
        first = AnalysisEngine(cache=ArtifactCache(tmp_path))
        [out] = first.map_units_cached(
            [UnitAnalyzer("t", "1", lambda apk: {"k": 1}, decode=dict)], units
        )
        assert out == [{"k": 1}]
        assert first.cache.stats.stores == 1
        # A decoder that rejects the stored payload counts as corruption
        # and falls through to recompute.
        second = AnalysisEngine(cache=ArtifactCache(tmp_path))
        [out] = second.map_units_cached(
            [UnitAnalyzer(
                "t", "1", lambda apk: "recomputed",
                encode=lambda v: {"v": v},
                decode=lambda p: p["missing"],  # KeyError on the old payload
            )],
            units,
        )
        assert out == ["recomputed"]
        assert second.cache.stats.corrupt == 1
        assert second.cache.stats.hits == 0
        assert second.cache.stats.misses == 1

    def test_no_cache_recomputes(self):
        calls = []
        units = self._units(2)[:2]
        engine = AnalysisEngine()
        for _ in range(2):
            engine.map_units_cached(
                [UnitAnalyzer("t", "1", lambda apk: calls.append(1))], units
            )
        assert len(calls) == 4

    def test_one_resolve_per_unit_and_none_on_warm_hits(self, tmp_path):
        resolves = []

        class Proxy:
            """A vault proxy stand-in that counts decodes."""

            def __init__(self, apk):
                self._apk = apk
                self.md5 = apk.md5

            def resolve(self):
                resolves.append(self.md5)
                return self._apk

        units = self._units(4)
        for unit in units[:-1]:
            unit.apk = Proxy(unit.apk)

        def seen(apk):
            assert not isinstance(apk, Proxy)  # compute gets the decoded APK
            return apk.manifest.version_code

        cached = [UnitAnalyzer(f"a{i}", "1", seen) for i in range(3)]
        uncached = UnitAnalyzer("u", None, seen)
        cold = AnalysisEngine(cache=ArtifactCache(tmp_path))
        out = cold.map_units_cached(cached + [uncached], units)
        assert out == [[3, 3, 3, 3, None]] * 4
        assert len(resolves) == 4  # one decode per APK-backed unit
        resolves.clear()
        warm = AnalysisEngine(cache=ArtifactCache(tmp_path))
        assert warm.map_units_cached(cached, units) == [[3, 3, 3, 3, None]] * 3
        assert resolves == []  # every analyzer hit: nothing decoded
        assert warm.map_units_cached(cached + [uncached], units)[-1] == [3, 3, 3, 3, None]
        assert len(resolves) == 4  # the uncached analyzer decodes once per unit
        assert warm.cache.stats.misses == 0

    def test_walk_runs_once_and_hands_out_each_result_once(self):
        from repro.analysis.engine import UnitWalk

        calls = []
        units = self._units(3)
        walk = UnitWalk(AnalysisEngine(), units, [
            UnitAnalyzer("a", "1", lambda apk: calls.append("a") or 1),
            UnitAnalyzer("b", "1", lambda apk: calls.append("b") or 2),
        ])
        assert calls == []  # nothing runs until the first take
        assert walk.take("b") == [2, 2, 2, None]
        assert walk.take("a") == [1, 1, 1, None]
        assert calls == ["a", "b"] * 3
        with pytest.raises(KeyError):
            walk.take("a")


class TestAnalyzersThroughEngine:
    def _units(self):
        from repro.analysis.corpus import build_units
        from repro.crawler.snapshot import Snapshot

        snap = Snapshot("t")
        for i in range(12):
            snap.add(make_record(
                market_id="tencent", package=f"com.app{i}",
                apk=make_parsed(package=f"com.app{i}", signer="ab" * 8,
                                permissions=("INTERNET", "READ_SMS", "CAMERA")),
            ))
        return build_units(snap)

    def test_scan_units_serial_equals_parallel(self):
        units = self._units()
        service = VirusTotalService()
        serial = scan_units(units, service, engine=AnalysisEngine(workers=1))
        parallel = scan_units(units, VirusTotalService(),
                              engine=AnalysisEngine(workers=4))
        assert serial.reports.keys() == parallel.reports.keys()
        assert {k: v.detections for k, v in serial.reports.items()} == {
            k: v.detections for k, v in parallel.reports.items()
        }

    def test_scan_units_warm_cache_identical(self, tmp_path):
        units = self._units()
        cold_engine = AnalysisEngine(cache=ArtifactCache(tmp_path))
        cold = scan_units(units, VirusTotalService(), engine=cold_engine)
        warm_engine = AnalysisEngine(cache=ArtifactCache(tmp_path))
        warm = scan_units(units, VirusTotalService(), engine=warm_engine)
        assert warm_engine.cache.stats.misses == 0
        assert warm_engine.cache.stats.hits == len(units)
        assert {k: v.detections for k, v in cold.reports.items()} == {
            k: v.detections for k, v in warm.reports.items()
        }

    def test_custom_vt_roster_gets_own_cache_namespace(self):
        custom = VirusTotalService(engines=default_engines(10))
        assert custom.cache_version != VirusTotalService.cache_version
        assert custom.cache_version.startswith("custom-")

    def test_custom_permission_spec_bypasses_cache(self, tmp_path):
        from repro.android.permissions import PermissionSpec

        units = self._units()
        cache = ArtifactCache(tmp_path)
        engine = AnalysisEngine(cache=cache)
        spec = PermissionSpec(feature_permission={}, permission_features={})
        analyze_overprivilege(units, spec=spec, engine=engine)
        assert cache.stats.lookups == 0
        assert cache.stats.stores == 0

    def test_overprivilege_cached_roundtrip(self, tmp_path):
        units = self._units()
        first = analyze_overprivilege(
            units, engine=AnalysisEngine(cache=ArtifactCache(tmp_path)))
        second = analyze_overprivilege(
            units, engine=AnalysisEngine(cache=ArtifactCache(tmp_path)))
        assert first.unused == second.unused


def _clone_result(study, engine=None):
    """A fresh StudyResult over the same crawl (no re-crawl needed)."""
    return StudyResult(
        config=study.config,
        world=study.world,
        stores=study.stores,
        servers=study.servers,
        clock=study.clock,
        snapshot=study.snapshot,
        presence=study.presence,
        removal_outcome=study.removal_outcome,
        second_snapshot=study.second_snapshot,
        update_outcome=study.update_outcome,
        engine=engine,
    )


class TestRunAllDeterminism:
    def test_parallel_and_cached_digests_match_serial(self, study, tmp_path):
        serial = digest_reports(run_all(_clone_result(study)))

        parallel_result = _clone_result(study, engine=AnalysisEngine(workers=8))
        parallel = digest_reports(run_all(parallel_result))
        assert parallel == serial

        cold_result = _clone_result(
            study, engine=AnalysisEngine(cache=ArtifactCache(tmp_path)))
        cold = digest_reports(run_all(cold_result))
        assert cold_result.engine.cache.stats.stores > 0
        assert cold == serial

        warm_result = _clone_result(
            study,
            engine=AnalysisEngine(workers=4, cache=ArtifactCache(tmp_path)),
        )
        warm = digest_reports(run_all(warm_result))
        assert warm_result.engine.cache.stats.hits > 0
        assert warm_result.engine.cache.stats.misses == 0
        assert warm == serial

    def test_materialize_idempotent(self, study):
        result = _clone_result(study)
        result.materialize()
        vt = result.vt_scan
        result.materialize()
        assert result.vt_scan is vt
