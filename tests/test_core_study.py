"""Tests for the study pipeline (uses the shared session study)."""

import pytest

from repro import Study, StudyConfig
from repro.markets.profiles import ALL_MARKET_IDS, GOOGLE_PLAY
from repro.util.simtime import SECOND_CRAWL_DAY


class TestConfig:
    def test_defaults(self):
        config = StudyConfig()
        assert config.seed == 42
        assert 0 < config.scale <= 1

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            StudyConfig(scale=0)
        with pytest.raises(ValueError):
            StudyConfig(scale=1.5)


class TestStudyResult:
    def test_snapshot_covers_all_markets(self, study):
        assert set(study.snapshot.markets()) == set(ALL_MARKET_IDS)

    def test_units_built(self, study):
        assert study.units
        assert study.units_by_key[(study.units[0].package, study.units[0].signer)]

    def test_clock_at_or_past_second_crawl(self, study):
        assert study.clock.now >= SECOND_CRAWL_DAY

    def test_presence_collected(self, study):
        assert study.presence
        assert GOOGLE_PLAY in study.presence
        # HiApk and OPPO unreachable at the second campaign.
        assert "hiapk" not in study.presence
        assert "oppo" not in study.presence

    def test_removal_outcome_recorded(self, study):
        flagged, removed = study.removal_outcome[GOOGLE_PLAY]
        assert flagged >= removed >= 0

    def test_analysis_artifacts_cached(self, study):
        assert study.library_detection is study.library_detection
        assert study.vt_scan is study.vt_scan

    def test_all_clone_units_union(self, study):
        union = study.all_clone_units
        assert study.signature_clones.clone_units <= union
        assert study.code_clones.clone_units <= union


class TestMetadataOnlyStudy:
    def test_runs_without_apks(self):
        result = Study(StudyConfig(seed=7, scale=0.0002, download_apks=False)).run()
        assert len(result.snapshot) > 0
        assert all(not r.has_apk for r in result.snapshot)
        assert result.presence == {}
