"""Tests for the Section 5.3 identity study."""

import pytest

from repro.analysis.identity import study_identity
from repro.apk.archive import parse_apk, serialize_apk
from repro.apk.models import ChannelFile, CodePackage
from repro.apk.obfuscation import JiaguObfuscator
from repro.crawler.snapshot import Snapshot
from repro.store import CorpusStore

from conftest import build_apk, make_record


def _record(market, apk_model):
    parsed = parse_apk(serialize_apk(apk_model))
    return make_record(
        market_id=market,
        package=parsed.manifest.package,
        version_code=parsed.manifest.version_code,
        apk=parsed,
    )


class TestIdentityStudy:
    def test_channel_file_divergence_explained(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk(
            meta_inf=(ChannelFile("META-INF/txchannel", "tencent"),))))
        snap.add(_record("baidu", build_apk(
            meta_inf=(ChannelFile("META-INF/bdchannel", "baidu"),))))
        study = study_identity(snap)
        assert study.identity_groups == 1
        assert study.md5_divergent_groups == 1
        assert study.channel_only_groups == 1
        assert study.explained_share == 1.0

    def test_packer_divergence_explained(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk()))
        snap.add(_record("market360", JiaguObfuscator().obfuscate(build_apk())))
        study = study_identity(snap)
        assert study.md5_divergent_groups == 1
        assert study.packer_groups == 1

    def test_identical_blobs_not_divergent(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk()))
        snap.add(_record("baidu", build_apk()))
        study = study_identity(snap)
        assert study.identity_groups == 1
        assert study.md5_divergent_groups == 0
        assert study.explained_share == 1.0

    def test_single_store_apps_ignored(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk()))
        study = study_identity(snap)
        assert study.identity_groups == 0
        assert study.divergence_share == 0.0

    def test_different_versions_not_grouped(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk(version_code=1)))
        snap.add(_record("baidu", build_apk(version_code=2)))
        assert study_identity(snap).identity_groups == 0

    def test_examples_capture_kind(self):
        snap = Snapshot("t")
        snap.add(_record("tencent", build_apk(
            meta_inf=(ChannelFile("META-INF/txchannel", "tencent"),))))
        snap.add(_record("baidu", build_apk(
            meta_inf=(ChannelFile("META-INF/bdchannel", "baidu"),))))
        study = study_identity(snap)
        assert study.examples[0]["kind"] == "channel file"
        assert study.examples[0]["md5_count"] == 2


class TestDexDigest:
    def test_ignores_package_names_and_meta_inf(self):
        base = build_apk()
        renamed = build_apk(
            packages=(CodePackage("o.a1b2c3", {1: 2, 5: 1, 42: 3}, (101, 102, 103)),),
            meta_inf=(ChannelFile("META-INF/txchannel", "tencent"),),
        )
        changed = build_apk(packages=(CodePackage("com.example.app", {1: 3}, (101,)),))
        digest = lambda apk: parse_apk(serialize_apk(apk)).dex_digest
        assert digest(base) == digest(renamed)
        assert digest(base) != digest(changed)
        assert -(2**63) <= digest(base) < 2**63

    @pytest.mark.parametrize("spilled", [False, True], ids=["memory", "sqlite"])
    def test_study_reads_no_blob_on_either_backend(self, tmp_path, spilled):
        store = CorpusStore(tmp_path, spill_threshold=0) if spilled else None
        snap = Snapshot("t", store=store)
        channels = [("tencent", "META-INF/txchannel"), ("baidu", "META-INF/bdchannel")]
        for market, channel in channels:
            snap.add(_record(market, build_apk(
                meta_inf=(ChannelFile(channel, market),))))
            snap.add(_record(market, build_apk(package="com.other", packages=(
                CodePackage("com.other", {7: len(market)}, (7,)),))))
        assert snap.spilled == spilled
        study = study_identity(snap)
        if spilled:
            assert store.vault.loads == 0
        assert study.md5_divergent_groups == 2
        assert study.channel_only_groups == 1
        assert sorted(e["kind"] for e in study.examples) == ["channel file", "unexplained"]
