"""Tests for APK serialization/parsing, including property-based roundtrips."""

import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.archive import MAGIC, ApkParseError, parse_apk, serialize_apk
from repro.apk.models import Apk, ChannelFile, CodePackage, FEATURE_SPACE, Manifest

from conftest import make_apk_bytes


class TestRoundtrip:
    def test_manifest_preserved(self):
        parsed = parse_apk(make_apk_bytes(package="com.a.b", version_code=9))
        assert parsed.manifest.package == "com.a.b"
        assert parsed.manifest.version_code == 9

    def test_signature_preserved(self):
        parsed = parse_apk(make_apk_bytes(signer="cafe000000000001"))
        assert parsed.signer_fingerprint == "cafe000000000001"

    def test_packages_preserved(self):
        pkgs = (
            CodePackage("com.a", {1: 2, 9: 4}, (11, 12)),
            CodePackage("com.lib", {3: 1}, (21,)),
        )
        parsed = parse_apk(make_apk_bytes(packages=pkgs))
        assert parsed.package_names() == ("com.a", "com.lib")
        assert parsed.packages[0].features == {1: 2, 9: 4}
        assert parsed.packages[1].blocks == (21,)

    def test_meta_inf_preserved(self):
        meta = (ChannelFile("META-INF/kgchannel", "baidu"),)
        parsed = parse_apk(make_apk_bytes(meta_inf=meta))
        assert parsed.meta_inf[0].name == "META-INF/kgchannel"
        assert parsed.meta_inf[0].content == "baidu"

    def test_md5_is_md5_of_blob(self):
        blob = make_apk_bytes()
        assert parse_apk(blob).md5 == hashlib.md5(blob).hexdigest()

    def test_size_recorded(self):
        blob = make_apk_bytes()
        assert parse_apk(blob).size_bytes == len(blob)

    def test_serialization_deterministic(self):
        assert make_apk_bytes() == make_apk_bytes()

    def test_different_content_different_md5(self):
        a = parse_apk(make_apk_bytes(version_code=1))
        b = parse_apk(make_apk_bytes(version_code=2))
        assert a.md5 != b.md5

    def test_channel_file_changes_md5_only(self):
        a = parse_apk(make_apk_bytes())
        b = parse_apk(
            make_apk_bytes(meta_inf=(ChannelFile("META-INF/ch", "tencent"),))
        )
        assert a.md5 != b.md5
        assert a.package_digests() == b.package_digests()

    def test_merged_features(self):
        pkgs = (
            CodePackage("com.a", {1: 2}, ()),
            CodePackage("com.b", {1: 3, 2: 1}, ()),
        )
        parsed = parse_apk(make_apk_bytes(packages=pkgs))
        assert parsed.merged_features() == {1: 5, 2: 1}

    def test_identity_key(self):
        parsed = parse_apk(make_apk_bytes(package="com.x", version_code=4))
        assert parsed.identity == ("com.x", 4)


class TestMalformed:
    def test_short_blob(self):
        with pytest.raises(ApkParseError):
            parse_apk(b"xx")

    def test_bad_magic(self):
        blob = bytearray(make_apk_bytes())
        blob[0] = ord("X")
        with pytest.raises(ApkParseError):
            parse_apk(bytes(blob))

    def test_truncated_payload(self):
        blob = make_apk_bytes()
        with pytest.raises(ApkParseError):
            parse_apk(blob[:-4])

    def test_inflation_bomb_is_refused(self):
        # A valid document padded with 1 MiB of JSON whitespace: about
        # 1 KiB on the wire, past the document cap once inflated.
        document = zlib.decompress(make_apk_bytes()[len(MAGIC) + 4:])
        payload = zlib.compress(document + b" " * (1 << 20), 9)
        assert len(payload) < 1536
        blob = MAGIC + struct.pack(">I", len(payload)) + payload
        with pytest.raises(ApkParseError, match="document cap"):
            parse_apk(blob)

    def test_corrupt_payload(self):
        blob = bytearray(make_apk_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(ApkParseError):
            parse_apk(bytes(blob))

    def test_magic_prefix(self):
        assert make_apk_bytes().startswith(MAGIC)


# ---------------------------------------------------------------------------
# property-based roundtrip
# ---------------------------------------------------------------------------

_features = st.dictionaries(
    st.integers(min_value=0, max_value=FEATURE_SPACE - 1),
    st.integers(min_value=1, max_value=50),
    max_size=12,
)
_package_names = st.from_regex(r"[a-z]{2,5}\.[a-z]{2,8}", fullmatch=True)
_code_packages = st.builds(
    CodePackage,
    name=_package_names,
    features=_features,
    blocks=st.tuples(st.integers(min_value=0, max_value=2**32 - 1)),
)


@st.composite
def apks(draw):
    min_sdk = draw(st.integers(min_value=1, max_value=25))
    return Apk(
        manifest=Manifest(
            package=draw(_package_names),
            version_code=draw(st.integers(min_value=0, max_value=10**6)),
            version_name=draw(st.text(min_size=1, max_size=10)),
            min_sdk=min_sdk,
            target_sdk=draw(st.integers(min_value=min_sdk, max_value=30)),
            permissions=tuple(
                draw(st.lists(st.sampled_from(["INTERNET", "CAMERA", "SEND_SMS"]),
                              max_size=3))
            ),
        ),
        packages=tuple(draw(st.lists(_code_packages, min_size=1, max_size=4))),
        signer_fingerprint=draw(st.from_regex(r"[0-9a-f]{16}", fullmatch=True)),
        signer_name=draw(st.text(min_size=1, max_size=20)),
        meta_inf=(),
    )


@settings(max_examples=60, deadline=None)
@given(apks())
def test_roundtrip_property(apk):
    parsed = parse_apk(serialize_apk(apk))
    assert parsed.manifest == apk.manifest
    assert parsed.signer_fingerprint == apk.signer_fingerprint
    assert tuple(p.name for p in parsed.packages) == tuple(p.name for p in apk.packages)
    for original, restored in zip(apk.packages, parsed.packages):
        assert dict(original.features) == dict(restored.features)
        assert tuple(original.blocks) == tuple(restored.blocks)


@settings(max_examples=30, deadline=None)
@given(apks())
def test_digest_stable_under_roundtrip(apk):
    parsed = parse_apk(serialize_apk(apk))
    for original, restored in zip(apk.packages, parsed.packages):
        assert original.feature_digest == restored.feature_digest
