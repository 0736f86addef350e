"""Tests for APK serialization/parsing, including property-based roundtrips."""

import hashlib
import json
import re
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.archive import (
    MAGIC,
    MAX_DOCUMENT_BYTES,
    ApkParseError,
    parse_apk,
    serialize_apk,
)
from repro.apk.models import Apk, ChannelFile, CodePackage, FEATURE_SPACE, Manifest

from conftest import make_apk_bytes


_VALID = make_apk_bytes()
_DOCUMENT = zlib.decompress(_VALID[len(MAGIC) + 4:])


def _wrap(document: bytes) -> bytes:
    """A well-framed blob around an arbitrary inflated document."""
    payload = zlib.compress(document, 6)
    return MAGIC + struct.pack(">I", len(payload)) + payload


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

    def test_deep_nesting_is_a_parse_error(self):
        # ~200 KB inflated, under the document cap: the JSON decoder runs
        # out of stack, which must surface as a typed parse failure.
        with pytest.raises(ApkParseError, match="corrupt payload"):
            parse_apk(_wrap(b"[" * 200_000))

    def test_non_finite_integer_is_a_schema_violation(self):
        doc = json.loads(_DOCUMENT)
        doc["manifest"]["version_code"] = float("inf")
        with pytest.raises(ApkParseError, match="schema violation"):
            parse_apk(_wrap(json.dumps(doc).encode()))


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


# ---------------------------------------------------------------------------
# property-based hostile input
# ---------------------------------------------------------------------------

#: Every cause parse_apk names, as the first words of its message.
_CAUSES = re.compile(
    r"(blob too short|bad magic|payload length mismatch: |corrupt payload: "
    r"|payload inflates past |schema violation: )"
)


def _parse_outcome(blob):
    """parse_apk's outcome: a ParsedApk, or the message of its ApkParseError."""
    try:
        return parse_apk(blob)
    except ApkParseError as exc:
        assert _CAUSES.match(str(exc)), str(exc)
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=len(_VALID) - 1))
def test_truncated_blob_is_a_parse_error(cut):
    assert isinstance(_parse_outcome(_VALID[:cut]), str)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(_VALID) - 1), st.integers(0, 7))
def test_bit_flipped_blob_parses_or_names_its_cause(offset, bit):
    blob = bytearray(_VALID)
    blob[offset] ^= 1 << bit
    _parse_outcome(bytes(blob))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every path (a tuple of keys and indexes) inside a decoded document."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


_DOC_PATHS = [path for path in _paths(json.loads(_DOCUMENT)) if path]


@st.composite
def mutated_documents(draw):
    """The valid document, mutated at the byte or the JSON level."""
    kind = draw(st.sampled_from(["replace", "delete", "bytes", "nest", "pad"]))
    if kind in ("replace", "delete"):
        doc = json.loads(_DOCUMENT)
        *parents, last = draw(st.sampled_from(_DOC_PATHS))
        node = doc
        for step in parents:
            node = node[step]
        if kind == "delete":
            del node[last]
        else:
            node[last] = draw(_JSON_VALUES)
        return json.dumps(doc).encode()
    if kind == "nest":
        depth = draw(st.integers(min_value=1, max_value=300_000))
        return b"[" * depth + _DOCUMENT + b"]" * draw(st.integers(0, depth))
    if kind == "pad":
        return _DOCUMENT + b" " * draw(st.integers(min_value=0, max_value=300_000))
    data = bytearray(_DOCUMENT)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        offset = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[offset] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_recompressed_mutation_parses_or_names_its_cause(document):
    outcome = _parse_outcome(_wrap(document))
    if len(document) > MAX_DOCUMENT_BYTES:
        assert outcome == (
            f"payload inflates past the {MAX_DOCUMENT_BYTES}-byte document cap"
        )
