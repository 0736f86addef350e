"""Tests for APK serialization/parsing, including property-based roundtrips."""

import contextlib
import gc
import hashlib
import json
import re
import struct
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apk.archive as archive
from repro import Study, StudyConfig
from repro.apk.archive import (
    MAGIC,
    MAX_BLOB_BYTES,
    MAX_DOCUMENT_BYTES,
    ApkParseError,
    parse_apk,
    serialize_apk,
)
from repro.apk.models import Apk, ChannelFile, CodePackage, FEATURE_SPACE, Manifest
from repro.crawler.crawler import CrawlCoordinator

from conftest import make_apk_bytes


_VALID = make_apk_bytes()
_DOCUMENT = zlib.decompress(_VALID[len(MAGIC) + 4:])


def _wrap(document: bytes, trailer: bytes = b"") -> bytes:
    """A well-framed blob around an arbitrary inflated document, with
    ``trailer`` after the compressed stream (the length header counts it)."""
    payload = zlib.compress(document, 6) + trailer
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

    @pytest.mark.parametrize("trailer, cause", [
        (b"\0", "corrupt payload: 1 bytes after the stream"),
        (b"junk", "corrupt payload: 4 bytes after the stream"),
        (_VALID, f"corrupt payload: {len(_VALID)} bytes after the stream"),
        (bytes(300_000), "blob too long: "),
    ], ids=["one-byte", "junk", "second-blob", "past-the-cap"])
    def test_bytes_after_the_stream_are_refused(self, trailer, cause):
        # A valid stream followed by bytes the length header counts: the
        # blob vault would store it and then refuse to read it back.
        with pytest.raises(ApkParseError, match=cause):
            parse_apk(_wrap(_DOCUMENT, trailer))

    def test_blob_over_the_cap_is_refused_before_inflating(self, monkeypatch):
        # One byte past the blob cap: refused without decompressing.
        monkeypatch.setattr(archive.zlib, "decompressobj", None)
        blob = _wrap(_DOCUMENT, bytes(MAX_BLOB_BYTES))[:MAX_BLOB_BYTES + 1]
        with pytest.raises(ApkParseError, match=f"over the {MAX_BLOB_BYTES}-byte cap"):
            parse_apk(blob)

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
    r"(blob too short|blob too long: |bad magic|payload length mismatch: |corrupt payload: "
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


# ---------------------------------------------------------------------------
# the decoded-package table: a hit is a cold decode
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _fresh_table(shared=True):
    """parse_apk with an empty package table, restored afterwards; with
    ``shared=False`` every document goes through ``json.loads`` and every
    dex entry is decoded cold."""
    saved = archive._PACKAGES, archive._load_compact
    archive._PACKAGES = type(saved[0])()  # empty, of the program's kind
    if not shared:
        archive._load_compact = lambda text: None
    try:
        yield archive._PACKAGES
    finally:
        archive._PACKAGES, archive._load_compact = saved


def _assert_warm_is_cold(blob, *warmers):
    """``blob`` parses alike with every entry decoded cold, with an empty
    table, with the table warm from the ``warmers`` (held alive), and
    again once its own packages are in the table."""
    with _fresh_table(shared=False):
        cold = _parse_outcome(blob)
    with _fresh_table():
        empty = _parse_outcome(blob)
    with _fresh_table():
        held = [_parse_outcome(warmer) for warmer in warmers]
        warm = _parse_outcome(blob)
        again = _parse_outcome(blob)
        del held
    for outcome in (empty, warm, again):
        assert type(outcome) is type(cold)
        assert outcome == cold
        # repr tells 1 from True and 1.0, and shows dict order.
        assert repr(outcome) == repr(cold)


def _compact(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


def _blob_with(*entries):
    """The valid document, compact, with ``entries`` as its dex list."""
    doc = json.loads(_DOCUMENT)
    doc["dex"] = list(entries)
    return _wrap(_compact(doc))


def _entry(name="com.lib", features=None, blocks=None):
    """A raw dex entry; by default the exact-integer one."""
    return {
        "name": name,
        "features": [[1, 2], [9, 4]] if features is None else features,
        "blocks": [7, 8] if blocks is None else blocks,
    }


#: Raw dex entries next to the exact-integer entry they resemble.  Each
#: must decode, or fail, with a warm table exactly as with a cold one.
_LOOKALIKES = {
    "float-count": _entry(features=[[1, 2.0], [9, 4]]),
    "bool-id": _entry(features=[[True, 2], [9, 4]]),
    "bool-count": _entry(features=[[1, True]]),
    "string-id": _entry(features=[["1", 2], [9, 4]]),
    "three-element-pair": _entry(features=[[1, 2, 3], [9, 4]]),
    "one-element-pair": _entry(features=[[1], [2, 9, 4]]),
    "dict-features": _entry(features={"12": 0, "94": 0}),
    "duplicate-ids": _entry(features=[[1, 7], [1, 2], [9, 4]]),
    "reordered-pairs": _entry(features=[[9, 4], [1, 2]]),
    "out-of-space-id": _entry(features=[[FEATURE_SPACE, 2]]),
    "string-blocks": _entry(blocks="78"),
    "float-block": _entry(blocks=[7.0, 8]),
    "unhashable-block": _entry(blocks=[[7], 8]),
    "empty-blocks": _entry(blocks=[]),
    "no-features": _entry(features=[]),
    "int-name": _entry(name=1),
    "bool-name": _entry(name=True),
    "float-name": _entry(name=1.0),
    "unhashable-name": _entry(name=["com", "lib"]),
    "dict-name": _entry(name={"com": "lib"}),
    "bracket-name": _entry(name="com.lib]},{"),
    "reordered-keys": {"blocks": [7, 8], "features": [[1, 2], [9, 4]], "name": "com.lib"},
    "extra-key": {**_entry(), "extra": [1]},
    "missing-name": {"features": [[1, 2]], "blocks": [7]},
    "not-an-object": [["com.lib"], [[1, 2]], [7]],
}


class TestPackageTable:
    def test_equal_entries_share_one_package(self):
        with _fresh_table():
            a = parse_apk(make_apk_bytes(version_code=1))
            b = parse_apk(make_apk_bytes(version_code=2))
        assert a.md5 != b.md5
        assert a.packages[0] is b.packages[0]

    def test_table_holds_packages_weakly(self):
        with _fresh_table() as table:
            parsed = parse_apk(make_apk_bytes())
            assert list(table.values()) == list(parsed.packages)
            del parsed
            gc.collect()
            assert len(table) == 0

    def test_failed_decode_stores_nothing(self):
        blob = _blob_with(_LOOKALIKES["out-of-space-id"])
        with _fresh_table() as table:
            with pytest.raises(ApkParseError, match="outside feature space"):
                parse_apk(blob)
            assert len(table) == 0

    def test_only_the_same_text_shares(self):
        # [[1, 2.0]] decodes as [[1, 2]] does, but is another text.
        with _fresh_table():
            exact = parse_apk(_blob_with(_entry()))
            floats = parse_apk(_blob_with(_LOOKALIKES["float-count"]))
            again = parse_apk(_blob_with(_LOOKALIKES["float-count"]))
        assert floats.packages[0] == exact.packages[0]
        assert floats.packages[0] is not exact.packages[0]
        assert again.packages[0] is floats.packages[0]

    def test_other_layouts_decode_cold(self):
        # serialize_apk writes compact JSON; any other layout still
        # parses, through json.loads, without the table.
        spaced = _wrap(json.dumps(json.loads(_DOCUMENT)).encode())
        with _fresh_table() as table:
            parsed = parse_apk(spaced)
            assert len(table) == 0
        assert parsed.packages == parse_apk(_VALID).packages

    @pytest.mark.parametrize("case", sorted(_LOOKALIKES))
    def test_warm_table_decodes_like_cold(self, case):
        warmers = [_blob_with(_entry())] + [_blob_with(e) for e in _LOOKALIKES.values()]
        _assert_warm_is_cold(_blob_with(_LOOKALIKES[case]), *warmers)

    @pytest.mark.parametrize("case", sorted(_LOOKALIKES))
    def test_lookalike_next_to_its_exact_twin(self, case):
        # The exact entry and the look-alike in one dex list, both orders.
        for entries in ((_entry(), _LOOKALIKES[case]), (_LOOKALIKES[case], _entry())):
            _assert_warm_is_cold(_blob_with(*entries), _blob_with(_entry()))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=len(_VALID) - 1))
def test_truncated_blob_decodes_warm_as_cold(cut):
    _assert_warm_is_cold(_VALID[:cut], _VALID)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=len(_VALID) - 1), st.integers(0, 7))
def test_bit_flipped_blob_decodes_warm_as_cold(offset, bit):
    blob = bytearray(_VALID)
    blob[offset] ^= 1 << bit
    _assert_warm_is_cold(bytes(blob), _VALID)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_recompressed_mutation_decodes_warm_as_cold(document):
    _assert_warm_is_cold(_wrap(document), _VALID)


#: A compact document whose dex list repeats an entry, has an empty
#: ``blocks`` list and a name holding ``]}``: the shapes the table's
#: text lookup must read right.
_MULTI = zlib.decompress(make_apk_bytes(packages=(
    CodePackage("com.a", {1: 2, 9: 4}, (11, 12)),
    CodePackage("x]},{", {5: 5}, ()),
    CodePackage("com.a", {1: 2, 9: 4}, (11, 12)),
    CodePackage("com.lib", {3: 1}, (21,)),
))[len(MAGIC) + 4:])
_MULTI_PATHS = [path for path in _paths(json.loads(_MULTI)) if path]


@st.composite
def compact_mutations(draw):
    """The compact multi-entry document, mutated and still compact."""
    kind = draw(st.sampled_from(["replace", "delete", "bytes", "insert", "splice"]))
    data = bytearray(_MULTI)
    if kind in ("replace", "delete"):
        doc = json.loads(_MULTI)
        *parents, last = draw(st.sampled_from(_MULTI_PATHS))
        node = doc
        for step in parents:
            node = node[step]
        if kind == "delete":
            del node[last]
        else:
            node[last] = draw(_JSON_VALUES)
        return _compact(doc)
    if kind == "splice":
        # Cut a span out, or copy one elsewhere: entries that end early,
        # run on, or repeat.
        a, b, c = sorted(draw(st.integers(0, len(data))) for _ in range(3))
        return bytes(data[:a] + data[b:]) if draw(st.booleans()) else bytes(
            data[:c] + data[a:b] + data[c:])
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        offset = draw(st.integers(min_value=0, max_value=len(data) - 1))
        if kind == "bytes":
            data[offset] = draw(st.sampled_from(b'[]{},:"0123456789 .etrufalsn\\'))
        else:
            data[offset:offset] = draw(st.sampled_from([b"]}", b",", b"]", b"}", b" ", b"[]"]))
    return bytes(data)


@pytest.mark.parametrize("separator", [b"", b" ", b":", b"x", b"]", b"}", b"]}", b",,"])
def test_corrupt_dex_separator_decodes_warm_as_cold(separator):
    cut = _MULTI.index(b"]},{") + 2
    document = _MULTI[:cut] + separator + _MULTI[cut + 1:]
    _assert_warm_is_cold(_wrap(document), _wrap(_MULTI))


@settings(max_examples=400, deadline=None)
@given(compact_mutations())
def test_compact_mutation_decodes_warm_as_cold(document):
    _assert_warm_is_cold(_wrap(document), _wrap(_MULTI))


class TestDecodeBudget:
    """A crawl decodes each distinct code package once.

    A memory-backend study keeps every parsed APK in its snapshot, so
    every package it decodes stays alive and each repeat of a content
    is a table hit.  At seed 42, scale 0.0001 the snapshot's 1,259 APKs
    hold 15,293 code packages of 2,179 distinct contents.  Without the
    table, ``parse_apk`` built all 15,293 and the snapshot held 15,293
    feature dicts.
    """

    @pytest.fixture(scope="class")
    def counted(self):
        constructions = [0]
        code_package = archive.CodePackage

        def counting(*args, **kwargs):
            constructions[0] += 1
            return code_package(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archive, "CodePackage", counting)
            # An empty table, so no package another test keeps alive
            # (the session study has the same seed) is a hit here.
            patch.setattr(archive, "_PACKAGES", weakref.WeakValueDictionary(),
                          raising=False)
            result = Study(StudyConfig(seed=42, scale=0.0001)).run()
        packages = [
            pkg for record in result.snapshot if record.apk is not None
            for pkg in record.apk.packages
        ]
        contents = {(pkg.name, tuple(pkg.features.items()), pkg.blocks) for pkg in packages}
        return constructions[0], packages, contents

    def test_one_construction_per_distinct_content(self, counted):
        constructions, packages, contents = counted
        assert len(packages) > 5 * len(contents) > 0
        assert constructions == len(contents)

    def test_one_feature_dict_per_distinct_content(self, counted):
        _, packages, contents = counted
        assert len({id(pkg.features) for pkg in packages}) == len(contents)


class TestSpilledDecodeBudget:
    """A spilled crawl reuses the packages of the APKs its vault LRU holds.

    The crawl hands each APK it parses to the blob vault's LRU
    (``BlobVault.lazy``), so the package table holds the code packages
    of the last 256, as it holds every one on the memory backend.  At
    seed 42, scale 0.0001 the first campaign constructs 2,756 packages
    for the 15,293 dex entries of its 1,259 APKs.  When each parsed APK
    died once the vault held its bytes, the table stayed empty and the
    crawl constructed all 15,293.
    """

    def test_crawl_constructs_near_the_lru_bound(self, tmp_path):
        constructions = [0]
        after_crawl = []
        code_package = archive.CodePackage
        crawl = CrawlCoordinator.crawl

        def counting(*args, **kwargs):
            constructions[0] += 1
            return code_package(*args, **kwargs)

        def counted_crawl(coordinator, *args, **kwargs):
            snapshot = crawl(coordinator, *args, **kwargs)
            after_crawl.append(constructions[0])
            return snapshot

        config = StudyConfig(seed=42, scale=0.0001, store_backend="sqlite",
                             store_spill_threshold=0, store_dir=str(tmp_path))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archive, "CodePackage", counting)
            patch.setattr(archive, "_PACKAGES", weakref.WeakValueDictionary(),
                          raising=False)
            patch.setattr(CrawlCoordinator, "crawl", counted_crawl)
            result = Study(config).run()
        result.corpus.close()
        assert 0 < after_crawl[0] <= 3_000
