"""Property tests for the binary wire codec.

The hostile-market contract: any value a listing endpoint can emit —
including arbitrary Unicode text — round-trips bit-exactly, and the
encoding is canonical (same value, same bytes), so snapshots digest
identically whether a market answered JSON or wire.
"""

import collections
import enum
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import wire
from repro.net.wire import WIRE_MAGIC, WireError, decode, encode, is_wire
from repro.util.text import app_display_name, cjk_display_name, package_name


def random_value(rng: np.random.Generator, depth: int = 0):
    """A random JSON-safe document, biased toward listing-like shapes."""
    roll = int(rng.integers(0, 10 if depth < 3 else 8))
    if roll == 0:
        return None
    if roll == 1:
        return bool(rng.integers(0, 2))
    if roll == 2:  # ints across the full arbitrary-precision range
        magnitude = int(rng.integers(0, 80))
        return int(rng.integers(-(2**62), 2**62)) * (2**magnitude)
    if roll == 3:
        return float(rng.normal() * 10 ** int(rng.integers(0, 9)))
    if roll == 4:
        return package_name(rng)
    if roll == 5:
        return cjk_display_name(rng)
    if roll == 6:
        return app_display_name(rng)
    if roll == 7:
        return bytes(rng.integers(0, 256, size=int(rng.integers(0, 20)), dtype=np.uint8))
    if roll == 8:
        return [random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    return {
        cjk_display_name(rng) if rng.random() < 0.3 else package_name(rng):
            random_value(rng, depth + 1)
        for _ in range(int(rng.integers(0, 5)))
    }


class TestRoundTrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -1, 1, 0.0, -2.5, "", "x", b"", b"\x00"):
            assert decode(encode(value)) == value

    def test_extreme_ints(self):
        for value in (2**63, -(2**63), 2**200, -(2**200) - 1, 2**64 - 1):
            assert decode(encode(value)) == value

    def test_bool_int_distinction_survives(self):
        decoded = decode(encode([True, 1, False, 0]))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_non_ascii_text(self):
        doc = {"名前": "手机助手 Pro", "emoji": "🚀📱", "mixed": "app商店"}
        assert decode(encode(doc)) == doc

    def test_property_random_documents(self):
        rng = np.random.default_rng(2018)
        for _ in range(300):
            doc = random_value(rng)
            rebuilt = decode(encode(doc))
            assert rebuilt == doc or (
                isinstance(doc, float) and math.isnan(doc) and math.isnan(rebuilt)
            )

    def test_listing_metadata_round_trips(self, study):
        """Every live listing's real endpoint payload survives the wire."""
        store = study.stores["tencent"]
        count = 0
        for listing in store.iter_live(study.clock.now):
            meta = listing.metadata()
            assert decode(encode(meta)) == meta
            count += 1
        assert count > 0


class TestCanonical:
    def test_same_value_same_bytes(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(50):
            assert encode(random_value(rng_a)) == encode(random_value(rng_b))

    def test_dict_order_is_preserved_not_sorted(self):
        # Canonical means deterministic given the value, and servers
        # build metadata dicts in a fixed field order — insertion order
        # is part of the bytes, like protobuf field numbers.
        assert encode({"a": 1, "b": 2}) != encode({"b": 2, "a": 1})
        assert decode(encode({"b": 2, "a": 1})) == {"a": 1, "b": 2}

    def test_subclasses_encode_as_their_base(self):
        class Code(enum.IntEnum):
            OK = 200

        class Name(str):
            pass

        class Score(float):
            pass

        value = collections.OrderedDict([
            ("code", Code.OK), (Name("name"), Name("示例")), ("score", Score(4.5)),
            ("range", (10, 100)), ("blob", bytearray(b"\x00\x01")),
        ])
        assert encode(value) == encode({
            "code": 200, "name": "示例", "score": 4.5,
            "range": [10, 100], "blob": b"\x00\x01",
        })
        with pytest.raises(WireError, match="^cannot encode object$"):
            encode([object()])

    def test_magic_prefix(self):
        payload = encode({"x": 1})
        assert payload.startswith(WIRE_MAGIC)
        assert is_wire(payload)
        assert not is_wire(b'{"x": 1}')
        assert not is_wire(b"RW")


class TestErrors:
    def test_missing_magic(self):
        with pytest.raises(WireError):
            decode(b"\x00\x01\x02")

    def test_truncated_payload(self):
        payload = encode({"key": "value", "n": 123456789})
        for cut in range(len(WIRE_MAGIC) + 1, len(payload)):
            with pytest.raises(WireError):
                decode(payload[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(WireError):
            decode(encode([1, 2]) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode(WIRE_MAGIC + bytes((99,)))

    def test_unencodable_type(self):
        with pytest.raises(WireError):
            encode({"bad": object()})
        with pytest.raises(WireError):
            encode({1: "non-string key"})

    def test_runaway_varint(self):
        with pytest.raises(WireError):
            decode(WIRE_MAGIC + bytes((wire._TAG_INT,)) + b"\xff" * 200)


class TestMalformedProperty:
    """Whatever the bytes, a bad payload fails as a WireError."""

    DOCUMENT = {
        "results": [
            {"package": "com.example.app", "name": "示例", "install_range": [10, 50]},
            {"package": "com.other", "rating": 4.5, "tags": None, "ok": True},
        ],
        "page": 2,
        "blob": b"\x00\x01",
    }

    @staticmethod
    def _decodes_or_wire_error(payload: bytes) -> None:
        try:
            decode(payload)
        except WireError:
            pass

    def test_deep_nesting_is_a_wire_error(self):
        payload = WIRE_MAGIC + bytes((wire._TAG_LIST, 1)) * 100_000 + bytes((wire._TAG_NONE,))
        with pytest.raises(WireError, match="nesting too deep"):
            decode(payload)

    def test_nesting_at_the_cap_decodes(self):
        value = None
        for _ in range(wire.MAX_NESTING):
            value = [value]
        assert decode(encode(value)) == value
        with pytest.raises(WireError, match="nesting too deep"):
            decode(encode([value]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_truncated(self, data):
        payload = encode(self.DOCUMENT)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(WireError):
            decode(payload[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_flipped(self, data):
        payload = bytearray(encode(self.DOCUMENT))
        flips = data.draw(st.lists(st.integers(0, len(payload) * 8 - 1), min_size=1, max_size=4))
        for bit in flips:
            payload[bit // 8] ^= 1 << (bit % 8)
        self._decodes_or_wire_error(bytes(payload))

    @settings(max_examples=200, deadline=None)
    @given(
        depth=st.integers(wire.MAX_NESTING + 1, 5_000),
        tags=st.lists(st.sampled_from([wire._TAG_LIST, wire._TAG_DICT]), min_size=1, max_size=3),
    )
    def test_deeply_nested(self, depth, tags):
        # Containers of one element each, dict keys nested too: the
        # cap must trip before the interpreter's recursion limit.
        body = bytes(b for i in range(depth) for b in (tags[i % len(tags)], 1))
        with pytest.raises(WireError):
            decode(WIRE_MAGIC + body + bytes((wire._TAG_NONE,)))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_magic(self, body):
        self._decodes_or_wire_error(WIRE_MAGIC + body)


def golden_corpus():
    """Values that hit every tag, every varint width boundary, the float
    edge cases, non-ASCII text and nesting at exactly ``MAX_NESTING``.

    Each value is encoded on its own, so the nested ones sit at the
    decoder's depth cap without a wrapping container."""
    sizes = (0, 127, 128, 16383, 16384)
    values = [None, False, True, 0, 1.5, -0.0, math.inf, -math.inf, math.nan]
    values += [63, -63, 64, -64, 8191, 8192, -8192, -8193]
    values += [2**63, -(2**63), 2**63 - 1, -(2**63) + 1, 10**100, -(10**100)]
    for n in sizes:
        values.append("x" * n)
        values.append(bytes(i % 256 for i in range(n)))
        values.append([i - 64 for i in range(n)])
        values.append({f"k{i}": i for i in range(n)})
    # UTF-8 byte lengths 127/128 from two-byte characters.
    values += ["é" * 63 + "x", "é" * 64, "手机助手 Pro", "🚀📱", "app商店"]
    values.append({
        "名前": "手机助手 Pro",
        "é" * 64: "long key",
        "k" * 127: "é" * 64,
        "small": -64,
        "edge": 63,
        "wide": 2**63,
        "none": None,
        "flags": [True, False],
        "rating": 4.5,
        "blob": b"\x00\xff",
        "nested": {"install_range": [10, 100], "tags": []},
    })
    nested_list, nested_dict = None, None
    for _ in range(wire.MAX_NESTING):
        nested_list = [nested_list]
        nested_dict = {"a": nested_dict}
    values += [nested_list, nested_dict]
    return values


class TestGolden:
    """The RW01 bytes are a committed format: any codec rewrite must
    reproduce them exactly."""

    DIGEST = "7f811a00404fa46b092d03c9ccda7e42"

    def test_corpus_digest(self):
        hasher = hashlib.blake2b(digest_size=16)
        for value in golden_corpus():
            hasher.update(encode(value))
        assert hasher.hexdigest() == self.DIGEST

    def test_corpus_round_trips(self):
        for value in golden_corpus():
            payload = encode(value)
            assert encode(decode(payload)) == payload

    def test_one_past_the_nesting_cap(self):
        for value in golden_corpus()[-2:]:
            with pytest.raises(WireError, match="^nesting too deep$"):
                decode(encode([value]))


class TestInlineErrorText:
    """Malformed dict entries fail with the same text however the
    decoder reaches them."""

    @staticmethod
    def _fails(payload: bytes, message: str) -> None:
        with pytest.raises(WireError) as info:
            decode(payload)
        assert str(info.value) == message

    def test_truncated_key(self):
        payload = encode({"key": 1})
        self._fails(payload[:len(payload) - 3], "truncated string")
        # the dict ends right at the key's tag, then at its length byte
        head = WIRE_MAGIC + bytes((wire._TAG_DICT, 1, wire._TAG_STR))
        self._fails(head, "truncated varint")
        self._fails(head[:-1], "truncated value")

    def test_truncated_value(self):
        payload = encode({"k": "value"})
        self._fails(payload[:-2], "truncated string")
        self._fails(encode({"k": 5})[:-1], "truncated varint")
        self._fails(encode({"k": 5})[:-2], "truncated value")

    def test_non_str_key(self):
        for key in (bytes((wire._TAG_INT, 2)), bytes((wire._TAG_NONE,)),
                    bytes((wire._TAG_LIST, 0))):
            payload = WIRE_MAGIC + bytes((wire._TAG_DICT, 1)) + key + bytes((wire._TAG_NONE,))
            self._fails(payload, "dict key is not a string")
        with pytest.raises(WireError, match="^dict keys must be str, got int$"):
            encode({1: "non-string key"})

    def test_invalid_utf8_key(self):
        payload = WIRE_MAGIC + bytes((wire._TAG_DICT, 1, wire._TAG_STR, 2, 0x41, 0xFF, 0))
        self._fails(
            payload,
            "invalid utf-8 payload: 'utf-8' codec can't decode byte 0xff "
            "in position 1: invalid start byte",
        )

    def test_invalid_utf8_value(self):
        payload = WIRE_MAGIC + bytes((wire._TAG_DICT, 1, wire._TAG_STR, 1, 0x6B,
                                      wire._TAG_STR, 1, 0xC3))
        self._fails(
            payload,
            "invalid utf-8 payload: 'utf-8' codec can't decode byte 0xc3 "
            "in position 0: unexpected end of data",
        )
