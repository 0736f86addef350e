"""Property tests for the binary wire codec.

The hostile-market contract: any value a listing endpoint can emit —
including arbitrary Unicode text — round-trips bit-exactly, and the
encoding is canonical (same value, same bytes), so snapshots digest
identically whether a market answered JSON or wire.
"""

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
