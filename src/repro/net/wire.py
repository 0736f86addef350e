"""Deterministic binary wire format for hostile-market responses.

Some markets never spoke JSON to crawlers: Tencent Myapp's app API
answers protobuf, and several vendor stores use length-prefixed binary
envelopes.  This module is the repo's stand-in — a self-describing,
protobuf-*like* tag/length/value encoding with two properties the
determinism contract needs:

* **Canonical**: the same Python value always encodes to the same
  bytes (dict insertion order is preserved, floats are fixed-width
  IEEE-754, ints are zigzag varints), so snapshots digest identically
  whether a market answered JSON or wire.
* **Lossless over listing metadata**: every type
  :meth:`~repro.markets.store.Listing.metadata` emits — str (any
  Unicode), int (any magnitude), float, bool, None, lists, dicts —
  round-trips exactly.  The wire property test drives this with
  non-ASCII package/title text.

Layout: a 4-byte magic (``RW01``) followed by one value.  Each value is
a 1-byte tag; strings/bytes add a varint byte length, containers add a
varint element count, ints are zigzag varints, floats are 8 raw
big-endian IEEE-754 bytes.  Decoding refuses containers nested deeper
than :data:`MAX_NESTING`, so every malformed payload — truncated,
bit-flipped or hostile — fails as a :class:`WireError`.

Both directions make one pass and one Python call per container, never
one per scalar: the serving tier runs the codec on every frame, so its
per-value cost is the socket crawl's round-trip cost.  The encoder
appends to one ``bytearray``, dispatching on the exact type (subclasses
such as an ``IntEnum`` or an ``OrderedDict`` take a slower branch of the
same function), with the tag+length bytes of every length and count
under 128 precomputed and recently seen dict keys kept encoded.  The
decoder reads a container's elements in one loop, one-byte varints
inline.  The committed golden digest in ``tests/test_net_wire.py`` pins
the bytes.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, Tuple

__all__ = ["encode", "decode", "is_wire", "WireError", "WIRE_MAGIC", "MAX_NESTING"]

#: Leading magic marking a wire-encoded payload (also the format version).
WIRE_MAGIC = b"RW01"

#: Deepest list/dict nesting :func:`decode` accepts.  Market responses
#: nest a few levels; the cap keeps a payload of nested container tags
#: from recursing into the interpreter's limit.
MAX_NESTING = 64

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_DICT = 8

_NONE = bytes((_TAG_NONE,))
_FALSE = bytes((_TAG_FALSE,))
_TRUE = bytes((_TAG_TRUE,))
_FLOAT = bytes((_TAG_FLOAT,))


def _heads(tag: int) -> Tuple[bytes, ...]:
    return tuple(bytes((tag, n)) for n in range(0x80))


#: Tag plus one-byte varint, indexed by the varint (a length, a count,
#: or a zigzagged int under 128).
_STR_HEADS = _heads(_TAG_STR)
_BYTES_HEADS = _heads(_TAG_BYTES)
_LIST_HEADS = _heads(_TAG_LIST)
_DICT_HEADS = _heads(_TAG_DICT)
_INT_HEADS = _heads(_TAG_INT)

#: Zigzag decoding of the one-byte varints.
_SMALL_INTS = tuple((raw >> 1) if not raw & 1 else -((raw + 1) >> 1) for raw in range(0x80))

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from

#: Encoded dict keys (tag, length, UTF-8), for the fixed field names of
#: market documents; cleared when full, so hostile keys cannot grow it.
_KEY_CACHE_SIZE = 256
_keys: Dict[str, bytes] = {}


class WireError(ValueError):
    """The payload is not a valid wire message."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _head(tag: int, value: int) -> bytes:
    """``tag`` and the varint of a non-negative ``value``."""
    out = bytearray((tag,))
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _key_bytes(key: Any) -> bytes:
    if not isinstance(key, str):
        raise WireError(f"dict keys must be str, got {type(key).__name__}")
    raw = key.encode("utf-8")
    n = len(raw)
    encoded = (_STR_HEADS[n] if n < 0x80 else _head(_TAG_STR, n)) + raw
    if type(key) is str:
        if len(_keys) >= _KEY_CACHE_SIZE:
            _keys.clear()
        _keys[key] = encoded
    return encoded


def _exact(value: Any) -> Any:
    """A subclass instance as the exact type :func:`encode` dispatches on
    (``bool`` and ``None`` cannot be subclassed)."""
    if isinstance(value, int):
        return int.__index__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise WireError(f"cannot encode {type(value).__name__}")


def _write_items(out: bytearray, entries: Iterable, keyed: bool) -> None:
    """Append each value of ``entries``; ``keyed`` entries are a dict's
    ``(key, value)`` items, written key first."""
    keys = _keys
    for value in entries:
        if keyed:
            key, value = value
            encoded = keys.get(key) if type(key) is str else None
            out += encoded if encoded is not None else _key_bytes(key)
        kind = type(value)
        if kind is str:
            raw = value.encode("utf-8")
            n = len(raw)
            out += _STR_HEADS[n] if n < 0x80 else _head(_TAG_STR, n)
            out += raw
        elif kind is int:
            # Zigzag maps signed ints onto the varint's non-negative
            # domain (arbitrary precision: no 64-bit assumption).
            raw = value << 1 if value >= 0 else (-value << 1) - 1
            out += _INT_HEADS[raw] if raw < 0x80 else _head(_TAG_INT, raw)
        elif value is None:
            out += _NONE
        elif kind is dict:
            n = len(value)
            out += _DICT_HEADS[n] if n < 0x80 else _head(_TAG_DICT, n)
            _write_items(out, value.items(), True)
        elif kind is list or kind is tuple:
            n = len(value)
            out += _LIST_HEADS[n] if n < 0x80 else _head(_TAG_LIST, n)
            _write_items(out, value, False)
        elif kind is bool:
            out += _TRUE if value else _FALSE
        elif kind is float:
            out += _FLOAT
            out += _pack_float(value)
        elif kind is bytes:
            n = len(value)
            out += _BYTES_HEADS[n] if n < 0x80 else _head(_TAG_BYTES, n)
            out += value
        else:
            _write_items(out, (_exact(value),), False)


def encode(value: Any) -> bytes:
    """Encode one JSON-safe value to its canonical wire bytes."""
    out = bytearray(WIRE_MAGIC)
    _write_items(out, (value,), False)
    return bytes(out)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def is_wire(data: bytes) -> bool:
    """Whether a payload carries the wire magic."""
    return isinstance(data, (bytes, bytearray)) and data[:4] == WIRE_MAGIC


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 700:  # generous: arbitrary-precision ints, bounded scan
            raise WireError("varint too long")


def _read_items(data: bytes, pos: int, count: int, depth: int, keyed: bool) -> Tuple[Any, int]:
    """Read ``count`` values at nesting ``depth`` into a list, or in
    ``keyed`` mode (a dict's alternating keys and values) into a dict."""
    end = len(data)
    out: Any = {} if keyed else []
    append = None if keyed else out.append
    key = None
    for slot in range(count):
        if pos >= end:
            raise WireError("truncated value")
        tag = data[pos]
        pos += 1
        if tag == _TAG_STR or tag == _TAG_BYTES:
            if pos < end and data[pos] < 0x80:
                stop = pos + 1 + data[pos]
                pos += 1
            else:
                stop, pos = _read_varint(data, pos)
                stop += pos
            if stop > end:
                raise WireError("truncated string" if tag == _TAG_STR else "truncated bytes")
            if tag == _TAG_STR:
                try:
                    item = data[pos:stop].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise WireError(f"invalid utf-8 payload: {exc}") from exc
            else:
                item = data[pos:stop]
            pos = stop
        elif tag == _TAG_INT:
            if pos < end and data[pos] < 0x80:
                item = _SMALL_INTS[data[pos]]
                pos += 1
            else:
                raw, pos = _read_varint(data, pos)
                item = (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        elif tag == _TAG_NONE:
            item = None
        elif tag == _TAG_LIST or tag == _TAG_DICT:
            if depth >= MAX_NESTING:
                raise WireError("nesting too deep")
            if pos < end and data[pos] < 0x80:
                size = data[pos]
                pos += 1
            else:
                size, pos = _read_varint(data, pos)
            if tag == _TAG_LIST:
                item, pos = _read_items(data, pos, size, depth + 1, False)
            else:
                item, pos = _read_items(data, pos, 2 * size, depth + 1, True)
        elif tag == _TAG_FALSE:
            item = False
        elif tag == _TAG_TRUE:
            item = True
        elif tag == _TAG_FLOAT:
            if pos + 8 > end:
                raise WireError("truncated float")
            item = _unpack_float(data, pos)[0]
            pos += 8
        else:
            raise WireError(f"unknown tag {tag}")
        if append is not None:
            append(item)
        elif slot & 1:
            out[key] = item
        elif type(item) is str:
            key = item
        else:
            raise WireError("dict key is not a string")
    return out, pos


def decode(data: bytes) -> Any:
    """Decode wire bytes back to the value :func:`encode` was given."""
    if not is_wire(data):
        raise WireError("missing wire magic")
    data = bytes(data)
    (value,), pos = _read_items(data, len(WIRE_MAGIC), 1, 0, False)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after value")
    return value
