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
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

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


class WireError(ValueError):
    """The payload is not a valid wire message."""


def _write_varint(out: List[bytes], value: int) -> None:
    if value < 0:
        raise WireError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes((byte | 0x80,)))
        else:
            out.append(bytes((byte,)))
            return


def _write_value(out: List[bytes], value: Any) -> None:
    if value is None:
        out.append(bytes((_TAG_NONE,)))
    elif value is True:
        out.append(bytes((_TAG_TRUE,)))
    elif value is False:
        out.append(bytes((_TAG_FALSE,)))
    elif isinstance(value, int):
        out.append(bytes((_TAG_INT,)))
        # Zigzag maps signed ints onto the varint's non-negative domain
        # (arbitrary precision: no 64-bit assumption).
        _write_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))
    elif isinstance(value, float):
        out.append(bytes((_TAG_FLOAT,)))
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(bytes((_TAG_STR,)))
        _write_varint(out, len(raw))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(bytes((_TAG_BYTES,)))
        _write_varint(out, len(value))
        out.append(bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(bytes((_TAG_LIST,)))
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.append(bytes((_TAG_DICT,)))
        _write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            _write_value(out, key)
            _write_value(out, item)
    else:
        raise WireError(f"cannot encode {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Encode one JSON-safe value to its canonical wire bytes."""
    out: List[bytes] = [WIRE_MAGIC]
    _write_value(out, value)
    return b"".join(out)


def is_wire(data: bytes) -> bool:
    """Whether a payload carries the wire magic."""
    return isinstance(data, (bytes, bytearray)) and bytes(data[:4]) == WIRE_MAGIC


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


def _read_value(data: bytes, pos: int, depth: int = 0) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = _read_varint(data, pos)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise WireError("truncated string")
        try:
            return data[pos:pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 payload: {exc}") from exc
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise WireError("truncated bytes")
        return bytes(data[pos:pos + length]), pos + length
    if tag in (_TAG_LIST, _TAG_DICT) and depth >= MAX_NESTING:
        raise WireError("nesting too deep")
    if tag == _TAG_LIST:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos, depth + 1)
            items.append(item)
        return items, pos
    if tag == _TAG_DICT:
        count, pos = _read_varint(data, pos)
        obj = {}
        for _ in range(count):
            key, pos = _read_value(data, pos, depth + 1)
            if not isinstance(key, str):
                raise WireError("dict key is not a string")
            obj[key], pos = _read_value(data, pos, depth + 1)
        return obj, pos
    raise WireError(f"unknown tag {tag}")


def decode(data: bytes) -> Any:
    """Decode wire bytes back to the value :func:`encode` was given."""
    if not is_wire(data):
        raise WireError("missing wire magic")
    value, pos = _read_value(bytes(data), len(WIRE_MAGIC))
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after value")
    return value
