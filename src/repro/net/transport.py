"""Pluggable transports between crawl clients and market servers.

A *transport* is anything the client can push a
:class:`~repro.net.http.Request` through to get a
:class:`~repro.net.http.Response` back.  Two shapes cover the repo's
needs:

* the server's own ``handle`` method, bound directly — the in-process
  fast path tests run on; zero copies, zero serialization;
* :class:`SocketTransport` — one persistent blocking TCP connection to
  a :class:`~repro.serving.ServingTier` listener, one per crawl lane.

The frame protocol is deliberately boring: a 4-byte big-endian length
prefix followed by a :mod:`repro.net.wire` (RW01) payload of at most
:data:`MAX_FRAME_BYTES`.  Requests and responses are encoded as
canonical wire maps, which is what makes the digest oracle hold across
transports — the wire codec round-trips every value shape market
metadata uses (ints stay ints, bytes stay bytes, ``None`` stays
``None``), and ``Response.json_ok(None)`` — a legitimate payload (a
removed index slot) — survives because the response map carries
``json`` and ``body`` as separate fields rather than inferring absence.
A map whose fields have the wrong types is refused like any other
garbled frame.  Each direction of an exchange is one codec pass; the
serving tier's side of the framing lives in
:class:`~repro.serving.tier.FrameProtocol`.

Timeouts and connection drops surface as ``Response.timeout()`` (the
599 convention), and a well-framed payload that does not decode as a
response surfaces as ``Response.garbled()`` (``malformed``), so the
client's existing retry/backoff machinery — not the transport — decides
what a flaky link costs.
"""

from __future__ import annotations

import socket
from typing import Callable, List, Optional

from repro.net import wire
from repro.net.http import Request, Response

__all__ = [
    "Transport",
    "TransportError",
    "GarbledFrameError",
    "SocketTransport",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "pack_frame",
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "DEFAULT_SOCKET_TIMEOUT",
]

#: A transport is a ``Request -> Response`` callable (duck-typed; the
#: in-process path binds ``server.handle`` directly).
Transport = Callable[[Request], Response]

#: Length-prefix width of one frame.
FRAME_HEADER_BYTES = 4

#: Hard ceiling on one frame's payload; a larger prefix means a corrupt
#: or misaligned stream, not real data.  The largest frame of a
#: scale-0.002 socket crawl with APKs is 8,443 bytes, and an APK blob
#: (the largest body a market serves) inflates to at most the 256 KiB
#: document cap (``repro.apk.archive.MAX_DOCUMENT_BYTES``), so 1 MiB
#: leaves 4x headroom over that cap.
MAX_FRAME_BYTES = 1024 * 1024

#: Wall-clock seconds a synchronous transport waits on one response.
DEFAULT_SOCKET_TIMEOUT = 30.0


class TransportError(ConnectionError):
    """The byte stream broke the frame protocol (not a server answer)."""


class GarbledFrameError(TransportError):
    """A correctly framed payload that is not a valid response map."""


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """One request as a canonical wire map."""
    return wire.encode({
        "path": request.path,
        "params": dict(request.params),
        "headers": dict(request.headers),
    })


def decode_request(payload: bytes) -> Request:
    doc = wire.decode(payload)
    if not isinstance(doc, dict) or "path" not in doc:
        raise TransportError("request frame is not a request map")
    path = doc["path"]
    params = doc.get("params") or {}
    headers = doc.get("headers") or {}
    if type(path) is not str or type(params) is not dict or type(headers) is not dict:
        raise TransportError("request frame has mistyped fields")
    return Request(path=path, params=params, headers=headers)


def encode_response(response: Response) -> bytes:
    """One response as a canonical wire map.

    ``json`` and ``body`` are both carried explicitly: a 200 whose
    payload is ``None`` (a removed index slot) must decode back to
    exactly that, not to a bodyless 200.
    """
    return wire.encode({
        "status": response.status,
        "json": response.json,
        "body": response.body,
        "retry_after": response.retry_after,
        "malformed": response.malformed,
    })


def decode_response(payload: bytes) -> Response:
    try:
        doc = wire.decode(payload)
    except wire.WireError as exc:
        raise GarbledFrameError(f"response frame: {exc}") from exc
    if not isinstance(doc, dict) or "status" not in doc:
        raise GarbledFrameError("response frame is not a response map")
    status = doc["status"]
    body = doc.get("body")
    retry_after = doc.get("retry_after")
    if (
        type(status) is not int
        or (body is not None and type(body) is not bytes)
        or (retry_after is not None and type(retry_after) not in (int, float))
    ):
        raise GarbledFrameError("response frame has mistyped fields")
    return Response(
        status=status,
        json=doc.get("json"),
        body=body,
        retry_after=retry_after,
        malformed=bool(doc.get("malformed", False)),
    )


def pack_frame(payload: bytes) -> bytes:
    """Length-prefix one wire payload for the stream."""
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large: {len(payload)} bytes")
    return len(payload).to_bytes(FRAME_HEADER_BYTES, "big") + payload


def frame_length(header: bytes) -> int:
    """Validate and decode one length prefix."""
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large: {length} bytes")
    return length


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class SocketTransport:
    """One persistent blocking connection to a serving-tier listener.

    Built for the crawl engine's lane discipline: one lane, one
    connection, strictly sequential request/response frames.  A read
    timeout or connection drop answers ``Response.timeout()`` (and
    drops the connection, since a half-read stream is unusable), which
    the client's 599 handling retries on a fresh connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = DEFAULT_SOCKET_TIMEOUT,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def __call__(self, request: Request) -> Response:
        try:
            sock = self._connect()
            sock.sendall(pack_frame(encode_request(request)))
            header = _recv_exactly(sock, FRAME_HEADER_BYTES)
            return decode_response(_recv_exactly(sock, frame_length(header)))
        except GarbledFrameError:
            # The peer answered gibberish: drop the connection and let
            # the client's malformed-payload budget decide.
            self.close()
            return Response.garbled()
        except (TransportError, OSError):
            # Timeouts, drops, and resets are transient transport
            # weather; surface them through the 599 path so the retry
            # budget — not the transport — decides when to give up.
            self.close()
            return Response.timeout()

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass


def response_to_wire(response: Response) -> bytes:
    """One response as a ready-to-send frame (serving-tier helper)."""
    return pack_frame(encode_response(response))


def request_to_wire(request: Request) -> bytes:
    """One request as a ready-to-send frame (client/test helper)."""
    return pack_frame(encode_request(request))
