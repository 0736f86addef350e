"""Frame codec and transport round-trips.

The digest oracle across transports rests on the frame codec being a
faithful bijection for every request/response shape the markets
produce — including the awkward ones (``json_ok(None)``, binary APK
bodies, timed 403 bans).
"""

import socket
import threading

import pytest

from repro.net.client import HttpClient
from repro.net.http import MalformedPayloadError, Request, Response
from repro.net.retry import RetryPolicy
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    SocketTransport,
    TransportError,
    _recv_exactly,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame_length,
    pack_frame,
)
from repro.util.simtime import SimClock


class TestRequestCodec:
    def test_round_trip(self):
        req = Request(
            path="/search",
            params={"q": "微信", "page": 3},
            headers={"x-sim-time": "2784.5", "authorization": "tok"},
        )
        back = decode_request(encode_request(req))
        assert back.path == req.path
        assert dict(back.params) == dict(req.params)
        assert dict(back.headers) == dict(req.headers)

    def test_empty_params_and_headers(self):
        back = decode_request(encode_request(Request("/login")))
        assert back.path == "/login"
        assert dict(back.params) == {}
        assert dict(back.headers) == {}

    def test_not_a_request_map(self):
        from repro.net import wire

        with pytest.raises(TransportError):
            decode_request(wire.encode({"status": 200}))
        with pytest.raises(TransportError):
            decode_request(wire.encode([1, 2, 3]))


class TestResponseCodec:
    def test_json_round_trip(self):
        resp = Response.json_ok({"hits": [1, 2], "total": 2})
        back = decode_response(encode_response(resp))
        assert back.status == 200
        assert back.json == {"hits": [1, 2], "total": 2}
        assert back.body is None

    def test_json_none_payload_survives(self):
        # A 200 whose payload IS None (a removed index slot) must not
        # decode into a bodyless 200 — json and body travel explicitly.
        back = decode_response(encode_response(Response.json_ok(None)))
        assert back.status == 200
        assert back.ok
        assert back.json is None
        assert back.body is None

    def test_bytes_round_trip(self):
        blob = bytes(range(256)) * 10
        back = decode_response(encode_response(Response.bytes_ok(blob)))
        assert back.body == blob
        assert back.json is None

    def test_retry_after_round_trip(self):
        back = decode_response(encode_response(Response.rate_limited(0.25)))
        assert back.status == 429
        assert back.retry_after == 0.25
        banned = decode_response(encode_response(Response.forbidden(2.0)))
        assert banned.status == 403
        assert banned.retry_after == 2.0

    def test_malformed_flag_round_trip(self):
        back = decode_response(encode_response(Response.garbled()))
        assert back.malformed is True

    def test_not_a_response_map(self):
        from repro.net import wire

        with pytest.raises(TransportError):
            decode_response(wire.encode({"path": "/x"}))


class TestFraming:
    def test_pack_prefixes_length(self):
        frame = pack_frame(b"abc")
        assert frame[:FRAME_HEADER_BYTES] == (3).to_bytes(FRAME_HEADER_BYTES, "big")
        assert frame[FRAME_HEADER_BYTES:] == b"abc"

    def test_frame_length_round_trip(self):
        assert frame_length(pack_frame(b"x" * 1000)[:FRAME_HEADER_BYTES]) == 1000

    def test_oversized_frame_rejected(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(FRAME_HEADER_BYTES, "big")
        with pytest.raises(TransportError):
            frame_length(header)


class _GarbageServer:
    """A raw TCP peer that answers every request frame with a correctly
    length-prefixed payload that is not an RW01 response."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            with conn:
                try:
                    while True:
                        header = _recv_exactly(conn, FRAME_HEADER_BYTES)
                        _recv_exactly(conn, frame_length(header))
                        conn.sendall(pack_frame(b"not a wire payload"))
                except OSError:
                    pass  # the client dropped the connection

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(5.0)


@pytest.fixture
def garbage_server():
    server = _GarbageServer()
    yield server
    server.close()


class TestGarbledFrames:
    """A garbled frame is a malformed answer: retried, then abandoned
    with ``MalformedPayloadError``, and the connection is dropped."""

    def test_socket_transport(self, garbage_server):
        transport = SocketTransport("127.0.0.1", garbage_server.port)
        client = HttpClient(transport, SimClock(), retry_policy=RetryPolicy(max_retries=1))
        try:
            with pytest.raises(MalformedPayloadError):
                client.get_json("/app")
        finally:
            transport.close()
        assert client.stats.malformed == 2
        assert client.stats.retries == 1
        assert client.stats.failures == 1
        assert garbage_server.connections == 2
