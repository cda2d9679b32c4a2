"""HTTP framing of the control-plane service, byte for byte.

Every request here is raw bytes over a real TCP socket to a running
:class:`~repro.service.ControlPlaneService`, so what is pinned is the
answer a misbehaving client actually gets: the status, the JSON error,
and that the server keeps serving afterwards.  The service runs on its
own event loop in a background thread; the tests talk to it with
blocking sockets.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.fleet.topology import FleetSpec
from repro.service import ControlPlaneService, ServiceConfig
from repro.service.http import MAX_BODY_BYTES, MAX_HEADER_BYTES


@pytest.fixture(scope="module")
def port():
    service = ControlPlaneService(ServiceConfig(
        port=0, executor="inline", telemetry="none", backend="fastpath",
        fleet=FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(30)
    try:
        yield service.port
    finally:
        asyncio.run_coroutine_threadsafe(
            service.begin_drain(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read the reply until the server
    closes: what a client that sent exactly these bytes sees."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def answer(port: int, raw: bytes):
    """``(status, decoded JSON body)`` of the reply to ``raw``."""
    head, _, body = exchange(port, raw).partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    assert status_line.startswith("HTTP/1.1 "), status_line
    return int(status_line.split()[1]), json.loads(body)


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()


def post(path: str, body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


def test_a_wellformed_request_is_answered(port):
    status, body = answer(port, get("/healthz"))
    assert status == 200 and body["status"] == "ok"


def test_head_over_the_cap_is_431(port):
    padding = "X-Pad: " + "a" * MAX_HEADER_BYTES + "\r\n"
    raw = f"GET /healthz HTTP/1.1\r\n{padding}\r\n".encode()
    assert answer(port, raw) == (431, {"error": "request head too large"})


def test_eof_inside_the_head_is_400(port):
    raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
    assert answer(port, raw) == (400, {"error": "truncated request head"})


def test_eof_inside_the_body_is_400(port):
    raw = post("/whatif", b'{"loss', length=40)
    assert answer(port, raw) == (400, {"error": "truncated request body"})


@pytest.mark.parametrize("length", ["abc", "-5", "1.5", ""])
def test_unreadable_content_length_is_400(port, length):
    raw = (f"POST /whatif HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
           .encode())
    assert answer(port, raw) == (400, {"error": "bad Content-Length"})


def test_body_over_the_cap_is_413(port):
    # the cap is checked against the header: no body need follow
    raw = post("/whatif", b"", length=MAX_BODY_BYTES + 1)
    assert answer(port, raw) == (413, {"error": "request body too large"})


@pytest.mark.parametrize("raw", [
    b"GARBAGE\r\n\r\n",
    b"GET /healthz\r\n\r\n",
    b"GET /healthz HTTP/2\r\n\r\n",
    b"GET /healthz HTTP/1.1 extra\r\n\r\n",
], ids=["one-word", "no-version", "not-http1", "four-words"])
def test_malformed_request_line_is_400(port, raw):
    status, body = answer(port, raw)
    assert status == 400
    assert body["error"].startswith("malformed request line")


def test_malformed_header_line_is_400(port):
    raw = b"GET /healthz HTTP/1.1\r\nNo colon here\r\n\r\n"
    status, body = answer(port, raw)
    assert status == 400
    assert body["error"] == "malformed header line: 'No colon here'"


def test_non_utf8_whatif_body_is_400(port):
    raw = post("/whatif", b'{"loss_rate": "\xff\xfe"}')
    assert answer(port, raw) == (
        400, {"error": "request body is not valid JSON"})


def test_empty_whatif_body_is_400(port):
    assert answer(port, post("/whatif", b"")) == (
        400, {"error": "request body required"})


def test_unknown_path_is_404_and_wrong_method_405(port):
    assert answer(port, get("/nope")) == (
        404, {"error": "no route for /nope"})
    assert answer(port, get("/whatif")) == (
        405, {"error": "GET not supported here"})
    assert answer(port, post("/state", b"{}")) == (
        405, {"error": "POST not supported here"})


def test_bare_connect_and_close_gets_no_reply(port):
    assert exchange(port, b"") == b""
    with socket.create_connection(("127.0.0.1", port), timeout=30):
        pass
    # the server is still serving
    status, _ = answer(port, get("/healthz"))
    assert status == 200
