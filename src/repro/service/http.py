"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

The control plane needs exactly four verbs of HTTP: parse a request
line + headers + optional body, dispatch, write a response, close.  No
keep-alive (every response carries ``Connection: close`` — scrapers and
curl both handle that fine), no chunked encoding, no TLS.  Implementing
that directly over :func:`asyncio.start_server` keeps the service free
of web-framework dependencies and makes admission control trivial to
reason about: one connection is one request is one queue entry.

The module also carries :func:`request` — the matching client, used by
the tests, the CI smoke job, and ``repro serve --probe``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError", "Request", "Response", "json_response",
    "read_request", "write_response", "serve", "request",
]

#: request-line + headers cap; a client exceeding it gets 431
MAX_HEADER_BYTES = 16 * 1024
#: request body cap; a client exceeding it gets 413
MAX_BODY_BYTES = 1 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """Maps straight to an error response."""

    def __init__(self, status: int, detail: str = "") -> None:
        super().__init__(detail or _REASONS.get(status, ""))
        self.status = status
        self.detail = detail or _REASONS.get(status, "error")


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]     # keys lower-cased
    body: bytes

    def json(self) -> Any:
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body)
        except ValueError:
            raise HttpError(400, "request body is not valid JSON") from None


@dataclass
class Response:
    """One response to serialize."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(payload: Any, status: int = 200,
                  headers: Optional[Dict[str, str]] = None) -> Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return Response(status=status, body=body,
                    headers=dict(headers or {}))


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises :class:`HttpError` on malformed or oversized input — the
    connection handler turns that into the matching error response.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0][:80]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, "bad Content-Length") from None
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    return Request(method=method, path=unquote(split.path), query=query,
                   headers=headers, body=body)


async def write_response(writer: asyncio.StreamWriter,
                         response: Response) -> None:
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            "Connection: close"]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    # head and body in one write: a small reply leaves in one send
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + response.body)
    await writer.drain()


Handler = Callable[[Request], Awaitable[Response]]


async def _handle_connection(handler: Handler,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        try:
            parsed = await read_request(reader)
            if parsed is None:
                return
            response = await handler(parsed)
        except HttpError as exc:
            response = json_response({"error": exc.detail}, status=exc.status)
        except asyncio.CancelledError:
            # Server shutting down mid-request: answer 503 rather than
            # slamming the connection, then let cancellation proceed.
            try:
                await write_response(writer, json_response(
                    {"error": "server shutting down"}, status=503))
            except (ConnectionError, RuntimeError):
                pass
            raise
        except Exception as exc:  # a handler bug must not kill the server
            response = json_response(
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                status=500)
        await write_response(writer, response)
    except (ConnectionError, TimeoutError):
        pass  # peer went away; nothing to answer
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def serve(handler: Handler, host: str, port: int) -> asyncio.base_events.Server:
    """Bind and start serving; the caller owns the returned server."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(handler, r, w), host, port,
        limit=MAX_HEADER_BYTES + MAX_BODY_BYTES)


async def request(host: str, port: int, method: str, path: str,
                  body: Any = None,
                  timeout: float = 30.0) -> Tuple[int, Dict[str, str], bytes]:
    """Stdlib test/probe client: one request, one ``(status, headers,
    body)`` triple.  ``body`` (if given) is JSON-encoded."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
        head = [f"{method.upper()} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(payload)}",
                "Connection: close"]
        if payload:
            head.append("Content-Type: application/json")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"malformed response: {lines[0][:80]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers, body_bytes
