"""HTTP request and response value types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.http.headers import Headers
from repro.http.status import allows_body, reason_phrase

__all__ = ["Request", "Response", "text_response"]

#: Methods whose requests never carry a body.
BODYLESS_METHODS = frozenset(
    {"GET", "HEAD", "DELETE", "OPTIONS", "MKCOL", "COPY", "MOVE"}
)


@dataclass
class Request:
    """An HTTP request; a received ``body`` is ``bytes`` or ``bytearray``.

    A body that arrived in pieces under a ``Content-Length`` is the
    ``bytearray`` it was received into (see
    :class:`~repro.http.codec.BodyCollector`).

    ``target`` is the request-target as it appears on the request line
    (path plus optional query); the ``Host`` header is added by the
    codec/serialiser if absent.
    """

    method: str
    target: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""  # or a received bytearray
    version: str = "HTTP/1.1"

    def __post_init__(self):
        self.method = self.method.upper()
        if not isinstance(self.headers, Headers):
            self.headers = Headers(self.headers)
        if self.body and self.method in BODYLESS_METHODS:
            # Tolerated by HTTP, but our server/client never do this; it
            # is almost always a caller bug.
            raise ValueError(f"{self.method} request must not carry a body")

    @property
    def path(self) -> str:
        """Request-target without the query string."""
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> str:
        parts = self.target.split("?", 1)
        return parts[1] if len(parts) > 1 else ""

    def wants_keep_alive(self) -> bool:
        """Does the client ask to keep the connection open?"""
        if self.headers.contains_token("Connection", "close"):
            return False
        if self.version == "HTTP/1.0":
            return self.headers.contains_token("Connection", "keep-alive")
        return True

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.target}>"


@dataclass
class Response:
    """An HTTP response; a received ``body`` is ``bytes`` or ``bytearray``.

    A body that arrived in pieces under a ``Content-Length`` is the
    ``bytearray`` it was received into (see
    :class:`~repro.http.codec.BodyCollector`).

    A server may give the body as ``pieces`` instead of ``body``: a
    sequence of buffers that goes out in one gather write, so a large
    payload (a multi-range 206) is never joined into a body buffer.
    Responses parsed off the wire always carry ``body``.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""  # or a received bytearray
    reason: Optional[str] = None
    version: str = "HTTP/1.1"
    pieces: Optional[Sequence[bytes]] = None

    def __post_init__(self):
        if not isinstance(self.headers, Headers):
            self.headers = Headers(self.headers)
        if self.reason is None:
            self.reason = reason_phrase(self.status)
        if (self.body or self.pieces) and not allows_body(self.status):
            raise ValueError(f"status {self.status} must not carry a body")

    @property
    def body_length(self) -> int:
        """Body size in bytes, however the body is held."""
        if self.pieces is None:
            return len(self.body)
        return sum(map(len, self.pieces))

    @property
    def ok(self) -> bool:
        """True for any 2xx status."""
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    def keep_alive(self) -> bool:
        """Does the server intend to keep the connection open?"""
        if self.headers.contains_token("Connection", "close"):
            return False
        if self.version == "HTTP/1.0":
            return self.headers.contains_token("Connection", "keep-alive")
        return True

    def __repr__(self) -> str:
        return f"<Response {self.status} {self.reason}>"


def text_response(status: int, message: str) -> Response:
    """A ``text/plain`` response whose body is ``message`` plus a
    newline — the error format of every server tier that does not
    define its own (bodyless when ``status`` forbids a body)."""
    if not allows_body(status):
        return Response(status)
    return Response(
        status,
        Headers([("Content-Type", "text/plain")]),
        (message + "\n").encode(),
    )
