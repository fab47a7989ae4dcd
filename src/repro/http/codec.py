"""Sans-io HTTP/1.x wire codec.

The parser is transport-agnostic (in the spirit of h11): bytes go in via
:meth:`HttpParser.receive_data`, protocol events come out of
:meth:`HttpParser.next_event`. Both the simulated transport and the real
socket transport drive this same state machine, so the protocol logic is
tested once and reused everywhere.

Events emitted:

* a :class:`~repro.http.messages.Request` or
  :class:`~repro.http.messages.Response` (head only, ``body=b""``);
* :class:`Data` — one chunk of body bytes;
* :class:`EndOfMessage` — the message body is complete;
* :data:`NEED_DATA` — feed more bytes;
* :data:`CONNECTION_CLOSED` — clean EOF between messages.

Supported framing: ``Content-Length``, ``Transfer-Encoding: chunked``,
bodyless statuses/methods, and read-until-EOF responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional, Union

from collections import deque

from repro.bytequeue import ByteQueue
from repro.errors import HttpParseError, HttpProtocolError
from repro.http.headers import Headers
from repro.http.messages import BODYLESS_METHODS, Request, Response
from repro.http.status import allows_body

__all__ = [
    "NEED_DATA",
    "CONNECTION_CLOSED",
    "Data",
    "EndOfMessage",
    "HttpParser",
    "BodyCollector",
    "MAX_PREALLOCATED_BODY",
    "gather_request",
    "serialize_request",
    "gather_response",
    "serialize_response",
    "serialize_response_head",
    "encode_chunk",
    "encode_last_chunk",
]

#: The parser needs more bytes before it can emit the next event.
NEED_DATA = "NEED_DATA"
#: The peer closed the connection cleanly between messages.
CONNECTION_CLOSED = "CONNECTION_CLOSED"

MAX_HEAD_BYTES = 65536
#: The largest declared ``Content-Length`` a :class:`BodyCollector`
#: preallocates; a larger declaration is collected as chunks plus one
#: join, so a peer's head alone never makes us allocate more than this.
MAX_PREALLOCATED_BODY = 64 << 20
CRLF = b"\r\n"
HEAD_TERMINATOR = b"\r\n\r\n"


@dataclass(frozen=True)
class Data:
    """A chunk of message-body bytes."""

    data: bytes


@dataclass(frozen=True)
class EndOfMessage:
    """The current message's body is complete."""


Event = Union[str, Request, Response, Data, EndOfMessage]

# Parser states
_IDLE = "IDLE"
_BODY_LENGTH = "BODY_LENGTH"
_BODY_CHUNK_HEADER = "BODY_CHUNK_HEADER"
_BODY_CHUNK_DATA = "BODY_CHUNK_DATA"
_BODY_CHUNK_TRAILER = "BODY_CHUNK_TRAILER"
_BODY_EOF = "BODY_EOF"
_CLOSED = "CLOSED"


class HttpParser:
    """Incremental HTTP/1.x message parser.

    ``role="server"`` parses requests; ``role="client"`` parses
    responses. A client must announce each request it sent with
    :meth:`expect_response_to` so bodyless responses (HEAD, 204, 304)
    are framed correctly — the queue also makes the parser
    pipelining-safe.
    """

    def __init__(self, role: str):
        if role not in ("client", "server"):
            raise ValueError(f"bad role {role!r}")
        self.role = role
        self._queue = ByteQueue()
        self._eof = False
        self._state = _IDLE
        self._remaining = 0
        self._body_length: Optional[int] = None
        self._pending_methods: Deque[str] = deque()

    # -- input -------------------------------------------------------------

    def receive_data(self, data: bytes) -> None:
        """Feed bytes from the transport; ``b""`` means EOF."""
        if not data:
            self._eof = True
            return
        if self._eof:
            raise HttpParseError("data received after EOF")
        self._queue.append(data)

    def expect_response_to(self, method: str) -> None:
        """Register an outgoing request's method (client role only)."""
        if self.role != "client":
            raise HttpProtocolError("only clients expect responses")
        self._pending_methods.append(method.upper())

    @property
    def body_length(self) -> Optional[int]:
        """The declared length of the current message's body: its
        ``Content-Length`` (0 when it has none), ``None`` for a chunked
        or read-until-EOF body."""
        return self._body_length

    # -- output ------------------------------------------------------------

    def next_event(self) -> Event:
        """Return the next protocol event or :data:`NEED_DATA`."""
        if self._remaining:
            # Inside a sized body or chunk: the body bytes of one
            # received buffer, which is handed over as the object it
            # is when it holds nothing else, else as one slice.
            data = self._queue.read(self._remaining)
            if data:
                self._remaining -= len(data)
                return Data(data)
            if not self._eof:
                return NEED_DATA
            if self._state == _BODY_CHUNK_DATA:
                raise HttpParseError("EOF inside chunk data")
            raise HttpParseError(
                f"EOF with {self._remaining} body bytes missing"
            )
        if self._state == _IDLE:
            return self._parse_head()
        if self._state == _BODY_LENGTH:  # and all of it handed over
            self._state = _IDLE
            return EndOfMessage()
        if self._state == _BODY_CHUNK_HEADER:
            return self._parse_chunk_header()
        if self._state == _BODY_CHUNK_DATA:
            return self._parse_chunk_end()
        if self._state == _BODY_CHUNK_TRAILER:
            return self._parse_chunk_trailer()
        if self._state == _BODY_EOF:
            return self._parse_eof_body()
        if self._state == _CLOSED:
            return CONNECTION_CLOSED
        raise AssertionError(f"bad state {self._state}")

    # -- head parsing ---------------------------------------------------------

    def _parse_head(self) -> Event:
        end = self._queue.find(HEAD_TERMINATOR)
        if end < 0:
            if len(self._queue) > MAX_HEAD_BYTES:
                raise HttpParseError("header block too large")
            if not self._eof:
                return NEED_DATA
            if self._queue:
                raise HttpParseError("EOF inside message head")
            self._state = _CLOSED
            return CONNECTION_CLOSED

        # The terminator's two empty lines are skipped with the rest.
        lines = self._queue.take(end + len(HEAD_TERMINATOR)).split(CRLF)
        start_line = lines[0].decode("ascii", "replace")
        headers = self._parse_header_lines(lines[1:])

        if self.role == "server":
            message = self._build_request(start_line, headers)
            self._setup_request_body(message)
        else:
            message = self._build_response(start_line, headers)
            self._setup_response_body(message)
        # A sized (or empty) body is all in ``_remaining`` now.
        self._body_length = (
            self._remaining if self._state == _BODY_LENGTH else None
        )
        return message

    @staticmethod
    def _parse_header_lines(lines: List[bytes]) -> Headers:
        headers = Headers()
        for raw in lines:
            if not raw:
                continue
            if raw[:1] in (b" ", b"\t"):
                raise HttpParseError("obsolete header folding not supported")
            name, sep, value = raw.partition(b":")
            if not sep:
                raise HttpParseError(f"malformed header line {raw!r}")
            headers.add(
                name.decode("ascii", "replace").strip(),
                value.decode("ascii", "replace").strip(),
            )
        return headers

    @staticmethod
    def _build_request(start_line: str, headers: Headers) -> Request:
        parts = start_line.split(" ")
        if len(parts) != 3:
            raise HttpParseError(f"malformed request line {start_line!r}")
        method, target, version = parts
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise HttpParseError(f"unsupported version {version!r}")
        return Request(
            method=method, target=target, headers=headers, version=version
        )

    @staticmethod
    def _build_response(start_line: str, headers: Headers) -> Response:
        parts = start_line.split(" ", 2)
        if len(parts) < 2:
            raise HttpParseError(f"malformed status line {start_line!r}")
        version = parts[0]
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise HttpParseError(f"unsupported version {version!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise HttpParseError(f"non-numeric status in {start_line!r}")
        reason = parts[2] if len(parts) > 2 else ""
        return Response(
            status=status, headers=headers, reason=reason, version=version
        )

    # -- body framing -----------------------------------------------------------

    def _setup_request_body(self, request: Request) -> None:
        if request.headers.contains_token("Transfer-Encoding", "chunked"):
            self._state = _BODY_CHUNK_HEADER
            return
        length = request.headers.get_int("Content-Length")
        if length:
            self._remaining = length
            self._state = _BODY_LENGTH
        else:
            self._finish_body()

    def _setup_response_body(self, response: Response) -> None:
        method = (
            self._pending_methods.popleft()
            if self._pending_methods
            else "GET"
        )
        if method == "HEAD" or not allows_body(response.status):
            self._finish_body()
            return
        if response.headers.contains_token("Transfer-Encoding", "chunked"):
            self._state = _BODY_CHUNK_HEADER
            return
        length = response.headers.get_int("Content-Length")
        if length is None:
            self._state = _BODY_EOF
        elif length == 0:
            self._finish_body()
        else:
            self._remaining = length
            self._state = _BODY_LENGTH

    def _finish_body(self) -> None:
        # No body: the next event must be EndOfMessage, then back to IDLE.
        self._state = _BODY_LENGTH
        self._remaining = 0

    # -- body parsing ---------------------------------------------------------

    def _parse_eof_body(self) -> Event:
        if self._queue:
            return Data(self._queue.read(len(self._queue)))
        if self._eof:
            self._state = _CLOSED
            return EndOfMessage()
        return NEED_DATA

    def _parse_chunk_header(self) -> Event:
        end = self._queue.find(CRLF)
        if end < 0:
            if self._eof:
                raise HttpParseError("EOF inside chunk header")
            return NEED_DATA
        line = self._queue.take(end + 2).split(b";", 1)[0].strip()
        try:
            size = int(line, 16)
        except ValueError:
            raise HttpParseError(f"bad chunk size {line!r}")
        if size == 0:
            self._state = _BODY_CHUNK_TRAILER
            return self.next_event()
        self._remaining = size
        self._state = _BODY_CHUNK_DATA
        return self.next_event()

    def _parse_chunk_end(self) -> Event:
        # Consume the CRLF after the chunk payload.
        if len(self._queue) < 2:
            if self._eof:
                raise HttpParseError("EOF after chunk data")
            return NEED_DATA
        if self._queue.take(2) != CRLF:
            raise HttpParseError("chunk data not followed by CRLF")
        self._state = _BODY_CHUNK_HEADER
        return self.next_event()

    def _parse_chunk_trailer(self) -> Event:
        # After the zero chunk: optional trailer lines, then a blank line.
        end = self._queue.find(CRLF)
        if end < 0:
            if self._eof:
                raise HttpParseError("EOF inside chunked trailer")
            return NEED_DATA
        self._queue.take(end + 2)
        if end:
            return self.next_event()  # discard trailer header
        self._state = _IDLE
        return EndOfMessage()


class BodyCollector:
    """The body of one message, received once.

    ``length`` is the parser's :attr:`HttpParser.body_length` for the
    message. A body whose first chunk is all of it is that chunk, so a
    small message is not copied. A sized body of at most
    :data:`MAX_PREALLOCATED_BODY` bytes is copied into one
    ``bytearray(length)`` as it arrives, and that ``bytearray`` is the
    body: its peak is the body, not its chunks plus their join. Any
    other body (chunked, read-until-EOF, or declared larger) is kept
    as its chunks and joined once.
    """

    __slots__ = ("_length", "_buffer", "_filled", "_chunks")

    def __init__(self, length: Optional[int]):
        self._length = length
        self._buffer: Optional[bytearray] = None
        self._filled = 0
        self._chunks: List[bytes] = []

    def add(self, data: bytes) -> None:
        """Take one :class:`Data` event's bytes."""
        buffer = self._buffer
        if buffer is None:
            length = self._length
            if (
                self._chunks
                or length is None
                or len(data) >= length
                or length > MAX_PREALLOCATED_BODY
            ):
                self._chunks.append(data)
                return
            buffer = self._buffer = bytearray(length)
        end = self._filled + len(data)
        # Through a view: a bytearray's own slice assignment would
        # first copy ``data`` into a temporary bytearray.
        memoryview(buffer)[self._filled:end] = data
        self._filled = end

    def body(self):
        """The whole body: ``bytes``, or the ``bytearray`` it was
        received into."""
        if self._buffer is not None:
            return self._buffer
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0]
        return b"".join(chunks)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _serialize_headers(headers: Headers) -> bytes:
    return b"".join(
        f"{name}: {value}\r\n".encode("latin-1")
        for name, value in headers.items()
    )


def gather_request(request: Request) -> List[bytes]:
    """A complete request as ``[head, body]`` to gather-write.

    Their join is :func:`serialize_request`; the body is not copied.
    """
    headers = request.headers.copy()
    if request.body and "Content-Length" not in headers:
        headers.set("Content-Length", len(request.body))
    if (
        not request.body
        and request.method not in BODYLESS_METHODS
        and "Content-Length" not in headers
    ):
        headers.set("Content-Length", 0)
    head = (
        f"{request.method} {request.target} {request.version}\r\n".encode(
            "latin-1"
        )
    )
    return [head + _serialize_headers(headers) + CRLF, request.body]


def serialize_request(request: Request) -> bytes:
    """Serialise a complete request (Content-Length added if needed)."""
    return b"".join(gather_request(request))


def serialize_response_head(
    response: Response, content_length: Optional[int] = None
) -> bytes:
    """Serialise the status line and headers only.

    ``content_length`` (when given and no framing header is present)
    sets the Content-Length header — used when the body is streamed.
    """
    headers = response.headers.copy()
    framed = "Content-Length" in headers or headers.contains_token(
        "Transfer-Encoding", "chunked"
    )
    if not framed and allows_body(response.status):
        length = (
            response.body_length if content_length is None else content_length
        )
        headers.set("Content-Length", length)
    head = (
        f"{response.version} {response.status} {response.reason}\r\n".encode(
            "latin-1"
        )
    )
    return head + _serialize_headers(headers) + CRLF


def gather_response(response: Response) -> List[bytes]:
    """A complete response as a list of buffers to gather-write.

    The join of the list is :func:`serialize_response`; the pieces of
    ``response.pieces`` are passed through as they are.
    """
    head = serialize_response_head(response)
    if response.pieces is None:
        return [head + response.body]
    return [head, *response.pieces]


def serialize_response(response: Response) -> bytes:
    """Serialise a complete response with its body."""
    return b"".join(gather_response(response))


def encode_chunk(data: bytes) -> bytes:
    """One chunk of a chunked body."""
    if not data:
        raise ValueError("use encode_last_chunk() for the final chunk")
    return f"{len(data):x}\r\n".encode("ascii") + data + CRLF


def encode_last_chunk() -> bytes:
    """The terminating zero chunk."""
    return b"0\r\n\r\n"
