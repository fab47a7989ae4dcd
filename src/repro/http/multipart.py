"""``multipart/byteranges`` encoding and decoding (RFC 7233 appendix A).

A 206 response to a multi-range request carries each satisfied range as
one body part, delimited by a boundary, each part prefixed with its own
``Content-Type`` and ``Content-Range`` headers. This is the wire format
behind davix's vectored reads.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import List, Sequence

from repro.bytequeue import ByteQueue
from repro.errors import HttpParseError
from repro.http.headers import Headers
from repro.http.ranges import format_content_range, parse_content_range

__all__ = [
    "RangePart",
    "MultipartStream",
    "make_boundary",
    "gather_byteranges",
    "encode_byteranges",
    "decode_byteranges",
    "content_type_boundary",
]

_CRLF = b"\r\n"

#: Smallest part payload :func:`gather_byteranges` leaves as a buffer of
#: its own. Below it, the copy into a joined buffer costs less than
#: carrying one more buffer through the send path.
GATHER_MIN = 16 * 1024


@dataclass(frozen=True)
class RangePart:
    """One part of a multipart/byteranges payload.

    ``data`` is ``bytes`` from :class:`MultipartStream` and the default
    ``decode_byteranges``, and a zero-copy ``memoryview`` from
    ``decode_byteranges(..., copy=False)``.
    """

    offset: int
    data: bytes
    total: int  # size of the full representation

    @property
    def length(self) -> int:
        return len(self.data)


def make_boundary() -> str:
    """A random boundary token (unguessable, never appears in data *by
    construction of the encoder*, which validates)."""
    return "byterange_" + secrets.token_hex(12)


def gather_byteranges(
    parts: Sequence[RangePart],
    boundary: str,
    content_type: str = "application/octet-stream",
) -> List[bytes]:
    """A multipart/byteranges body as a list of buffers to gather-write.

    The join of the list is the body. A part's data of at least
    ``GATHER_MIN`` bytes stands alone, as the object it came in, so a
    large payload is never copied into a body buffer; everything
    smaller (delimiters, part headers, small parts) is joined with its
    neighbours, so a response of many small parts is one buffer.
    """
    if not parts:
        raise ValueError("multipart body needs at least one part")
    head = f"--{boundary}\r\nContent-Type: {content_type}\r\nContent-Range: "
    pieces: List[bytes] = []
    run: List[bytes] = []  # small neighbours awaiting their join
    for part in parts:
        content_range = format_content_range(
            part.offset, part.length, part.total
        )
        run.append(f"{head}{content_range}\r\n\r\n".encode("ascii"))
        if part.length >= GATHER_MIN:
            pieces.append(b"".join(run))
            pieces.append(part.data)
            run = []
        else:
            run.append(part.data)
        run.append(_CRLF)
    run.append(f"--{boundary}--\r\n".encode("ascii"))
    pieces.append(b"".join(run))
    return pieces


def encode_byteranges(
    parts: Sequence[RangePart],
    boundary: str,
    content_type: str = "application/octet-stream",
) -> bytes:
    """Serialise parts into a multipart/byteranges body."""
    return b"".join(gather_byteranges(parts, boundary, content_type))


def content_type_boundary(content_type: str) -> str:
    """Extract the boundary parameter from a multipart Content-Type."""
    media, _, params = content_type.partition(";")
    if media.strip().lower() != "multipart/byteranges":
        raise HttpParseError(
            f"not a multipart/byteranges content type: {content_type!r}"
        )
    for param in params.split(";"):
        name, _, value = param.partition("=")
        if name.strip().lower() == "boundary":
            value = value.strip()
            if value.startswith('"') and value.endswith('"'):
                value = value[1:-1]
            if not value:
                break
            return value
    raise HttpParseError(f"no boundary in content type: {content_type!r}")


def decode_byteranges(
    body: bytes, boundary: str, copy: bool = True
) -> List[RangePart]:
    """Parse a multipart/byteranges body into its parts.

    The buffered counterpart of :class:`MultipartStream`, for a body
    already in hand (the proxy's ingest) and the reference the streamed
    decoder is tested against. With ``copy=False`` each part's ``data``
    is a zero-copy ``memoryview`` slice over ``body``; the default
    materialises ``bytes`` per part.

    Raises :class:`HttpParseError` on structural violations (missing
    terminator, missing Content-Range, truncated part).
    """
    delim = f"--{boundary}".encode("ascii")
    closing = delim + b"--"
    view = memoryview(body) if not copy else None

    # Locate the first delimiter (a preamble is legal and ignored).
    start = body.find(delim)
    if start < 0:
        raise HttpParseError("multipart body without boundary")

    parts: List[RangePart] = []
    cursor = start
    while True:
        if body.startswith(closing, cursor):
            return parts
        if not body.startswith(delim, cursor):
            raise HttpParseError("misaligned multipart delimiter")
        cursor += len(delim)
        if body.startswith(_CRLF, cursor):
            cursor += 2
        else:
            raise HttpParseError("delimiter not followed by CRLF")

        header_end = body.find(_CRLF + _CRLF, cursor)
        if header_end < 0:
            raise HttpParseError("part headers not terminated")
        headers = _parse_part_headers(body[cursor:header_end])
        cursor = header_end + 4

        content_range = headers.get("Content-Range")
        if content_range is None:
            raise HttpParseError("part without Content-Range")
        offset, length, total = parse_content_range(content_range)
        if total is None:
            raise HttpParseError("part Content-Range without total size")

        if view is not None:
            data = view[cursor : cursor + length]
        else:
            data = body[cursor : cursor + length]
        if len(data) != length:
            raise HttpParseError(
                f"truncated part: expected {length} bytes, "
                f"got {len(data)}"
            )
        cursor += length
        if not body.startswith(_CRLF, cursor):
            raise HttpParseError("part data not followed by CRLF")
        cursor += 2
        parts.append(RangePart(offset=offset, data=data, total=total))


class MultipartStream:
    """Incremental multipart/byteranges decoder (sans-io).

    Feed body chunks as they arrive off the wire; completed
    :class:`RangePart` objects accumulate in :attr:`parts` as soon as
    their bytes are in hand, so decode overlaps the transfer and the
    body is never joined. Each part's ``data`` is a ``bytes`` of its
    own, written once: a part that lies wholly inside one chunk is
    sliced out of it, and the chunks of a part that spans several are
    kept as they arrive and joined when the part completes.

    Grammar and error behaviour match :func:`decode_byteranges`
    exactly; :meth:`close` raises :class:`HttpParseError` when the
    stream ends before the closing delimiter.
    """

    _SEEK, _DELIM, _HEADERS, _DATA, _DONE = range(5)

    def __init__(self, boundary: str):
        self._delim = f"--{boundary}".encode("ascii")
        self._closing = self._delim + b"--"
        self._queue = ByteQueue()  # fed bytes not yet consumed
        self._state = self._SEEK
        self._pending = None  # (offset, length, total) of the open part
        self.parts: List[RangePart] = []

    @property
    def done(self) -> bool:
        """Has the closing delimiter been consumed?"""
        return self._state == self._DONE

    def feed(self, chunk: bytes) -> None:
        """Consume one body chunk, emitting any parts it completes."""
        if self._state == self._DONE:
            return  # epilogue after the closing delimiter is ignored
        self._queue.append(chunk)
        self._state = self._advance(self._state)

    def close(self) -> List[RangePart]:
        """Signal end-of-body; returns the decoded parts.

        Raises :class:`HttpParseError` when the body ended mid-part or
        before the closing delimiter — the same truncation errors the
        buffered decoder raises.
        """
        if self._state != self._DONE:
            if self._state == self._DATA:
                raise HttpParseError("truncated part: body ended early")
            if self._state == self._HEADERS:
                raise HttpParseError("part headers not terminated")
            raise HttpParseError("multipart body without terminator")
        return self.parts

    def _advance(self, state: int) -> int:
        """Parse as far as the queue allows; returns the state that
        lacks bytes, to be resumed by the next feed."""
        queue = self._queue
        delim = self._delim
        if state == self._SEEK:
            # A preamble is legal and ignored; keep only enough tail
            # to recognise a delimiter split across chunks.
            start = queue.find(delim)
            if start < 0:
                queue.cut(max(0, len(queue) - len(delim)))
                return state
            queue.cut(start)
            state = self._DELIM
        while True:  # one turn is one part
            if state == self._DATA:
                offset, length, total = self._pending
                if len(queue) < length + 2:
                    return state
                data = queue.take(length)  # one slice, or one join
                if queue.take(2) != _CRLF:
                    raise HttpParseError("part data not followed by CRLF")
                self.parts.append(
                    RangePart(offset=offset, data=data, total=total)
                )
                state = self._DELIM
            if state == self._DELIM:
                # "--boundary\r\n" opens the next part, "--boundary--"
                # closes the body: the token is two bytes past delim.
                if len(queue) < len(delim) + 2:
                    return state
                token = queue.take(len(delim) + 2)
                if token == self._closing:
                    queue.clear()
                    return self._DONE
                if not token.startswith(delim):
                    raise HttpParseError("misaligned multipart delimiter")
                if not token.endswith(_CRLF):
                    raise HttpParseError("delimiter not followed by CRLF")
                state = self._HEADERS
            header_end = queue.find(_CRLF + _CRLF)
            if header_end < 0:
                return state
            headers = _parse_part_headers(queue.take(header_end + 4))
            content_range = headers.get("Content-Range")
            if content_range is None:
                raise HttpParseError("part without Content-Range")
            offset, length, total = parse_content_range(content_range)
            if total is None:
                raise HttpParseError("part Content-Range without total size")
            self._pending = (offset, length, total)
            state = self._DATA


def _parse_part_headers(blob: bytes) -> Headers:
    headers = Headers()
    for line in blob.split(_CRLF):
        if not line:
            continue
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpParseError(f"malformed part header line {line!r}")
        headers.add(
            name.decode("ascii", "replace").strip(),
            value.decode("ascii", "replace").strip(),
        )
    return headers
