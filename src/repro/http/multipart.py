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

from repro.errors import HttpParseError
from repro.http.headers import Headers
from repro.http.ranges import format_content_range, parse_content_range

__all__ = [
    "RangePart",
    "MultipartStream",
    "make_boundary",
    "encode_byteranges",
    "decode_byteranges",
    "content_type_boundary",
]

_CRLF = b"\r\n"


@dataclass(frozen=True)
class RangePart:
    """One part of a multipart/byteranges payload.

    ``data`` is ``bytes`` from the default decode path and a zero-copy
    ``memoryview`` from ``decode_byteranges(..., copy=False)``.
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


def encode_byteranges(
    parts: Sequence[RangePart],
    boundary: str,
    content_type: str = "application/octet-stream",
) -> bytes:
    """Serialise parts into a multipart/byteranges body."""
    if not parts:
        raise ValueError("multipart body needs at least one part")
    delim = f"--{boundary}".encode("ascii")
    chunks: List[bytes] = []
    for part in parts:
        chunks.append(delim)
        chunks.append(_CRLF)
        chunks.append(f"Content-Type: {content_type}".encode("ascii"))
        chunks.append(_CRLF)
        content_range = format_content_range(
            part.offset, part.length, part.total
        )
        chunks.append(f"Content-Range: {content_range}".encode("ascii"))
        chunks.append(_CRLF)
        chunks.append(_CRLF)
        chunks.append(part.data)
        chunks.append(_CRLF)
    chunks.append(delim + b"--" + _CRLF)
    return b"".join(chunks)


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

    With ``copy=False`` each part's ``data`` is a zero-copy
    ``memoryview`` slice over ``body`` (the vectored-read hot path:
    parts feed a :class:`~repro.core.vectored.PartTable` and no byte is
    copied until scatter materialises the user-facing fragments). The
    default materialises ``bytes`` per part, the historical behaviour.

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
    their bytes are in hand. This lets the transfer engine overlap
    multipart decode with the transfer itself — by the time the last
    chunk lands, every earlier part is already decoded — instead of
    parsing the fully buffered body afterwards.

    Grammar and error behaviour match :func:`decode_byteranges`
    exactly; :meth:`close` raises :class:`HttpParseError` when the
    stream ends before the closing delimiter.
    """

    _SEEK, _DELIM, _HEADERS, _DATA, _DONE = range(5)

    def __init__(self, boundary: str):
        self._delim = f"--{boundary}".encode("ascii")
        self._closing = self._delim + b"--"
        self._buffer = bytearray()
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
        self._buffer.extend(chunk)
        self._advance()

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

    def _advance(self) -> None:
        buf = self._buffer
        while True:
            if self._state == self._SEEK:
                # A preamble is legal and ignored; keep only enough
                # tail to recognise a delimiter split across chunks.
                start = buf.find(self._delim)
                if start < 0:
                    if len(buf) > len(self._delim):
                        del buf[: len(buf) - len(self._delim)]
                    return
                del buf[:start]
                self._state = self._DELIM
            elif self._state == self._DELIM:
                # Need delim + 2 bytes to tell "--boundary\r\n" (next
                # part) apart from "--boundary--" (closing).
                if len(buf) < len(self._delim) + 2:
                    return
                if buf.startswith(self._closing):
                    self._state = self._DONE
                    del buf[:]
                    return
                if not buf.startswith(self._delim + _CRLF):
                    raise HttpParseError("delimiter not followed by CRLF")
                del buf[: len(self._delim) + 2]
                self._state = self._HEADERS
            elif self._state == self._HEADERS:
                header_end = buf.find(_CRLF + _CRLF)
                if header_end < 0:
                    return
                with memoryview(buf) as view:
                    headers = _parse_part_headers(bytes(view[:header_end]))
                del buf[: header_end + 4]
                content_range = headers.get("Content-Range")
                if content_range is None:
                    raise HttpParseError("part without Content-Range")
                offset, length, total = parse_content_range(content_range)
                if total is None:
                    raise HttpParseError(
                        "part Content-Range without total size"
                    )
                self._pending = (offset, length, total)
                self._state = self._DATA
            elif self._state == self._DATA:
                offset, length, total = self._pending
                if len(buf) < length + 2:
                    return
                with memoryview(buf) as view:
                    data = bytes(view[:length])
                if not buf.startswith(_CRLF, length):
                    raise HttpParseError("part data not followed by CRLF")
                del buf[: length + 2]
                self.parts.append(
                    RangePart(offset=offset, data=data, total=total)
                )
                self._pending = None
                self._state = self._DELIM
            else:  # _DONE
                return


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
