"""``multipart/byteranges`` encoding and decoding (RFC 7233 appendix A).

A 206 response to a multi-range request carries each satisfied range as
one body part, delimited by a boundary, each part prefixed with its own
``Content-Type`` and ``Content-Range`` headers. This is the wire format
behind davix's vectored reads.
"""

from __future__ import annotations

import re
import secrets
from typing import List, NamedTuple, Sequence, Tuple

from repro.bytequeue import ByteQueue
from repro.errors import HttpParseError
from repro.http.headers import Headers
from repro.http.ranges import parse_content_range

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
_HEAD_END = b"\r\n\r\n"

#: Smallest part payload :func:`gather_byteranges` leaves as a buffer of
#: its own. Below it, the copy into a joined buffer costs less than
#: carrying one more buffer through the send path.
GATHER_MIN = 16 * 1024

#: The part head :func:`gather_byteranges` writes, read in one match;
#: any other head goes through :func:`_part_range`.
_CANONICAL_HEAD = re.compile(
    rb"Content-Type: [^\r\n]*\r\n"
    rb"Content-Range: bytes ([0-9]+)-([0-9]+)/([0-9]+)\r\n\r\n"
)


class RangePart(NamedTuple):
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
    """A random, unguessable boundary token.

    Nothing checks that the data lacks it, and nothing need: the
    decoders read each part by its ``Content-Range`` length."""
    return "byterange_" + secrets.token_hex(12)


def gather_byteranges(
    parts: Sequence[Tuple[int, bytes, int]],
    boundary: str,
    content_type: str = "application/octet-stream",
) -> List[bytes]:
    """A multipart/byteranges body as a list of buffers to gather-write.

    ``parts`` are ``(offset, data, total)`` triples, such as
    :class:`RangePart` s. The join of the list is the body. A part's
    data of at least ``GATHER_MIN`` bytes stands alone, as the object
    it came in, so a large payload is never copied into a body buffer;
    everything smaller (delimiters, part headers, small parts) is
    joined with its neighbours, so a response of many small parts is
    one buffer.
    """
    if not parts:
        raise ValueError("multipart body needs at least one part")
    head = f"--{boundary}\r\nContent-Type: {content_type}\r\n".encode("ascii")
    head += b"Content-Range: bytes %d-%d/%d\r\n\r\n"
    pieces: List[bytes] = []
    run: List[bytes] = []  # small neighbours awaiting their join
    for offset, data, total in parts:
        length = len(data)
        run.append(head % (offset, offset + length - 1, total))
        if length >= GATHER_MIN:
            pieces.append(b"".join(run))
            pieces.append(data)
            run = []
        else:
            run.append(data)
        run.append(_CRLF)
    run.append(f"--{boundary}--\r\n".encode("ascii"))
    pieces.append(b"".join(run))
    return pieces


def encode_byteranges(
    parts: Sequence[Tuple[int, bytes, int]],
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

    The buffered counterpart of :class:`MultipartStream`, and the
    reference it is tested against. With ``copy=False`` each part's
    ``data`` is a zero-copy ``memoryview`` slice over ``body``; the
    default materialises ``bytes`` per part. Raises
    :class:`HttpParseError` on structural violations.
    """
    delim = f"--{boundary}".encode("ascii")
    source = body if copy else memoryview(body)
    # A preamble before the first delimiter is legal and ignored.
    cursor = body.find(delim)
    if cursor < 0:
        raise HttpParseError("multipart body without boundary")
    parts: List[RangePart] = []
    while not body.startswith(b"--", cursor + len(delim)):
        if not body.startswith(delim, cursor):
            raise HttpParseError("misaligned multipart delimiter")
        cursor += len(delim) + 2
        if not body.startswith(_CRLF, cursor - 2):
            raise HttpParseError("delimiter not followed by CRLF")
        header_end = body.find(_HEAD_END, cursor)
        if header_end < 0:
            raise HttpParseError("part headers not terminated")
        offset, length, total = _part_range(body[cursor:header_end])
        cursor = header_end + 4 + length
        data = source[cursor - length : cursor]
        if len(data) != length:
            raise HttpParseError(
                f"truncated part: expected {length} bytes, got {len(data)}"
            )
        if not body.startswith(_CRLF, cursor):
            raise HttpParseError("part data not followed by CRLF")
        cursor += 2
        parts.append(RangePart(offset, data, total))
    if not body.startswith(delim, cursor):
        raise HttpParseError("misaligned multipart delimiter")
    return parts


_SEEK, _DELIM, _HEAD, _DATA, _DONE = range(5)


class MultipartStream:
    """Incremental multipart/byteranges decoder (sans-io).

    Feed body chunks as they arrive off the wire; completed
    :class:`RangePart` objects accumulate in :attr:`parts` as soon as
    their bytes are in hand, so decode overlaps the transfer and the
    body is never joined. Each chunk is scanned in place: per part a
    ``startswith`` for the delimiter, one match of the canonical head
    and one slice of the data. Only a delimiter, head or part that
    straddles two chunks takes the :class:`~repro.bytequeue.ByteQueue`
    and one join.

    Grammar and error behaviour match :func:`decode_byteranges`
    exactly; :meth:`close` raises :class:`HttpParseError` when the
    stream ends before the closing delimiter.
    """

    def __init__(self, boundary: str):
        self._delim = f"--{boundary}".encode("ascii")
        self._queue = ByteQueue()  # fed bytes not yet consumed
        self._state = _SEEK
        self._pending = None  # (offset, length, total) of the open part
        self.parts: List[RangePart] = []

    @property
    def done(self) -> bool:
        """Has the closing delimiter been consumed?"""
        return self._state == _DONE

    def feed(self, chunk: bytes) -> None:
        """Consume one body chunk, emitting any parts it completes."""
        state = self._state
        if state == _DONE:
            return  # epilogue after the closing delimiter is ignored
        queue = self._queue
        queue.append(chunk)
        delim = self._delim
        size = len(delim)
        if state == _SEEK:
            # A preamble is legal and ignored; keep only enough tail
            # to recognise a delimiter split across chunks.
            start = queue.find(delim)
            if start < 0:
                queue.cut(max(0, len(queue) - size))
                return
            queue.cut(start)
            state = _DELIM
        parts = self.parts
        # Each step reads ``buf`` in place from ``pos``; the queue has
        # consumed it up to ``base``.
        buf, pos = queue.front()
        base = pos
        while True:  # one turn is one delimiter, head or part's data
            if state == _DATA:
                offset, need, total = self._pending
                if pos + need <= len(buf):
                    data = buf[pos : pos + need]
                    parts.append(RangePart(offset, data, total))
                    pos += need
                    state = _DELIM
                    continue
            elif state == _DELIM:
                # The CRLF ending the previous part's data, "--boundary",
                # then CRLF to open a part or "--" to close the body.
                lead = 2 if parts else 0
                need = lead + size + 2
                if pos + need <= len(buf):
                    if lead and not buf.startswith(_CRLF, pos):
                        raise HttpParseError("part data not followed by CRLF")
                    if not buf.startswith(delim, pos + lead):
                        raise HttpParseError("misaligned multipart delimiter")
                    pos += need
                    if buf.startswith(b"--", pos - 2):
                        queue.clear()
                        self._state = _DONE
                        return
                    if not buf.startswith(_CRLF, pos - 2):
                        raise HttpParseError("delimiter not followed by CRLF")
                    state = _HEAD
                    continue
            else:  # _HEAD: the canonical head in one match, any other
                # through the general grammar
                head = _CANONICAL_HEAD.match(buf, pos)
                if head is not None:
                    first, last = int(head[1]), int(head[2])
                if head is not None and first <= last:
                    self._pending = (first, last - first + 1, int(head[3]))
                    pos = head.end()
                    state = _DATA
                    continue
                end = buf.find(_HEAD_END, pos)
                if end >= 0:
                    self._pending = _part_range(buf[pos:end])
                    pos = end + 4
                    state = _DATA
                    continue
            # The step straddles the end of ``buf``: the queue steps in.
            if pos > base:
                queue.cut(pos - base)
            if state == _HEAD:
                if queue.find(_HEAD_END) < 0:  # joins, once
                    break
            elif len(queue) < need:
                break
            buf, pos = queue.front()
            base = pos
            if state != _HEAD and pos + need > len(buf):
                # One join, and the step is all of it: a part's data is
                # the joined bytes themselves.
                buf, pos, base = queue.take(need), 0, need
        self._state = state

    def close(self) -> List[RangePart]:
        """Signal end-of-body; returns the decoded parts.

        Raises :class:`HttpParseError` when the body ended mid-part or
        before the closing delimiter — the same truncation errors the
        buffered decoder raises.
        """
        if self._state != _DONE:
            if self._state == _DATA:
                raise HttpParseError("truncated part: body ended early")
            if self._state == _HEAD:
                raise HttpParseError("part headers not terminated")
            raise HttpParseError("multipart body without terminator")
        return self.parts


def _part_range(block: bytes) -> Tuple[int, int, int]:
    """``(offset, length, total)`` of a part from its header block: the
    general grammar, for any head that is not the canonical one."""
    headers = Headers()
    for line in block.split(_CRLF):
        if not line:
            continue
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpParseError(f"malformed part header line {line!r}")
        headers.add(
            name.decode("ascii", "replace").strip(),
            value.decode("ascii", "replace").strip(),
        )
    content_range = headers.get("Content-Range")
    if content_range is None:
        raise HttpParseError("part without Content-Range")
    offset, length, total = parse_content_range(content_range)
    if total is None:
        raise HttpParseError("part Content-Range without total size")
    return offset, length, total
