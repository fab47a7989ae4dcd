"""XRootD-style binary protocol: frames, request codes, codec.

A simplified but faithful-in-structure rendition of the XRootD wire
protocol (Dorigo et al.): fixed-size request/response headers carrying a
**stream id** that lets many requests be outstanding on one connection
with out-of-order responses — the multiplexing the paper contrasts with
HTTP's request/response lockstep.

Frame layout (big-endian):

* request:  ``streamid:u16  reqid:u16  dlen:u32`` + payload
* response: ``streamid:u16  status:u16 dlen:u32`` + payload
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.bytequeue import Deframer
from repro.errors import XrootdError

__all__ = [
    "KXR_OPEN",
    "KXR_CLOSE",
    "KXR_READ",
    "KXR_READV",
    "KXR_STAT",
    "KXR_PING",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OKSOFAR",
    "ResponseFrame",
    "FrameReader",
    "gather_frame",
    "encode_request",
    "encode_response",
    "encode_open",
    "decode_open",
    "encode_open_reply",
    "decode_open_reply",
    "encode_read",
    "decode_read",
    "encode_readv",
    "decode_readv",
    "gather_readv_reply",
    "encode_readv_reply",
    "decode_readv_reply",
    "encode_close",
    "decode_close",
    "encode_stat",
    "decode_stat_reply",
    "encode_stat_reply",
    "encode_error",
    "decode_error",
]

HEADER = struct.Struct(">HHI")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

# Request ids (mirroring kXR_* numbering style).
KXR_OPEN = 3010
KXR_CLOSE = 3011
KXR_READ = 3013
KXR_READV = 3025
KXR_STAT = 3017
KXR_PING = 3020

STATUS_OK = 0
STATUS_ERROR = 1
#: Partial response: more frames for this stream id follow (used to
#: interleave large responses with other streams, like kXR_oksofar).
STATUS_OKSOFAR = 2

#: Maximum payload accepted in one frame (matches xrootd defaults).
MAX_DLEN = 16 * 1024 * 1024
#: Maximum chunks a server accepts in one readv request.
MAX_READV_CHUNKS = 1024


@dataclass(frozen=True)
class ResponseFrame:
    """A complete response, every ``oksofar`` partial included.

    The payload stays the buffers it arrived in (whole received bursts
    and views of them) until :attr:`payload` is asked for.
    """

    streamid: int
    status: int
    pieces: Sequence[bytes]

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def payload(self) -> bytes:
        return b"".join(self.pieces)


def gather_frame(
    streamid: int, code: int, pieces: Sequence[bytes]
) -> List[bytes]:
    """A frame as ``[header, *pieces]``, for one gather ``Send``.

    ``code`` is the request id or the response status; the join of the
    list is the frame on the wire.
    """
    dlen = sum(map(len, pieces))
    if dlen > MAX_DLEN:
        raise XrootdError(f"payload too large: {dlen}")
    return [HEADER.pack(streamid, code, dlen), *pieces]


def encode_request(streamid: int, reqid: int, payload: bytes = b"") -> bytes:
    """Serialise a request frame."""
    return b"".join(gather_frame(streamid, reqid, (payload,)))


def encode_response(streamid: int, status: int, payload: bytes = b"") -> bytes:
    """Serialise a response frame."""
    return b"".join(gather_frame(streamid, status, (payload,)))


class FrameReader(Deframer):
    """Incremental frame deframer (role-agnostic).

    Feed bytes; :meth:`next_frame` pops ``(streamid, code, payload)``
    triples and :meth:`next_pieces` the same with the payload left as
    the buffers it arrived in. ``code`` is the request id on the server
    side, the status on the client side.
    """

    def __init__(self):
        super().__init__(HEADER, MAX_DLEN, XrootdError)


# -- payload codecs --------------------------------------------------------------


def _unpack(layout: str, payload: bytes, what: str) -> tuple:
    """``struct.unpack`` of a whole payload, failing typed."""
    try:
        return struct.unpack(layout, payload)
    except struct.error:
        raise XrootdError(f"bad {what}") from None


def encode_open(path: str) -> bytes:
    """Open-request payload: length-prefixed path."""
    raw = path.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def decode_open(payload: bytes) -> str:
    """Parse an open/stat request payload into the path."""
    length = int.from_bytes(payload[:2], "big")
    raw = payload[2 : 2 + length]
    if len(payload) < 2 or len(raw) != length:
        raise XrootdError("truncated open payload")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise XrootdError("open path is not UTF-8") from None


def encode_open_reply(fhandle: int, size: int) -> bytes:
    """Open reply payload: file handle + size."""
    return struct.pack(">IQ", fhandle, size)


def decode_open_reply(payload: bytes) -> Tuple[int, int]:
    """Parse an open reply into (handle, size)."""
    return _unpack(">IQ", payload, "open reply")


def encode_read(fhandle: int, offset: int, length: int) -> bytes:
    """Read request payload: handle, offset, length."""
    return struct.pack(">IQI", fhandle, offset, length)


def decode_read(payload: bytes) -> Tuple[int, int, int]:
    """Parse a read request into (handle, offset, length)."""
    return _unpack(">IQI", payload, "read request")


def encode_readv(chunks: List[Tuple[int, int, int]]) -> bytes:
    """chunks: list of (fhandle, offset, length)."""
    out = struct.pack(">H", len(chunks))
    for fhandle, offset, length in chunks:
        out += struct.pack(">IQI", fhandle, offset, length)
    return out


def decode_readv(payload: bytes) -> List[Tuple[int, int, int]]:
    """Parse a readv request into (handle, offset, length) triples."""
    count = int.from_bytes(payload[:2], "big")
    entry = struct.Struct(">IQI")
    expected = 2 + count * entry.size
    if len(payload) != expected:  # a payload below two bytes included
        raise XrootdError(
            f"readv payload size {len(payload)} != expected {expected}"
        )
    return [
        entry.unpack_from(payload, 2 + i * entry.size)
        for i in range(count)
    ]


def gather_readv_reply(lengths: Sequence[int], items: Sequence) -> list:
    """The readv reply layout as a list: a u16 count, then for every
    chunk its u32 length and ``items[i]`` as given — the chunk's bytes,
    or what stands for them in a reply still to be read (the server
    plans with spans)."""
    out = [_U16.pack(len(lengths))]
    for length, item in zip(lengths, items):
        out.append(_U32.pack(length))
        out.append(item)
    return out


def encode_readv_reply(pieces: List[bytes]) -> bytes:
    """Length-prefixed concatenation of the readv result chunks."""
    return b"".join(gather_readv_reply(list(map(len, pieces)), pieces))


def _across(buf, pos: int, rest, count: int):
    """Cut ``count`` bytes that start at ``buf[pos]`` and may end in a
    later buffer of the iterator ``rest``: one join of views. Returns
    the bytes, and the buffer and position the cut ended at."""
    views = []
    while True:
        view = memoryview(buf)[pos : pos + count]
        views.append(view)
        pos += len(view)
        count -= len(view)
        if not count:
            return b"".join(views), buf, pos
        buf = next(rest, None)
        if buf is None:
            raise XrootdError("truncated readv reply")
        pos = 0


def decode_readv_reply(payload) -> List[bytes]:
    """Parse a readv reply into its data chunks.

    ``payload`` is the reply as one buffer, or as the list of buffers
    it arrived in (:attr:`ResponseFrame.pieces`), which is never
    joined: a chunk that lies inside one buffer is one slice of it, a
    chunk across several is one join of views.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    rest = iter(payload)
    buf, pos = next(rest, b""), 2
    if len(buf) >= 2:
        (count,) = _U16.unpack_from(buf)
    else:
        raw, buf, pos = _across(buf, 0, rest, 2)
        (count,) = _U16.unpack(raw)
    pieces = []
    for _ in range(count):
        if pos + 4 <= len(buf):
            (length,) = _U32.unpack_from(buf, pos)
            end = pos + 4 + length
            if end <= len(buf):  # the whole chunk lies inside this buffer
                piece = buf[pos + 4 : end]
                if type(piece) is not bytes:  # a slice of a view is a view
                    piece = bytes(piece)
                pieces.append(piece)
                pos = end
                continue
        raw, buf, pos = _across(buf, pos, rest, 4)
        (length,) = _U32.unpack(raw)
        piece, buf, pos = _across(buf, pos, rest, length)
        pieces.append(piece)
    if pos != len(buf) or any(map(len, rest)):
        raise XrootdError("trailing bytes in readv reply")
    return pieces


def encode_close(fhandle: int) -> bytes:
    """Close request payload: the file handle."""
    return struct.pack(">I", fhandle)


def decode_close(payload: bytes) -> int:
    """Parse a close request payload into the handle."""
    return _unpack(">I", payload, "close payload")[0]


def encode_stat(path: str) -> bytes:
    """Stat request payload (same shape as open)."""
    return encode_open(path)


def encode_stat_reply(size: int, is_dir: bool) -> bytes:
    """Stat reply payload: size + directory flag."""
    return struct.pack(">QB", size, 1 if is_dir else 0)


def decode_stat_reply(payload: bytes) -> Tuple[int, bool]:
    """Parse a stat reply into (size, is_directory)."""
    size, flag = _unpack(">QB", payload, "stat reply")
    return size, bool(flag)


def encode_error(code: int, message: str) -> bytes:
    """Error payload: numeric code + UTF-8 message."""
    raw = message.encode("utf-8")
    return struct.pack(">I", code) + raw


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Parse an error payload into (code, message)."""
    if len(payload) < 4:
        raise XrootdError("bad error payload")
    (code,) = struct.unpack_from(">I", payload)
    return code, payload[4:].decode("utf-8", "replace")
