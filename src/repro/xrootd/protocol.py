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
from typing import List, Optional, Tuple

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
    "RequestFrame",
    "ResponseFrame",
    "FrameReader",
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


@dataclass(frozen=True)
class RequestFrame:
    streamid: int
    reqid: int
    payload: bytes


@dataclass(frozen=True)
class ResponseFrame:
    streamid: int
    status: int
    payload: bytes

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def encode_request(streamid: int, reqid: int, payload: bytes = b"") -> bytes:
    """Serialise a request frame."""
    if len(payload) > MAX_DLEN:
        raise XrootdError(f"payload too large: {len(payload)}")
    return HEADER.pack(streamid, reqid, len(payload)) + payload


def encode_response(streamid: int, status: int, payload: bytes = b"") -> bytes:
    """Serialise a response frame."""
    if len(payload) > MAX_DLEN:
        raise XrootdError(f"payload too large: {len(payload)}")
    return HEADER.pack(streamid, status, len(payload)) + payload


class FrameReader:
    """Incremental frame deframer (role-agnostic).

    Feed bytes, pop ``(streamid, code, payload)`` triples. ``code`` is
    the request id on the server side, the status on the client side.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> Optional[Tuple[int, int, bytes]]:
        if len(self._buffer) < HEADER.size:
            return None
        streamid, code, dlen = HEADER.unpack_from(self._buffer)
        if dlen > MAX_DLEN:
            raise XrootdError(f"frame dlen {dlen} exceeds maximum")
        total = HEADER.size + dlen
        if len(self._buffer) < total:
            return None
        with memoryview(self._buffer) as view:
            payload = bytes(view[HEADER.size : total])
        del self._buffer[:total]
        return (streamid, code, payload)

    @property
    def buffered(self) -> int:
        return len(self._buffer)


# -- payload codecs --------------------------------------------------------------


def encode_open(path: str) -> bytes:
    """Open-request payload: length-prefixed path."""
    raw = path.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def decode_open(payload: bytes) -> str:
    """Parse an open/stat request payload into the path."""
    (length,) = struct.unpack_from(">H", payload)
    raw = payload[2 : 2 + length]
    if len(raw) != length:
        raise XrootdError("truncated open payload")
    return raw.decode("utf-8")


def encode_open_reply(fhandle: int, size: int) -> bytes:
    """Open reply payload: file handle + size."""
    return struct.pack(">IQ", fhandle, size)


def decode_open_reply(payload: bytes) -> Tuple[int, int]:
    """Parse an open reply into (handle, size)."""
    try:
        return struct.unpack(">IQ", payload)
    except struct.error:
        raise XrootdError("bad open reply") from None


def encode_read(fhandle: int, offset: int, length: int) -> bytes:
    """Read request payload: handle, offset, length."""
    return struct.pack(">IQI", fhandle, offset, length)


def decode_read(payload: bytes) -> Tuple[int, int, int]:
    """Parse a read request into (handle, offset, length)."""
    try:
        return struct.unpack(">IQI", payload)
    except struct.error:
        raise XrootdError("bad read request") from None


def encode_readv(chunks: List[Tuple[int, int, int]]) -> bytes:
    """chunks: list of (fhandle, offset, length)."""
    out = struct.pack(">H", len(chunks))
    for fhandle, offset, length in chunks:
        out += struct.pack(">IQI", fhandle, offset, length)
    return out


def decode_readv(payload: bytes) -> List[Tuple[int, int, int]]:
    """Parse a readv request into (handle, offset, length) triples."""
    (count,) = struct.unpack_from(">H", payload)
    entry = struct.Struct(">IQI")
    expected = 2 + count * entry.size
    if len(payload) != expected:
        raise XrootdError(
            f"readv payload size {len(payload)} != expected {expected}"
        )
    return [
        entry.unpack_from(payload, 2 + i * entry.size)
        for i in range(count)
    ]


def encode_readv_reply(pieces: List[bytes]) -> bytes:
    """Length-prefixed concatenation of the readv result chunks."""
    out = [struct.pack(">H", len(pieces))]
    for piece in pieces:
        out.append(struct.pack(">I", len(piece)))
        out.append(piece)
    return b"".join(out)


def decode_readv_reply(payload: bytes) -> List[bytes]:
    """Parse a readv reply into its data chunks."""
    (count,) = struct.unpack_from(">H", payload)
    pieces = []
    cursor = 2
    for _ in range(count):
        if cursor + 4 > len(payload):
            raise XrootdError("truncated readv reply")
        (length,) = struct.unpack_from(">I", payload, cursor)
        cursor += 4
        piece = payload[cursor : cursor + length]
        if len(piece) != length:
            raise XrootdError("truncated readv reply chunk")
        pieces.append(piece)
        cursor += length
    if cursor != len(payload):
        raise XrootdError("trailing bytes in readv reply")
    return pieces


def encode_close(fhandle: int) -> bytes:
    """Close request payload: the file handle."""
    return struct.pack(">I", fhandle)


def decode_close(payload: bytes) -> int:
    """Parse a close request payload into the handle."""
    try:
        (fhandle,) = struct.unpack(">I", payload)
    except struct.error:
        raise XrootdError("bad close payload") from None
    return fhandle


def encode_stat(path: str) -> bytes:
    """Stat request payload (same shape as open)."""
    return encode_open(path)


def encode_stat_reply(size: int, is_dir: bool) -> bytes:
    """Stat reply payload: size + directory flag."""
    return struct.pack(">QB", size, 1 if is_dir else 0)


def decode_stat_reply(payload: bytes) -> Tuple[int, bool]:
    """Parse a stat reply into (size, is_directory)."""
    try:
        size, flag = struct.unpack(">QB", payload)
    except struct.error:
        raise XrootdError("bad stat reply") from None
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
