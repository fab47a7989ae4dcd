"""SPDY-like framing: multiplexed HTTP streams over one connection.

Section 2.2 of the paper examines SPDY as the fix for HTTP's missing
multiplexing: "It supports multiplexing, prioritization and header
compression" but "explicitly enforces the usage of SSL/TLS". This
module implements the *behaviourally relevant* subset so the trade-off
can be measured against davix's connection pool:

* frames: ``streamid u32 | type u8 | flags u8 | length u32 | payload``;
* HEADERS frames carry a request or response head (compact key/value
  encoding, zlib-compressed — SPDY's header compression);
* DATA frames carry body chunks; FLAG_FIN closes a stream;
* any number of streams interleave on one connection.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bytequeue import Deframer
from repro.errors import HttpProtocolError
from repro.http import Headers

__all__ = [
    "TYPE_HEADERS",
    "TYPE_DATA",
    "FLAG_FIN",
    "Frame",
    "FrameReader",
    "encode_frame",
    "encode_request_head",
    "decode_request_head",
    "encode_response_head",
    "decode_response_head",
]

HEADER = struct.Struct(">IBBI")

TYPE_HEADERS = 1
TYPE_DATA = 2

FLAG_FIN = 0x01

#: Frame payload cap: large bodies must be chunked, which is what lets
#: streams interleave.
MAX_FRAME_PAYLOAD = 262_144


@dataclass(frozen=True)
class Frame:
    streamid: int
    type: int
    flags: int
    payload: bytes

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)


def encode_frame(
    streamid: int, frame_type: int, payload: bytes = b"", flags: int = 0
) -> bytes:
    """Serialise one frame (header + payload)."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise HttpProtocolError(
            f"frame payload {len(payload)} exceeds cap"
        )
    return HEADER.pack(streamid, frame_type, flags, len(payload)) + payload


class FrameReader(Deframer):
    """Incremental deframer."""

    def __init__(self):
        super().__init__(HEADER, MAX_FRAME_PAYLOAD, HttpProtocolError)

    def next_frame(self) -> Optional[Frame]:
        frame = super().next_frame()
        return None if frame is None else Frame(*frame)


# -- header blocks -----------------------------------------------------------------


def _encode_kv(pairs: List[Tuple[str, str]]) -> bytes:
    out = [struct.pack(">H", len(pairs))]
    for name, value in pairs:
        raw_name = name.encode("utf-8")
        raw_value = value.encode("utf-8")
        out.append(struct.pack(">H", len(raw_name)))
        out.append(raw_name)
        out.append(struct.pack(">I", len(raw_value)))
        out.append(raw_value)
    # SPDY's header compression.
    return zlib.compress(b"".join(out), 6)


def _decode_kv(blob: bytes) -> List[Tuple[str, str]]:
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise HttpProtocolError(f"bad header block: {exc}") from exc
    pairs = []
    try:
        (count,) = struct.unpack_from(">H", raw)
        cursor = 2
        for _ in range(count):
            (name_length,) = struct.unpack_from(">H", raw, cursor)
            cursor += 2
            name = raw[cursor : cursor + name_length].decode("utf-8")
            cursor += name_length
            (value_length,) = struct.unpack_from(">I", raw, cursor)
            cursor += 4
            value = raw[cursor : cursor + value_length].decode("utf-8")
            cursor += value_length
            pairs.append((name, value))
    except (struct.error, UnicodeDecodeError) as exc:
        raise HttpProtocolError(f"bad header block: {exc}") from None
    if cursor > len(raw):  # the last length ran past the end
        raise HttpProtocolError("truncated header block")
    return pairs


def encode_request_head(
    method: str, target: str, headers: Headers
) -> bytes:
    """Compress a request head into a HEADERS payload."""
    pairs = [(":method", method), (":path", target)]
    pairs.extend(headers.items())
    return _encode_kv(pairs)


def decode_request_head(blob: bytes) -> Tuple[str, str, Headers]:
    """Parse a HEADERS payload into (method, target, headers)."""
    method = ""
    target = ""
    headers = Headers()
    for name, value in _decode_kv(blob):
        if name == ":method":
            method = value
        elif name == ":path":
            target = value
        else:
            headers.add(name, value)
    if not method or not target:
        raise HttpProtocolError("request head without :method/:path")
    return method, target, headers


def encode_response_head(status: int, headers: Headers) -> bytes:
    """Compress a response head into a HEADERS payload."""
    pairs = [(":status", str(status))]
    pairs.extend(headers.items())
    return _encode_kv(pairs)


def decode_response_head(blob: bytes) -> Tuple[int, Headers]:
    """Parse a HEADERS payload into (status, headers)."""
    status = None
    headers = Headers()
    for name, value in _decode_kv(blob):
        if name == ":status":
            try:
                status = int(value)
            except ValueError:
                raise HttpProtocolError(f"bad :status {value!r}") from None
        else:
            headers.add(name, value)
    if status is None:
        raise HttpProtocolError("response head without :status")
    return status, headers
