"""GridFTP-like wire formats: FTP-style control lines, mode-E blocks.

The paper lists GridFTP among the HPC data protocols: "The GridFTPv2
protocol has separated control and data channels and supports multiple
data streams from different data sources." This module provides the two
wire formats that design needs:

* a line-based **control channel** (``SIZE``, ``PASV``, ``RETR``,
  ``QUIT`` with ``NNN message`` replies);
* **mode-E data blocks** — ``flags u8 | offset u64 | length u32 |
  payload`` — which carry out-of-order file extents over any number of
  parallel data channels (the feature that beats per-connection TCP
  window limits).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bytequeue import Deframer
from repro.errors import HttpProtocolError

__all__ = [
    "EOF_FLAG",
    "DataBlock",
    "BlockReader",
    "encode_block",
    "encode_eof",
    "parse_command",
    "format_reply",
    "parse_reply",
]

BLOCK_HEADER = struct.Struct(">BQI")

#: Mode-E end-of-data flag: the sender is done with this channel.
EOF_FLAG = 0x40

#: Block payload cap (GridFTP commonly uses 64 KiB - 1 MiB blocks).
MAX_BLOCK = 1 << 20

CRLF = b"\r\n"


@dataclass(frozen=True)
class DataBlock:
    """One mode-E extent: ``length`` bytes of the file at ``offset``."""

    flags: int
    offset: int
    payload: bytes

    @property
    def eof(self) -> bool:
        return bool(self.flags & EOF_FLAG)


def encode_block(offset: int, payload: bytes, flags: int = 0) -> bytes:
    """Serialise one mode-E data block."""
    if len(payload) > MAX_BLOCK:
        raise HttpProtocolError(f"block too large: {len(payload)}")
    return BLOCK_HEADER.pack(flags, offset, len(payload)) + payload


def encode_eof() -> bytes:
    """The terminating block of one data channel."""
    return BLOCK_HEADER.pack(EOF_FLAG, 0, 0)


class BlockReader(Deframer):
    """Incremental mode-E deframer."""

    def __init__(self):
        super().__init__(BLOCK_HEADER, MAX_BLOCK, HttpProtocolError)

    def next_block(self) -> Optional[DataBlock]:
        """Pop the next complete block, or None."""
        frame = self.next_frame()
        return None if frame is None else DataBlock(*frame)


# -- control channel -----------------------------------------------------------


def parse_command(line: bytes) -> Tuple[str, List[str]]:
    """Split a control line into (VERB, args)."""
    parts = line.decode("utf-8", "replace").strip().split()
    if not parts:
        raise HttpProtocolError("empty control command")
    return parts[0].upper(), parts[1:]


def format_reply(code: int, message: str) -> bytes:
    """``NNN message\\r\\n`` control reply."""
    return f"{code} {message}".encode("utf-8") + CRLF


def parse_reply(line: bytes) -> Tuple[int, str]:
    """Parse a control reply into (code, message)."""
    text = line.decode("utf-8", "replace").strip()
    code_text, _, message = text.partition(" ")
    try:
        code = int(code_text)
    except ValueError:
        raise HttpProtocolError(f"bad control reply {text!r}") from None
    return code, message
