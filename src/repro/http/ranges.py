"""HTTP byte-range grammar (RFC 7233).

This module implements the multi-range machinery at the heart of the
paper's Section 2.3: davix packs many scattered fragment reads into one
``Range: bytes=a-b,c-d,...`` header, and the server answers ``206`` with
a ``multipart/byteranges`` body.

Conventions: a :class:`RangeSpec` mirrors the wire grammar (inclusive
first/last positions, either possibly open); a *resolved* range is an
``(offset, length)`` pair against a known resource size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import HttpProtocolError

__all__ = [
    "RangeSpec",
    "parse_range_header",
    "format_range_header",
    "resolve_ranges",
    "merge_spans",
    "plan_chunks",
    "parse_content_range",
    "format_content_range",
]


@dataclass(frozen=True)
class RangeSpec:
    """One range-spec from a ``Range`` header.

    ``first`` and ``last`` are inclusive byte positions. A suffix range
    ("last N bytes") has ``first=None`` and ``last=N``; an open range
    ("from X to end") has ``last=None``.
    """

    first: Optional[int]
    last: Optional[int]

    def __post_init__(self):
        first, last = self.first, self.last
        if first is None and last is None:
            raise HttpProtocolError("range-spec needs at least one bound")
        if (first or 0) < 0 or (last or 0) < 0:
            raise HttpProtocolError(f"negative range position {self}")
        if first is not None and last is not None and last < first:
            raise HttpProtocolError(f"descending range {first}-{last}")

    @classmethod
    def from_offset_length(cls, offset: int, length: int) -> "RangeSpec":
        if length <= 0:
            raise ValueError("length must be > 0")
        return cls(first=offset, last=offset + length - 1)

    def to_header_fragment(self) -> str:
        first = "" if self.first is None else self.first
        return f"{first}-{'' if self.last is None else self.last}"

    def resolve(self, size: int) -> Optional[Tuple[int, int]]:
        """Resolve against a resource of ``size`` bytes.

        Returns ``(offset, length)`` or ``None`` when unsatisfiable.
        """
        if self.first is None:  # suffix: the last N bytes
            length = min(self.last, size)
            return (size - length, length) if length else None
        if self.first >= size:
            return None
        last = size - 1 if self.last is None else min(self.last, size - 1)
        return (self.first, last - self.first + 1)


#: One range-spec, closed ``a-b``, open ``a-`` or suffix ``-n``: ASCII
#: digits only (``int`` alone takes ``+5``, ``1_0``, non-ASCII digits).
_RANGE_SPEC = re.compile(r"[ \t]*([0-9]*)-([0-9]*)[ \t]*")


def parse_range_header(value: str) -> List[RangeSpec]:
    """Parse a ``Range`` header value into specs.

    Raises :class:`HttpProtocolError` on malformed input (the server
    maps this to ignoring the header, per RFC 7233 §3.1).
    """
    value = value.strip()
    if value[:6].lower() != "bytes=":
        raise HttpProtocolError(f"unsupported range unit in {value!r}")
    specs: List[RangeSpec] = []
    for part in value[6:].split(","):
        match = _RANGE_SPEC.fullmatch(part)
        if match is None:
            raise HttpProtocolError(f"malformed range-spec {part!r}")
        first, last = match.groups()
        first = int(first) if first else None
        specs.append(RangeSpec(first, int(last) if last else None))
    return specs


def format_range_header(specs: Sequence[RangeSpec]) -> str:
    """Build a ``Range`` header value from specs."""
    if not specs:
        raise ValueError("cannot format an empty range list")
    return "bytes=" + ",".join(spec.to_header_fragment() for spec in specs)


def resolve_ranges(
    specs: Sequence[RangeSpec], size: int
) -> List[Tuple[int, int]]:
    """Resolve specs against ``size``; drops unsatisfiable members.

    An empty result means *no* spec was satisfiable — the server answers
    416 in that case.
    """
    resolved = []
    for spec in specs:
        first, last = spec.first, spec.last
        if first is not None and last is not None:
            if first < size:
                resolved.append((first, min(last, size - 1) - first + 1))
            continue
        pair = spec.resolve(size)
        if pair is not None:
            resolved.append(pair)
    return resolved


def merge_spans(
    spans: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Sort and merge overlapping/adjacent ``(offset, length)`` spans."""
    merged: List[Tuple[int, int]] = []
    for offset, length in sorted(spans):
        if merged and offset <= merged[-1][0] + merged[-1][1]:
            end = max(merged[-1][0] + merged[-1][1], offset + length)
            merged[-1] = (merged[-1][0], end - merged[-1][0])
        else:
            merged.append((offset, length))
    return merged


def plan_chunks(size: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``size`` bytes into ``(offset, length)`` chunks.

    The one planning rule behind every chunked transfer (multi-stream
    downloads, third-party copy). The final chunk absorbs the remainder
    (it may be a single byte); a zero-length object plans to no chunks
    at all.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (offset, min(chunk_size, size - offset))
        for offset in range(0, size, chunk_size)
    ]


def format_content_range(offset: int, length: int, total: int) -> str:
    """``Content-Range`` value for a satisfied range."""
    return f"bytes {offset}-{offset + length - 1}/{total}"


#: ``bytes first-last/total``, positions ASCII digits, total maybe ``*``.
_CONTENT_RANGE = re.compile(r"bytes ([0-9]+)-([0-9]+)/([0-9]+|\*)")


def parse_content_range(value: str) -> Tuple[int, int, Optional[int]]:
    """Parse ``Content-Range: bytes a-b/total``.

    Returns ``(offset, length, total)`` with ``total=None`` for ``/*``.
    """
    match = _CONTENT_RANGE.fullmatch(value.strip())
    if match is None:
        raise HttpProtocolError(f"malformed Content-Range: {value!r}")
    first_s, last_s, total_s = match.groups()
    first, last = int(first_s), int(last_s)
    if last < first:
        raise HttpProtocolError(f"descending Content-Range: {value!r}")
    return (first, last - first + 1, None if total_s == "*" else int(total_s))
