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
        if self.first is None and self.last is None:
            raise HttpProtocolError("range-spec needs at least one bound")
        if self.first is not None and self.first < 0:
            raise HttpProtocolError("range first-byte must be >= 0")
        if self.last is not None and self.last < 0:
            raise HttpProtocolError("range last-byte must be >= 0")
        if (
            self.first is not None
            and self.last is not None
            and self.last < self.first
        ):
            raise HttpProtocolError(
                f"descending range {self.first}-{self.last}"
            )

    @classmethod
    def from_offset_length(cls, offset: int, length: int) -> "RangeSpec":
        if length <= 0:
            raise ValueError("length must be > 0")
        return cls(first=offset, last=offset + length - 1)

    def to_header_fragment(self) -> str:
        if self.first is None:
            return f"-{self.last}"
        if self.last is None:
            return f"{self.first}-"
        return f"{self.first}-{self.last}"

    def resolve(self, size: int) -> Optional[Tuple[int, int]]:
        """Resolve against a resource of ``size`` bytes.

        Returns ``(offset, length)`` or ``None`` when unsatisfiable.
        """
        if self.first is None:
            # suffix: last N bytes
            if self.last == 0:
                return None
            length = min(self.last, size)
            if length == 0:
                return None
            return (size - length, length)
        if self.first >= size:
            return None
        last = size - 1 if self.last is None else min(self.last, size - 1)
        return (self.first, last - self.first + 1)


def parse_range_header(value: str) -> List[RangeSpec]:
    """Parse a ``Range`` header value into specs.

    Raises :class:`HttpProtocolError` on malformed input (the server
    maps this to ignoring the header, per RFC 7233 §3.1).
    """
    value = value.strip()
    if not value.lower().startswith("bytes="):
        raise HttpProtocolError(f"unsupported range unit in {value!r}")
    specs: List[RangeSpec] = []
    for part in value[len("bytes=") :].split(","):
        part = part.strip()
        if not part:
            raise HttpProtocolError("empty range-spec")
        first_s, sep, last_s = part.partition("-")
        if not sep:
            raise HttpProtocolError(f"range-spec without '-': {part!r}")
        try:
            first = int(first_s) if first_s else None
            last = int(last_s) if last_s else None
        except ValueError:
            raise HttpProtocolError(f"non-numeric range-spec {part!r}")
        specs.append(RangeSpec(first=first, last=last))
    if not specs:
        raise HttpProtocolError("Range header with no range-spec")
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


def parse_content_range(value: str) -> Tuple[int, int, Optional[int]]:
    """Parse ``Content-Range: bytes a-b/total``.

    Returns ``(offset, length, total)`` with ``total=None`` for ``/*``.
    """
    value = value.strip()
    if not value.startswith("bytes "):
        raise HttpProtocolError(f"bad Content-Range unit: {value!r}")
    span, sep, total_s = value[len("bytes ") :].partition("/")
    if not sep:
        raise HttpProtocolError(f"Content-Range without total: {value!r}")
    first_s, sep, last_s = span.partition("-")
    if not sep:
        raise HttpProtocolError(f"bad Content-Range span: {value!r}")
    try:
        first = int(first_s)
        last = int(last_s)
        total = None if total_s.strip() == "*" else int(total_s)
    except ValueError:
        raise HttpProtocolError(f"non-numeric Content-Range: {value!r}")
    if last < first:
        raise HttpProtocolError(f"descending Content-Range: {value!r}")
    return (first, last - first + 1, total)
