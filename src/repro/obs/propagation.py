"""Wire-level trace propagation (W3C ``traceparent`` style).

One request must be one joinable story across both processes: the
client injects a ``Traceparent`` header carrying its trace and span
IDs, the server parses it, and every server-side record (spans, wide
events and the access-log lines folded from them) carries the
client's IDs. The header follows the W3C Trace Context layout::

    00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>

The IDs are the tracer's integers rendered as fixed-width hex, so the
same value appears identically in client spans, server spans and log
records — and seeded simulator runs stay byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "format_trace_id",
    "format_span_id",
    "format_traceparent",
    "parse_traceparent",
    "inject_traceparent",
]

#: Canonical header name (HTTP headers are case-insensitive).
TRACEPARENT_HEADER = "Traceparent"

#: W3C trace-context version this implementation speaks.
_VERSION = "00"
#: Flags byte: "sampled" is always set (we never head-sample).
_FLAGS = "01"


def format_trace_id(trace_id: int) -> str:
    """32-hex-digit rendering of a tracer's integer trace ID."""
    return f"{trace_id & (2**128 - 1):032x}"


def format_span_id(span_id: int) -> str:
    """16-hex-digit rendering of a tracer's integer span ID."""
    return f"{span_id & (2**64 - 1):016x}"


@dataclass(frozen=True)
class TraceContext:
    """The propagated identifiers of one in-flight request."""

    trace_id: int
    span_id: int
    sampled: bool = True

    @property
    def trace_id_hex(self) -> str:
        return format_trace_id(self.trace_id)

    @property
    def span_id_hex(self) -> str:
        return format_span_id(self.span_id)


def format_traceparent(span) -> Optional[str]:
    """The ``traceparent`` value for ``span`` (None for null spans).

    A disabled tracer hands out the shared null span with
    ``trace_id == 0`` — an all-zero trace ID is invalid per the W3C
    grammar, so nothing is injected and the wire stays unchanged.
    """
    if span is None or not getattr(span, "trace_id", 0):
        return None
    return (
        f"{_VERSION}-{format_trace_id(span.trace_id)}"
        f"-{format_span_id(span.span_id)}-{_FLAGS}"
    )


def parse_traceparent(value: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; None on anything malformed.

    Tolerant by design: a server must serve requests whether or not the
    client propagates, and garbage must never break request handling.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_hex, span_hex, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or len(trace_hex) != 32 or len(span_hex) != 16:
        return None
    if len(flags) != 2:
        return None
    try:
        trace_id = int(trace_hex, 16)
        span_id = int(span_hex, 16)
        flag_bits = int(flags, 16)
        int(version, 16)
    except ValueError:
        return None
    if trace_id == 0 or span_id == 0:
        return None  # all-zero IDs are invalid per the W3C grammar
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        sampled=bool(flag_bits & 0x01),
    )


def inject_traceparent(headers, span) -> bool:
    """Set the header on ``headers`` from ``span``; True if injected.

    Uses ``setdefault`` so an application-supplied header wins, and is
    a no-op for null/absent spans.
    """
    value = format_traceparent(span)
    if value is None:
        return False
    headers.setdefault(TRACEPARENT_HEADER, value)
    return True
