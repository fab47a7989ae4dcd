"""Range-request handling: building 200/206/416 responses.

Implements the server half of the paper's Section 2.3: single ranges
answered with ``206`` + ``Content-Range``, multi-ranges with ``206`` +
``multipart/byteranges`` — the wire feature davix's vectored I/O rides
on. A server whose ``max_ranges`` is 1 has no multi-range support,
which exercises the client's fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import HttpProtocolError
from repro.http import (
    Headers,
    gather_byteranges,
    make_boundary,
    parse_range_header,
    resolve_ranges,
)
from repro.http.ranges import format_content_range
from repro.server.objectstore import StoredObject

__all__ = ["plan_range_response", "RangePlan"]


@dataclass
class RangePlan:
    """What the server will send for a (possibly ranged) GET.

    ``status`` is 200, 206 or 416. ``segments`` lists the
    ``(offset, length)`` object reads backing the body. For multi-range
    plans the body comes from :meth:`multipart_pieces` (a gather list)
    or its join, :meth:`build_multipart_body`.
    """

    status: int
    segments: List[Tuple[int, int]]
    headers: Headers
    multipart_boundary: Optional[str] = None

    @property
    def body_bytes(self) -> int:
        """Payload size before multipart framing."""
        return sum([length for _, length in self.segments])

    def multipart_pieces(self, obj: StoredObject) -> List[bytes]:
        """The multipart body as buffers for one gather write."""
        read, size = obj.content.read, obj.size
        parts = [(o, read(o, n), size) for o, n in self.segments]
        return gather_byteranges(
            parts, self.multipart_boundary, obj.content_type
        )

    def build_multipart_body(self, obj: StoredObject) -> bytes:
        return b"".join(self.multipart_pieces(obj))


def plan_range_response(
    obj: StoredObject,
    range_header: Optional[str],
    max_ranges: int = 256,
) -> RangePlan:
    """Decide how to answer a GET for ``obj`` given its Range header.

    Mirrors RFC 7233 server behaviour:

    * no/malformed Range -> 200 with the full representation;
    * nothing satisfiable -> 416 with ``Content-Range: bytes */size``;
    * one satisfiable range -> 206 + ``Content-Range``;
    * several, up to ``max_ranges`` -> 206 + ``multipart/byteranges``;
    * more than ``max_ranges`` satisfiable ranges -> a full 200. This is
      the DoS guard of common server configurations, and with
      ``max_ranges=1`` it is a server without multi-range support — the
      degraded mode davix must detect and handle.
    """
    base = Headers(
        [
            ("Accept-Ranges", "bytes"),
            ("ETag", obj.etag),
        ]
    )

    if range_header is None:
        return _full_plan(obj, base)
    try:
        specs = parse_range_header(range_header)
    except HttpProtocolError:
        # RFC 7233 3.1: a server MAY ignore an invalid Range header.
        return _full_plan(obj, base)

    resolved = resolve_ranges(specs, obj.size)
    if not resolved:
        headers = base.copy()
        headers.set("Content-Range", f"bytes */{obj.size}")
        return RangePlan(416, [], headers)

    if len(resolved) == 1:
        offset, length = resolved[0]
        headers = base.copy()
        headers.set("Content-Type", obj.content_type)
        headers.set(
            "Content-Range", format_content_range(offset, length, obj.size)
        )
        return RangePlan(206, [resolved[0]], headers)

    if len(resolved) > max_ranges:
        return _full_plan(obj, base)

    boundary = make_boundary()
    headers = base.copy()
    headers.set(
        "Content-Type", f"multipart/byteranges; boundary={boundary}"
    )
    return RangePlan(206, resolved, headers, multipart_boundary=boundary)


def _full_plan(obj: StoredObject, base: Headers) -> RangePlan:
    headers = base.copy()
    headers.set("Content-Type", obj.content_type)
    return RangePlan(200, [(0, obj.size)], headers)
