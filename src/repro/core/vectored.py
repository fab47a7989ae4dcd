"""Vectored-I/O planning (paper Section 2.3, Figure 3).

Turns a list of scattered fragment reads (what ROOT's TTreeCache emits)
into few HTTP multi-range requests:

1. **coalesce** — sort fragments and merge those whose gap is below a
   threshold (reading a small gap is cheaper than another range-spec);
2. **batch** — split the coalesced ranges into requests of at most
   ``max_ranges`` range-specs each (server DoS guards reject huge
   Range headers);
3. **scatter** — slice each original fragment back out of the returned
   parts, whatever the coalescing did.

The scatter side runs on a :class:`PartTable`: a bisect-indexed table
of ``memoryview`` s over the decoded parts, so the decode → scatter
path copies nothing until the user-facing boundary, where
``scatter_parts`` produces one ``bytes`` per fragment: at most one
copy, and none for a fragment that is a whole part.

All pure functions; the planning invariants are property-tested.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import RequestError

__all__ = [
    "Fragment",
    "CoalescedRange",
    "VectorPlan",
    "PartTable",
    "plan_vector",
    "scatter_parts",
    "missing_ranges",
]

#: Maximum range-specs packed into one multi-range request.
MAX_VECTOR_RANGES = 256


class Fragment(NamedTuple):
    """One requested read: ``length`` bytes at ``offset``.

    ``index`` is the caller's position for result ordering.
    :func:`plan_vector` checks ``offset >= 0`` and ``length > 0``.
    """

    offset: int
    length: int
    index: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class CoalescedRange:
    """A merged contiguous read covering one or more fragments."""

    __slots__ = ("offset", "length", "fragments")

    offset: int
    length: int
    fragments: List[Fragment]

    @property
    def end(self) -> int:
        return self.offset + self.length

    def covers(self, fragment: Fragment) -> bool:
        return (
            self.offset <= fragment.offset
            and fragment.end <= self.end
        )


@dataclass
class VectorPlan:
    """The full plan: batches of coalesced ranges."""

    batches: List[List[CoalescedRange]]
    fragments: List[Fragment]

    @property
    def total_ranges(self) -> int:
        return sum([len(batch) for batch in self.batches])

    @property
    def total_request_bytes(self) -> int:
        """Bytes the server will send (including coalescing overhead)."""
        return sum([rng.length for batch in self.batches for rng in batch])

    @property
    def requested_bytes(self) -> int:
        """Bytes the caller actually asked for."""
        return sum([fragment.length for fragment in self.fragments])


def plan_vector(
    reads: Sequence[Tuple[int, int]],
    max_ranges: int = 256,
    gap: int = 512,
) -> VectorPlan:
    """Build a :class:`VectorPlan` for ``(offset, length)`` reads.

    Overlapping and duplicate reads are legal; order of the input is
    preserved in the scattered results.
    """
    if max_ranges < 1:
        raise ValueError("max_ranges must be >= 1")
    if gap < 0:
        raise ValueError("gap must be >= 0")
    fragments = [
        Fragment(offset, length, index)
        for index, (offset, length) in enumerate(reads)
    ]
    if not fragments:
        return VectorPlan(batches=[], fragments=[])

    # Tuple order is (offset, end) order, ties in input order.
    ordered = sorted(fragments)
    start = end = ordered[0].offset
    if start < 0:
        raise ValueError("fragment offset must be >= 0")
    merged, members = [], []
    for fragment in ordered:
        offset, length, _ = fragment
        if length <= 0:
            raise ValueError("fragment length must be > 0")
        if offset > end + gap:
            merged.append(CoalescedRange(start, end - start, members))
            start, end, members = offset, offset, []
        if offset + length > end:
            end = offset + length
        members.append(fragment)
    merged.append(CoalescedRange(start, end - start, members))

    batches = [
        merged[i : i + max_ranges]
        for i in range(0, len(merged), max_ranges)
    ]
    return VectorPlan(batches=batches, fragments=fragments)


class PartTable:
    """Bisect-indexed table of the parts of one multi-range response.

    Each entry is ``(offset, view)`` where ``view`` is a ``memoryview``
    over a decoded part — adding parts never copies bytes, and
    :meth:`find` returns zero-copy slices. Entries are kept sorted by
    offset so a lookup is O(log n) instead of the linear scan a plain
    ``{offset: bytes}`` dict forces (O(n²) over a whole batch).

    A later part at an already-present offset replaces the entry only
    when it is at least as long (a refetch can only add coverage).

    ``total`` (when the response advertised the object size via
    ``Content-Range``) clips lookups at EOF: a range straddling the end
    of the object resolves to the available prefix — POSIX short-read
    semantics — instead of raising.
    """

    __slots__ = ("_offsets", "_views", "total")

    def __init__(self, total: Optional[int] = None):
        self._offsets: List[int] = []
        self._views: List[memoryview] = []
        self.total = total

    @classmethod
    def from_parts(
        cls,
        parts: Iterable[Tuple[int, bytes]],
        total: Optional[int] = None,
    ) -> "PartTable":
        """Build a table from ``(offset, buffer)`` pairs."""
        table = cls(total=total)
        for offset, data in parts:
            table.add(offset, data)
        return table

    def add(self, offset: int, data) -> None:
        """Insert one part (``bytes`` or ``memoryview``) at ``offset``."""
        view = data if isinstance(data, memoryview) else memoryview(data)
        offsets, views = self._offsets, self._views
        index = len(offsets)  # in-order parts append, without a bisect
        if index and offset <= offsets[-1]:
            index = bisect_right(offsets, offset)
            if index > 0 and offsets[index - 1] == offset:
                if len(view) >= len(views[index - 1]):
                    views[index - 1] = view
                return
        offsets.insert(index, offset)
        views.insert(index, view)

    def merge(self, other: "PartTable") -> None:
        """Fold another table's parts into this one (refetch path)."""
        if other.total is not None:
            self.total = other.total
        for offset, view in zip(other._offsets, other._views):
            self.add(offset, view)

    def __len__(self) -> int:
        return len(self._offsets)

    def find(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of ``[offset, offset+length)``.

        Bisects to the right-most part starting at or before ``offset``
        (the covering part of any disjoint multi-range response); falls
        back to a leftward scan only when parts overlap. A known
        ``total`` clips the span at EOF (short read); otherwise raises
        :class:`~repro.errors.RequestError` when nothing covers the
        span.
        """
        end = offset + length
        if self.total is not None and end > self.total:
            end = max(self.total, offset)
            length = end - offset
        if length <= 0:
            return memoryview(b"")
        index = bisect_right(self._offsets, offset) - 1
        while index >= 0:
            part_offset = self._offsets[index]
            view = self._views[index]
            if part_offset + len(view) >= end:
                start = offset - part_offset
                return view[start : start + length]
            index -= 1
        raise RequestError(
            f"server response does not cover range [{offset}, {end})"
        )

    def read(self, offset: int, length: int) -> bytes:
        """``[offset, offset+length)`` as ``bytes`` (see :meth:`find`):
        the covering part itself when the span is all of it."""
        return _as_bytes(self.find(offset, length))

    def covers(self, offset: int, length: int) -> bool:
        """Does some part fully cover ``[offset, offset+length)``?"""
        try:
            self.find(offset, length)
        except RequestError:
            return False
        return True

    def release(self, offset: int, length: int, pending) -> None:
        """Forget the part :meth:`find` serves ``[offset, offset+length)``
        from, unless a span of the sorted ``(offset, length)`` list
        ``pending`` starts inside it: no other part could serve that."""
        end = offset + length
        if self.total is not None and end > self.total:
            end = max(self.total, offset)
        index = bisect_right(self._offsets, offset) - 1
        while index >= 0 and end > offset:
            start = self._offsets[index]
            stop = start + len(self._views[index])
            if stop >= end:
                after = bisect_left(pending, (start,))
                if after == len(pending) or pending[after][0] >= stop:
                    del self._offsets[index]
                    del self._views[index]
                return
            index -= 1

    def __repr__(self) -> str:
        spans = ", ".join(
            f"[{o}, {o + len(v)})"
            for o, v in zip(self._offsets, self._views)
        )
        return f"<PartTable {spans}>"


def _as_bytes(view: memoryview) -> bytes:
    """``view`` as ``bytes``: the object it views when it spans all of
    it (immutable, so it may be shared), a copy otherwise."""
    whole = view.obj
    if type(whole) is bytes and len(whole) == view.nbytes:
        return whole
    return bytes(view)


def scatter_parts(
    plan_batch: List[CoalescedRange],
    table: PartTable,
) -> Dict[int, bytes]:
    """Slice fragments out of returned parts for one batch.

    ``table`` holds the parts of a multipart/byteranges body (or is
    synthesised from a 200/206 response). Returns fragment
    ``index -> bytes``: a fragment that is all of its covering part is
    that part's ``bytes`` object itself, any other is the one copy on
    the decode → scatter path. Raises
    :class:`~repro.errors.RequestError` if the server's parts do not
    cover a planned range.
    """
    out: Dict[int, bytes] = {}
    total = table.total
    for rng in plan_batch:
        base = rng.offset
        data = table.find(base, rng.length)
        for offset, length, index in rng.fragments:
            start = offset - base
            piece = data[start : start + length]
            wanted = length
            if total is not None:
                # EOF clips the fragment: a POSIX-style short read.
                wanted = max(0, min(offset + length, total) - offset)
            if len(piece) != wanted:
                raise RequestError(
                    f"server returned {len(piece)} bytes for fragment "
                    f"at {offset} (wanted {wanted})"
                )
            out[index] = _as_bytes(piece)
    return out


def missing_ranges(
    plan_batch: List[CoalescedRange],
    table: PartTable,
) -> List[CoalescedRange]:
    """The planned ranges ``table`` does not fully cover.

    Used by the retry path of a vectored read: when a server reset cut
    a multipart response short (or a weak server only answered some
    ranges), the remaining ranges are re-requested as a smaller batch
    instead of re-reading everything — multi-range GETs are idempotent,
    so the refetch is always safe.

    ``plan_batch`` is in plan order, so one walk of it beside the
    table's sorted parts answers :meth:`PartTable.covers` for each.
    """
    offsets, views, total = table._offsets, table._views, table.total
    missing = []
    index, reach = 0, -1  # reach: furthest end of the parts so far
    for rng in plan_batch:
        offset = rng.offset
        end = offset + rng.length
        if total is not None and end > total:
            end = max(total, offset)
        while index < len(offsets) and offsets[index] <= offset:
            reach = max(reach, offsets[index] + len(views[index]))
            index += 1
        if end > offset and reach < end:
            missing.append(rng)
    return missing
