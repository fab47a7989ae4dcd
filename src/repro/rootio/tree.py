"""Tree metadata model: branches, baskets, entry->byte-range mapping.

A *tree* holds ``n_entries`` events split across *branches* (columns).
Each branch's values are stored in compressed *baskets* of
``basket_entries`` events. The metadata is what TTreeCache needs to turn
"entries [a, b) of branches X, Y" into byte ranges — the input of the
paper's vectored I/O. The v2 ntuple (:mod:`repro.rootio.ntuple`) is
this model plus stored clusters, page checksums and column levels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, List, Sequence, Tuple

from repro.errors import RootIOError
from repro.rootio.zipfmt import decompress_basket

__all__ = ["BasketInfo", "BranchMeta", "TreeMeta"]


@dataclass(frozen=True)
class BasketInfo:
    """One stored basket: where it lives and what it holds."""

    offset: int  # byte offset in the file
    nbytes: int  # compressed size on disk (incl. framing)
    first_entry: int
    n_entries: int
    uncompressed: int

    @property
    def end_entry(self) -> int:
        return self.first_entry + self.n_entries

    @property
    def span(self) -> Tuple[int, int]:
        """(offset, nbytes) — the read needed to load this basket."""
        return (self.offset, self.nbytes)

    def decode(self, blob: bytes) -> bytes:
        """This basket's records, inflated from its on-disk ``blob``."""
        return decompress_basket(blob)


@dataclass
class BranchMeta:
    """One branch (column): fixed-size records in ordered baskets."""

    name: str
    event_size: int  # bytes per entry, uncompressed
    baskets: List[BasketInfo] = field(default_factory=list)
    #: ``first_entry`` of every basket, the array the lookups bisect.
    #: Baskets are only ever appended in entry order; the array is
    #: rebuilt when their count has changed.
    _firsts: List[int] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def _first_entries(self) -> List[int]:
        if len(self._firsts) != len(self.baskets):
            self._firsts = [basket.first_entry for basket in self.baskets]
        return self._firsts

    def basket_for_entry(self, entry: int) -> BasketInfo:
        """The basket holding ``entry`` (binary search)."""
        index = bisect_right(self._first_entries(), entry) - 1
        if index >= 0:
            basket = self.baskets[index]
            if entry < basket.first_entry + basket.n_entries:
                return basket
        raise RootIOError(
            f"branch {self.name}: no basket for entry {entry}"
        )

    def baskets_for_entries(self, start: int, stop: int) -> List[BasketInfo]:
        """Baskets covering entries [start, stop)."""
        if start >= stop:
            return []
        firsts = self._first_entries()
        # Only the last basket starting at or before ``start`` can reach
        # into the window from the left; it may also end short of it.
        low = max(bisect_right(firsts, start) - 1, 0)
        return [
            basket
            for basket in self.baskets[low : bisect_left(firsts, stop)]
            if basket.first_entry + basket.n_entries > start
        ]

    @property
    def compressed_bytes(self) -> int:
        return sum(basket.nbytes for basket in self.baskets)

    @property
    def uncompressed_bytes(self) -> int:
        return sum(basket.uncompressed for basket in self.baskets)


@dataclass
class TreeMeta:
    """The full tree: entry count, branches, file footprint."""

    name: str
    n_entries: int
    branches: List[BranchMeta]
    file_size: int = 0
    #: Row clusters stored in the file; a v1 tree stores none.
    cluster_list: ClassVar[Sequence] = ()

    def branch(self, name: str) -> BranchMeta:
        for branch in self.branches:
            if branch.name == name:
                return branch
        raise RootIOError(f"no branch named {name!r}")

    @property
    def branch_names(self) -> List[str]:
        return [branch.name for branch in self.branches]

    @property
    def compressed_bytes(self) -> int:
        return sum(branch.compressed_bytes for branch in self.branches)

    def segments_for_entries(
        self,
        start: int,
        stop: int,
        branch_names: Sequence[str] = (),
    ) -> List[Tuple[int, int]]:
        """Byte ranges covering entries [start, stop).

        Deduplicated and sorted by offset; this list is exactly what a
        vectored read (or a read-ahead plan) consumes.
        """
        names = branch_names or self.branch_names
        spans = set()
        for name in names:
            for basket in self.branch(name).baskets_for_entries(start, stop):
                spans.add(basket.span)
        return sorted(spans)

    def clusters(
        self, entries_per_cluster: int, start: int = 0
    ) -> Iterator[Tuple[int, int]]:
        """Yield (start, stop) entry windows, the one window rule: the
        stored clusters from the one holding ``start`` on, or windows
        of ``entries_per_cluster`` from ``start`` when the file stores
        none."""
        if entries_per_cluster < 1:
            raise ValueError("entries_per_cluster must be >= 1")
        if self.cluster_list:
            for cluster in self.cluster_list:
                if cluster.end_entry > start:
                    yield (cluster.first_entry, cluster.end_entry)
            return
        for first in range(start, self.n_entries, entries_per_cluster):
            yield (first, min(first + entries_per_cluster, self.n_entries))

    def validate(self) -> None:
        """Structural sanity checks (contiguous entries, sane sizes)."""
        if self.n_entries < 0:
            raise RootIOError("negative entry count")
        for branch in self.branches:
            expected = 0
            for basket in branch.baskets:
                if basket.first_entry != expected:
                    raise RootIOError(
                        f"branch {branch.name}: basket at entry "
                        f"{basket.first_entry}, expected {expected}"
                    )
                if basket.n_entries < 1:
                    raise RootIOError(
                        f"branch {branch.name}: empty basket"
                    )
                if basket.uncompressed != (
                    basket.n_entries * branch.event_size
                ):
                    raise RootIOError(
                        f"branch {branch.name}: uncompressed size "
                        f"mismatch at entry {basket.first_entry}"
                    )
                expected = basket.end_entry
            if expected != self.n_entries:
                raise RootIOError(
                    f"branch {branch.name}: covers {expected} entries, "
                    f"tree has {self.n_entries}"
                )
