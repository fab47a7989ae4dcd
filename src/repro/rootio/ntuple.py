"""RNTuple-style v2 metadata: the v1 tree model plus what the format adds.

Layout (written and read by :mod:`repro.rootio.treefile`)::

    magic "RNTP0002" | footer_offset u64 | footer_len u64 |
    cluster 0: col A pages..., col B pages... | cluster 1: ... |
    JSON footer (cluster row ranges + per-column page locators)

A page is a basket, a column a branch and the ntuple a tree; what v2
adds to that model, and why it matters for remote I/O:

* **stored clusters** — ``cluster_list`` on :class:`NTupleMeta`: all
  columns' pages of one row cluster are adjacent on disk and no page
  straddles a cluster, so "cluster x selected columns" is a handful of
  nearby ranges: one coalesced multi-range GET per cluster, and
  clusters decode independently (the parallel-lane lever). Pages are
  cut to a byte budget (~64 KiB uncompressed), finer than v1's
  100-entry baskets, so a sparse row selection fetches fewer bytes;
* **per-page adler32 checksums** — ``checksum`` on :class:`PageInfo`,
  verified on decode *before* decompression; damage surfaces as a
  typed :class:`~repro.errors.PageChecksumError`, never as silent
  corruption;
* **per-column compression** — ``level`` on :class:`ColumnMeta`: any
  column may pick its own zlib level, including level 0 (store) for
  incompressible payloads.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List

from repro.errors import PageChecksumError, RootIOError
from repro.rootio.tree import BasketInfo, BranchMeta, TreeMeta
from repro.rootio.zipfmt import decompress_basket

__all__ = [
    "PageInfo",
    "ColumnMeta",
    "ClusterInfo",
    "NTupleMeta",
    "decode_page",
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_CLUSTER_ENTRIES",
]

#: Uncompressed byte budget of one page (ROOT's default ballpark).
DEFAULT_PAGE_BYTES = 64 * 1024
#: Entries per row cluster (the unit of parallel decode).
DEFAULT_CLUSTER_ENTRIES = 500


@dataclass(frozen=True)
class PageInfo(BasketInfo):
    """One stored page: a basket with the checksum of its blob."""

    #: adler32 of the on-disk blob (frame included), verified on
    #: decode; 0 in layout-only metadata, which is never decoded.
    checksum: int = 0

    def decode(self, blob: bytes) -> bytes:
        return decode_page(blob, self)


@dataclass
class ColumnMeta(BranchMeta):
    """One column: a branch with its own zlib level (0 = store)."""

    level: int = 1


@dataclass(frozen=True)
class ClusterInfo:
    """One row cluster: a contiguous entry range decoded as a unit."""

    first_entry: int
    n_entries: int

    @property
    def end_entry(self) -> int:
        return self.first_entry + self.n_entries


@dataclass
class NTupleMeta(TreeMeta):
    """The full ntuple: a tree whose file stores its row clusters."""

    cluster_list: List[ClusterInfo] = field(default_factory=list)

    def validate(self) -> None:
        """The tree's checks, plus contiguous clusters that no page
        straddles — what makes a cluster independently decodable."""
        expected = 0
        for cluster in self.cluster_list:
            if cluster.first_entry != expected:
                raise RootIOError(
                    f"cluster at entry {cluster.first_entry}, "
                    f"expected {expected}"
                )
            if cluster.n_entries < 1:
                raise RootIOError("empty cluster")
            expected = cluster.end_entry
        if expected != self.n_entries:
            raise RootIOError(
                f"clusters cover {expected} entries, "
                f"ntuple has {self.n_entries}"
            )
        super().validate()
        firsts = [cluster.first_entry for cluster in self.cluster_list]
        for column in self.branches:
            for page in column.baskets:
                cluster = self.cluster_list[
                    bisect_right(firsts, page.first_entry) - 1
                ]
                if page.end_entry > cluster.end_entry:
                    raise RootIOError(
                        f"column {column.name}: page "
                        f"[{page.first_entry}, {page.end_entry}) "
                        f"straddles a cluster boundary"
                    )


def decode_page(blob: bytes, page: PageInfo) -> bytes:
    """Checksum-verify and decompress one page blob.

    The adler32 runs over the on-disk bytes *before* decompression, so
    corruption raises :class:`~repro.errors.PageChecksumError` instead
    of feeding garbage to the inflater (or, for stored pages, to the
    analysis).
    """
    if len(blob) != page.nbytes:
        raise RootIOError(
            f"short page read: have {len(blob)}, want {page.nbytes}"
        )
    if zlib.adler32(blob) & 0xFFFFFFFF != page.checksum:
        raise PageChecksumError(
            f"page at offset {page.offset} failed its adler32 check"
        )
    data = decompress_basket(blob)
    if len(data) != page.uncompressed:
        raise RootIOError(
            f"page inflated to {len(data)}, footer says "
            f"{page.uncompressed}"
        )
    return data
