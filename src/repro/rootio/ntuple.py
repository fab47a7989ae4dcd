"""RNTuple-style page/cluster container: the v2 columnar format.

Layout::

    magic "RNTP0002" | footer_offset u64 | footer_len u64 |
    cluster 0: col A pages..., col B pages... | cluster 1: ... |
    JSON footer (cluster row ranges + per-column page locators)

Differences from the v1 basket format (:mod:`repro.rootio.treefile`)
that matter for remote I/O:

* **pages, not baskets** — each column is cut into fixed-byte-budget
  pages (~64 KiB uncompressed), an order of magnitude finer than v1's
  100-entry baskets, so a sparse row selection fetches far fewer bytes
  (the read-amplification lever of the RNTuple papers);
* **cluster-major layout** — all columns' pages of one row cluster are
  adjacent on disk, so "cluster x selected columns" is a handful of
  nearby ranges: one coalesced multi-range GET per cluster, and
  clusters decode independently (the parallel-lane lever);
* **separable footer** — the index is one contiguous tail blob whose
  location the 24-byte header names, fetched with one ranged GET;
* **per-page adler32 checksums** — stored in the footer, verified on
  decode *before* decompression; damage surfaces as a typed
  :class:`~repro.errors.PageChecksumError`, never as silent corruption;
* **per-column compression** — any column may pick its own zlib level,
  including level 0 (store) for incompressible payloads.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union,
)

from repro.concurrency import bounded_gather
from repro.errors import PageChecksumError, RootIOError
from repro.rootio.zipfmt import compress_basket, decompress_basket

__all__ = [
    "NTUPLE_MAGIC",
    "PageInfo",
    "ColumnMeta",
    "ClusterInfo",
    "NTupleMeta",
    "write_ntuple_file",
    "ntuple_meta_from_json",
    "decode_page",
    "NTupleReader",
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_CLUSTER_ENTRIES",
]

NTUPLE_MAGIC = b"RNTP0002"
HEADER = struct.Struct(">8sQQ")

#: Uncompressed byte budget of one page (ROOT's default ballpark).
DEFAULT_PAGE_BYTES = 64 * 1024
#: Entries per row cluster (the unit of parallel decode).
DEFAULT_CLUSTER_ENTRIES = 500


@dataclass(frozen=True)
class PageInfo:
    """One stored page: location, row range, checksum."""

    offset: int  # byte offset in the file
    nbytes: int  # compressed size on disk (incl. framing)
    first_entry: int
    n_entries: int
    uncompressed: int
    #: adler32 of the on-disk blob (frame included), verified on decode.
    checksum: int

    @property
    def end_entry(self) -> int:
        return self.first_entry + self.n_entries

    @property
    def span(self) -> Tuple[int, int]:
        """(offset, nbytes) — the read needed to load this page."""
        return (self.offset, self.nbytes)


@dataclass
class ColumnMeta:
    """One column: fixed-size records in ordered pages."""

    name: str
    event_size: int  # bytes per entry, uncompressed
    #: zlib level the column was written with (0 = store).
    level: int = 1
    pages: List[PageInfo] = field(default_factory=list)

    def page_for_entry(self, entry: int) -> PageInfo:
        """The page holding ``entry`` (binary search)."""
        low, high = 0, len(self.pages)
        while low < high:
            mid = (low + high) // 2
            page = self.pages[mid]
            if entry < page.first_entry:
                high = mid
            elif entry >= page.end_entry:
                low = mid + 1
            else:
                return page
        raise RootIOError(f"column {self.name}: no page for entry {entry}")

    def pages_for_entries(self, start: int, stop: int) -> List[PageInfo]:
        """Pages covering entries [start, stop)."""
        if start >= stop:
            return []
        return [
            page
            for page in self.pages
            if page.end_entry > start and page.first_entry < stop
        ]

    # v1 BranchMeta-compatible spellings (same tree-read surface).
    basket_for_entry = page_for_entry
    baskets_for_entries = pages_for_entries

    @property
    def baskets(self) -> List[PageInfo]:
        """v1 alias: the pages double as this column's baskets."""
        return self.pages

    @property
    def compressed_bytes(self) -> int:
        return sum(page.nbytes for page in self.pages)

    @property
    def uncompressed_bytes(self) -> int:
        return sum(page.uncompressed for page in self.pages)


@dataclass(frozen=True)
class ClusterInfo:
    """One row cluster: a contiguous entry range decoded as a unit."""

    first_entry: int
    n_entries: int

    @property
    def end_entry(self) -> int:
        return self.first_entry + self.n_entries


@dataclass
class NTupleMeta:
    """The full ntuple: clusters, columns, file footprint.

    Duck-types the v1 :class:`~repro.rootio.tree.TreeMeta` read surface
    (``branch``/``branch_names``/``segments_for_entries``/``clusters``)
    so planners and caches written for v1 work unchanged.
    """

    name: str
    n_entries: int
    cluster_list: List[ClusterInfo]
    columns: List[ColumnMeta]
    file_size: int = 0

    def column(self, name: str) -> ColumnMeta:
        for column in self.columns:
            if column.name == name:
                return column
        raise RootIOError(f"no column named {name!r}")

    # v1-compatible spelling.
    branch = column

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    branch_names = column_names

    @property
    def branches(self) -> List[ColumnMeta]:
        """v1 alias for the column list."""
        return self.columns

    @property
    def compressed_bytes(self) -> int:
        return sum(column.compressed_bytes for column in self.columns)

    def cluster_for_entry(self, entry: int) -> int:
        """Index of the cluster holding ``entry`` (binary search)."""
        low, high = 0, len(self.cluster_list)
        while low < high:
            mid = (low + high) // 2
            cluster = self.cluster_list[mid]
            if entry < cluster.first_entry:
                high = mid
            elif entry >= cluster.end_entry:
                low = mid + 1
            else:
                return mid
        raise RootIOError(f"no cluster for entry {entry}")

    def segments_for_entries(
        self,
        start: int,
        stop: int,
        branch_names: Sequence[str] = (),
    ) -> List[Tuple[int, int]]:
        """Byte ranges (page spans) covering entries [start, stop)."""
        names = branch_names or self.column_names
        spans = set()
        for name in names:
            for page in self.column(name).pages_for_entries(start, stop):
                spans.add(page.span)
        return sorted(spans)

    def clusters(self, entries_per_cluster: int = 0) -> Iterator[Tuple[int, int]]:
        """Yield (start, stop) windows — the *stored* cluster bounds.

        The argument exists for v1 signature compatibility and is
        ignored: v2 clusters are a property of the file, not the
        reader.
        """
        for cluster in self.cluster_list:
            yield (cluster.first_entry, cluster.end_entry)

    def validate(self) -> None:
        """Structural sanity: contiguous clusters, aligned pages."""
        if self.n_entries < 0:
            raise RootIOError("negative entry count")
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
        bounds = [
            (cluster.first_entry, cluster.end_entry)
            for cluster in self.cluster_list
        ]
        for column in self.columns:
            expected = 0
            cluster_index = 0
            for page in column.pages:
                if page.first_entry != expected:
                    raise RootIOError(
                        f"column {column.name}: page at entry "
                        f"{page.first_entry}, expected {expected}"
                    )
                if page.n_entries < 1:
                    raise RootIOError(f"column {column.name}: empty page")
                if page.uncompressed != page.n_entries * column.event_size:
                    raise RootIOError(
                        f"column {column.name}: uncompressed size "
                        f"mismatch at entry {page.first_entry}"
                    )
                # Pages must not straddle a cluster boundary — that is
                # what makes a cluster independently decodable.
                while (
                    cluster_index < len(bounds)
                    and page.first_entry >= bounds[cluster_index][1]
                ):
                    cluster_index += 1
                if (
                    cluster_index >= len(bounds)
                    or page.end_entry > bounds[cluster_index][1]
                ):
                    raise RootIOError(
                        f"column {column.name}: page "
                        f"[{page.first_entry}, {page.end_entry}) "
                        f"straddles a cluster boundary"
                    )
                expected = page.end_entry
            if expected != self.n_entries:
                raise RootIOError(
                    f"column {column.name}: covers {expected} entries, "
                    f"ntuple has {self.n_entries}"
                )


def _column_level(
    compression: Union[int, Mapping[str, int]], name: str
) -> int:
    if isinstance(compression, Mapping):
        return int(compression.get(name, 1))
    return int(compression)


def write_ntuple_file(
    name: str,
    branch_arrays: Union[Mapping[str, bytes], Iterable[Tuple[str, bytes]]],
    n_entries: int,
    cluster_entries: int = DEFAULT_CLUSTER_ENTRIES,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    compression: Union[int, Mapping[str, int]] = 1,
) -> bytes:
    """Serialise column data into a v2 ntuple file (returned as bytes).

    ``branch_arrays`` maps column name to its concatenated fixed-size
    event records — the same input :func:`write_tree_file` takes, so
    one dataset materialises identically in both formats — or yields
    those ``(name, records)`` pairs. Each column's pages are compressed
    before the next column is drawn, and the pages are laid out
    cluster-major once all are compressed, so an iterable is held one
    raw column at a time. ``compression`` is a zlib level for every
    column, or a mapping ``{column: level}`` (missing columns default
    to 1, level 0 = store).
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    if cluster_entries < 1:
        raise ValueError("cluster_entries must be >= 1")
    if page_bytes < 1:
        raise ValueError("page_bytes must be >= 1")

    if isinstance(branch_arrays, Mapping):
        branch_arrays = branch_arrays.items()
    clusters = range(0, n_entries, cluster_entries)
    columns: List[ColumnMeta] = []
    # (cluster, column, blob, first entry, entries, raw size), column-major.
    pages = []
    for column_name, data in branch_arrays:
        if len(data) % n_entries != 0:
            raise RootIOError(
                f"column {column_name}: {len(data)} bytes does not "
                f"divide into {n_entries} entries"
            )
        event_size = len(data) // n_entries
        level = _column_level(compression, column_name)
        column = ColumnMeta(column_name, event_size, level)
        columns.append(column)
        page_entries = max(1, page_bytes // event_size)
        for cluster, first in enumerate(clusters):
            stop = min(first + cluster_entries, n_entries)
            for page_first in range(first, stop, page_entries):
                page_stop = min(page_first + page_entries, stop)
                raw = data[page_first * event_size : page_stop * event_size]
                blob = compress_basket(raw, level=level)
                pages.append((
                    cluster, column, blob,
                    page_first, page_stop - page_first, len(raw),
                ))
        # The loop variable would pin this payload while the iterable
        # draws the next one.
        del data

    # Cluster-major: a stable sort keeps each cluster's columns in order.
    pages.sort(key=lambda page: page[0])
    blobs: List[bytes] = []
    cursor = HEADER.size
    for _, column, blob, first, count, uncompressed in pages:
        column.pages.append(
            PageInfo(
                offset=cursor,
                nbytes=len(blob),
                first_entry=first,
                n_entries=count,
                uncompressed=uncompressed,
                checksum=zlib.adler32(blob) & 0xFFFFFFFF,
            )
        )
        blobs.append(blob)
        cursor += len(blob)
    cluster_list = [
        ClusterInfo(
            first_entry=first,
            n_entries=min(cluster_entries, n_entries - first),
        )
        for first in clusters
    ]

    meta = NTupleMeta(
        name=name,
        n_entries=n_entries,
        cluster_list=cluster_list,
        columns=columns,
    )
    footer = json.dumps(_meta_to_json(meta)).encode("utf-8")
    header = HEADER.pack(NTUPLE_MAGIC, cursor, len(footer))
    return b"".join([header, *blobs, footer])


def _meta_to_json(meta: NTupleMeta) -> dict:
    return {
        "name": meta.name,
        "n_entries": meta.n_entries,
        "clusters": [
            [cluster.first_entry, cluster.n_entries]
            for cluster in meta.cluster_list
        ],
        "columns": [
            {
                "name": column.name,
                "event_size": column.event_size,
                "level": column.level,
                "pages": [
                    [p.offset, p.nbytes, p.first_entry, p.n_entries,
                     p.uncompressed, p.checksum]
                    for p in column.pages
                ],
            }
            for column in meta.columns
        ],
    }


def ntuple_meta_from_json(doc: dict, file_size: int = 0) -> NTupleMeta:
    """Rebuild an NTupleMeta from its JSON footer."""
    try:
        columns = [
            ColumnMeta(
                name=raw["name"],
                event_size=raw["event_size"],
                level=raw.get("level", 1),
                pages=[
                    PageInfo(
                        offset=o, nbytes=n, first_entry=f,
                        n_entries=c, uncompressed=u, checksum=ck,
                    )
                    for o, n, f, c, u, ck in raw["pages"]
                ],
            )
            for raw in doc["columns"]
        ]
        meta = NTupleMeta(
            name=doc["name"],
            n_entries=doc["n_entries"],
            cluster_list=[
                ClusterInfo(first_entry=f, n_entries=c)
                for f, c in doc["clusters"]
            ],
            columns=columns,
            file_size=file_size,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RootIOError(f"malformed ntuple footer: {exc}") from exc
    meta.validate()
    return meta


def decode_page(blob: bytes, page: PageInfo, verify: bool = True) -> bytes:
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
    if verify and zlib.adler32(blob) & 0xFFFFFFFF != page.checksum:
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


class NTupleReader:
    """Opens a v2 ntuple through any fetcher and reads entries.

    Same surface as :class:`~repro.rootio.treefile.TreeFileReader`
    (``open``/``read_entries``), plus cluster-parallel decode: pass
    ``lanes > 1`` and every intersecting cluster becomes an independent
    fetch+verify+decode job fanned out over
    :func:`~repro.concurrency.bounded_gather`.
    """

    def __init__(self, fetcher):
        self.fetcher = fetcher
        self.meta = None

    def open(self):
        """Effect sub-op: header + one ranged footer GET -> metadata."""
        head = yield from self.fetcher.fetch(0, HEADER.size)
        if len(head) != HEADER.size:
            raise RootIOError("file too short for an ntuple header")
        magic, footer_offset, footer_len = HEADER.unpack(head)
        if magic != NTUPLE_MAGIC:
            raise RootIOError(f"bad ntuple magic {magic!r}")
        raw_footer = yield from self.fetcher.fetch(
            footer_offset, footer_len
        )
        if len(raw_footer) != footer_len:
            raise RootIOError("truncated ntuple footer")
        try:
            doc = json.loads(raw_footer.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RootIOError(f"unreadable ntuple footer: {exc}") from exc
        self.meta = ntuple_meta_from_json(
            doc, file_size=footer_offset + footer_len
        )
        return self.meta

    def read_entries(
        self,
        start: int,
        stop: int,
        branch_names: Sequence[str] = (),
        lanes: int = 1,
    ):
        """Effect sub-op: {column: concatenated records of [start, stop)}.

        Each intersecting cluster is one job — a coalesced vectored
        fetch of the selected columns' page spans, then checksum-verify
        and decode — and up to ``lanes`` jobs run concurrently.
        """
        if self.meta is None:
            raise RootIOError("open() the reader first")
        meta = self.meta
        names = list(branch_names) or meta.column_names
        columns = [meta.column(name) for name in names]
        jobs = []
        for cluster in meta.cluster_list:
            lo = max(start, cluster.first_entry)
            hi = min(stop, cluster.end_entry)
            if lo >= hi:
                continue
            jobs.append(self._cluster_job(columns, lo, hi))
        outcomes = yield from bounded_gather(
            jobs, limit=max(1, lanes), name="ntuple-cluster"
        )
        pieces: Dict[str, List[bytes]] = {name: [] for name in names}
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            for name, data in outcome.value.items():
                pieces[name].append(data)
        return {name: b"".join(parts) for name, parts in pieces.items()}

    def _cluster_job(self, columns: List[ColumnMeta], lo: int, hi: int):
        """One decode lane: fetch + verify + slice [lo, hi) of a cluster."""

        def job():
            wanted = [
                (column, column.pages_for_entries(lo, hi))
                for column in columns
            ]
            spans = sorted(
                {page.span for _, pages in wanted for page in pages}
            )
            blobs = yield from self.fetcher.fetch_vec(spans)
            blob_by_span = dict(zip(spans, blobs))
            out: Dict[str, bytes] = {}
            for column, pages in wanted:
                parts = []
                for page in pages:
                    raw = decode_page(blob_by_span[page.span], page)
                    a = max(lo, page.first_entry) - page.first_entry
                    b = min(hi, page.end_entry) - page.first_entry
                    parts.append(
                        raw[a * column.event_size : b * column.event_size]
                    )
                out[column.name] = b"".join(parts)
            return out

        return job
