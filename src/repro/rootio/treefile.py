"""Tree-file container: both on-disk formats, their writers, one reader.

Layout::

    magic | index_offset u64 | index_len u64 |
    basket blobs ... |
    JSON index (tree + branch + basket metadata)

The JSON index plays the role of ROOT's streamed TKey directory: one
metadata read up front, then purely positional basket reads — the access
pattern that makes HTTP range requests viable.

Two magics share the layout. ``RTREE001`` (v1) lays each branch's
baskets out one branch after the other. ``RNTP0002`` (v2,
:mod:`repro.rootio.ntuple`) cuts columns into pages within stored row
clusters, lays the pages out cluster-major, and its index (the
*footer*) also holds the clusters, each page's adler32 and each
column's zlib level. :class:`TreeFileReader` opens either, and
:func:`read_rows` is the one row decoder every read goes through.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import astuple
from functools import partial
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from repro.concurrency import bounded_gather
from repro.errors import RootIOError
from repro.rootio.ntuple import (
    DEFAULT_CLUSTER_ENTRIES,
    DEFAULT_PAGE_BYTES,
    ClusterInfo,
    ColumnMeta,
    NTupleMeta,
    PageInfo,
)
from repro.rootio.tree import BasketInfo, BranchMeta, TreeMeta
from repro.rootio.zipfmt import compress_basket

__all__ = [
    "MAGIC",
    "NTUPLE_MAGIC",
    "HEADER",
    "write_tree_file",
    "write_ntuple_file",
    "meta_from_json",
    "read_rows",
    "TreeFileReader",
    "LocalFetcher",
]

MAGIC = b"RTREE001"
NTUPLE_MAGIC = b"RNTP0002"
HEADER = struct.Struct(">8sQQ")


class _Format(NamedTuple):
    """What differs between the two magics: classes and index keys."""

    meta: type
    branch: type
    basket: type
    #: JSON keys of the branch list and of each branch's basket rows.
    branches: str
    baskets: str
    #: What the JSON tail is called in error messages.
    index: str


_FORMATS = {
    MAGIC: _Format(
        TreeMeta, BranchMeta, BasketInfo, "branches", "baskets",
        "tree index",
    ),
    NTUPLE_MAGIC: _Format(
        NTupleMeta, ColumnMeta, PageInfo, "columns", "pages",
        "ntuple footer",
    ),
}

#: Branch data as ``{name: records}`` or ``(name, records)`` pairs.
BranchArrays = Union[Mapping[str, bytes], Iterable[Tuple[str, bytes]]]
#: One window of rows: ``(cluster index, first entry, stop entry)``.
RowWindow = Tuple[int, int, int]


def basket_rows(n_entries: int, basket_entries: int):
    """v1 row cutting: ``event_size -> [RowWindow]``, baskets of
    ``basket_entries`` rows, all in one cluster."""
    windows = [
        (0, first, min(first + basket_entries, n_entries))
        for first in range(0, n_entries, basket_entries)
    ]
    return lambda event_size: windows


def row_clusters(n_entries: int, cluster_entries: int) -> List[ClusterInfo]:
    """Clusters of ``cluster_entries`` rows; the last may be short."""
    return [
        ClusterInfo(first, min(cluster_entries, n_entries - first))
        for first in range(0, n_entries, cluster_entries)
    ]


def page_rows(clusters: Sequence[ClusterInfo], page_bytes: int):
    """v2 row cutting: ``event_size -> [RowWindow]``, pages of at most
    ``page_bytes`` uncompressed, cut within each cluster."""

    def windows(event_size: int) -> List[RowWindow]:
        step = max(1, page_bytes // event_size)
        return [
            (index, first, min(first + step, cluster.end_entry))
            for index, cluster in enumerate(clusters)
            for first in range(
                cluster.first_entry, cluster.end_entry, step
            )
        ]

    return windows


def write_tree_file(
    name: str,
    branch_arrays: BranchArrays,
    n_entries: int,
    basket_entries: int = 100,
    compression_level: int = 1,
) -> bytes:
    """Serialise branch data into a tree file (returned as bytes).

    ``branch_arrays`` maps branch name to its concatenated fixed-size
    event records (``len == n_entries * event_size``), or yields those
    ``(name, records)`` pairs; an iterable is consumed one branch at a
    time, each payload dropped before the next is drawn.
    """
    if basket_entries < 1:
        raise ValueError("basket_entries must be >= 1")
    return _write(
        MAGIC,
        TreeMeta(name=name, n_entries=n_entries, branches=[]),
        branch_arrays,
        basket_rows(n_entries, basket_entries),
        compression_level,
    )


def write_ntuple_file(
    name: str,
    branch_arrays: BranchArrays,
    n_entries: int,
    cluster_entries: int = DEFAULT_CLUSTER_ENTRIES,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    compression: Union[int, Mapping[str, int]] = 1,
) -> bytes:
    """Serialise column data into a v2 ntuple file (returned as bytes).

    Takes the input :func:`write_tree_file` takes, so one dataset
    materialises identically in both formats. ``compression`` is a zlib
    level for every column, or a mapping ``{column: level}`` (missing
    columns default to 1, level 0 = store).
    """
    if cluster_entries < 1:
        raise ValueError("cluster_entries must be >= 1")
    if page_bytes < 1:
        raise ValueError("page_bytes must be >= 1")
    clusters = row_clusters(n_entries, cluster_entries)
    return _write(
        NTUPLE_MAGIC,
        NTupleMeta(
            name=name, n_entries=n_entries, branches=[],
            cluster_list=clusters,
        ),
        branch_arrays,
        page_rows(clusters, page_bytes),
        compression,
    )


def _write(
    magic: bytes,
    meta: TreeMeta,
    branch_arrays: BranchArrays,
    windows,
    compression: Union[int, Mapping[str, int]],
) -> bytes:
    """Compress each branch's row ``windows(event_size)``, lay the
    blobs out cluster-major after the header and frame the file.

    Each branch is compressed before the next is drawn, so an iterable
    ``branch_arrays`` is held one raw payload at a time; the blobs are
    placed once all are compressed.
    """
    n_entries = meta.n_entries
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    fmt = _FORMATS[magic]
    if isinstance(branch_arrays, Mapping):
        branch_arrays = branch_arrays.items()
    # (cluster, branch, first entry, entries, blob), branch-major.
    pieces = []
    for branch_name, data in branch_arrays:
        if len(data) % n_entries != 0:
            raise RootIOError(
                f"branch {branch_name}: {len(data)} bytes does not "
                f"divide into {n_entries} entries"
            )
        event_size = len(data) // n_entries
        level = int(
            compression.get(branch_name, 1)
            if isinstance(compression, Mapping) else compression
        )
        branch = fmt.branch(name=branch_name, event_size=event_size)
        if magic == NTUPLE_MAGIC:
            branch.level = level
        meta.branches.append(branch)
        for cluster, first, stop in windows(event_size):
            raw = data[first * event_size : stop * event_size]
            pieces.append((
                cluster, branch, first, stop - first,
                compress_basket(raw, level=level),
            ))
        # The loop variable would pin this payload while the iterable
        # draws the next one.
        del data

    # Cluster-major: a stable sort keeps each cluster's branches in order.
    pieces.sort(key=lambda piece: piece[0])
    cursor = HEADER.size
    for _, branch, first, count, blob in pieces:
        checksum = (
            (zlib.adler32(blob) & 0xFFFFFFFF,)
            if magic == NTUPLE_MAGIC else ()
        )
        branch.baskets.append(fmt.basket(
            cursor, len(blob), first, count, count * branch.event_size,
            *checksum,
        ))
        cursor += len(blob)
    index = json.dumps(_meta_to_json(meta, magic)).encode("utf-8")
    header = HEADER.pack(magic, cursor, len(index))
    return b"".join([header, *(piece[-1] for piece in pieces), index])


def _meta_to_json(meta: TreeMeta, magic: bytes) -> dict:
    fmt = _FORMATS[magic]
    doc = {"name": meta.name, "n_entries": meta.n_entries}
    if magic == NTUPLE_MAGIC:
        doc["clusters"] = [
            [cluster.first_entry, cluster.n_entries]
            for cluster in meta.cluster_list
        ]
    branches = []
    for branch in meta.branches:
        raw = {"name": branch.name, "event_size": branch.event_size}
        if magic == NTUPLE_MAGIC:
            raw["level"] = branch.level
        raw[fmt.baskets] = [astuple(basket) for basket in branch.baskets]
        branches.append(raw)
    doc[fmt.branches] = branches
    return doc


def meta_from_json(
    doc: dict, file_size: int = 0, magic: bytes = MAGIC
) -> TreeMeta:
    """Rebuild the metadata of a ``magic`` file from its JSON index."""
    fmt = _FORMATS[magic]
    try:
        branches = []
        for raw in doc[fmt.branches]:
            branch = fmt.branch(
                name=raw["name"],
                event_size=raw["event_size"],
                baskets=[fmt.basket(*row) for row in raw[fmt.baskets]],
            )
            if magic == NTUPLE_MAGIC:
                branch.level = raw.get("level", 1)
            branches.append(branch)
        meta = fmt.meta(
            name=doc["name"],
            n_entries=doc["n_entries"],
            branches=branches,
            file_size=file_size,
        )
        if magic == NTUPLE_MAGIC:
            meta.cluster_list = [
                ClusterInfo(first_entry=f, n_entries=c)
                for f, c in doc["clusters"]
            ]
    except (KeyError, TypeError, ValueError) as exc:
        raise RootIOError(f"malformed {fmt.index}: {exc}") from exc
    meta.validate()
    return meta


def read_rows(
    fetcher,
    branches: Sequence[BranchMeta],
    start: int,
    stop: int,
    decode: bool = True,
    vectored: bool = True,
):
    """Effect sub-op: the rows [start, stop) of ``branches``.

    The one row decoder: fetch the spans of the baskets (or pages) the
    window needs — one vectored read, or with ``vectored`` off one read
    per basket in branch order — decode each (a page is checksum
    verified before it is inflated) and slice the window's rows out.
    A window some branch's baskets do not tile is refused before any
    fetch.

    Returns ``(rows, blobs, uncompressed)``: ``{branch: records}``
    (``None`` each with ``decode`` off), the blobs fetched and the
    bytes they inflate to.
    """
    wanted = []
    for branch in branches:
        baskets = branch.baskets_for_entries(start, stop)
        covered = start
        for basket in baskets:
            if basket.first_entry > covered:
                break
            covered = basket.end_entry
        if covered < stop:
            raise RootIOError(
                f"branch {branch.name}: no basket for entry {covered}"
            )
        wanted.append((branch, baskets))
    spans = [basket.span for _, baskets in wanted for basket in baskets]
    if vectored:
        spans = sorted(set(spans))
        blobs = yield from fetcher.fetch_vec(spans)
    else:
        spans = list(dict.fromkeys(spans))
        blobs = []
        for span in spans:
            blob = yield from fetcher.fetch(*span)
            blobs.append(blob)
    blob_by_span = dict(zip(spans, blobs))

    rows: Dict[str, Optional[bytes]] = {}
    uncompressed = 0
    for branch, baskets in wanted:
        uncompressed += sum(basket.uncompressed for basket in baskets)
        if not decode:
            rows[branch.name] = None
            continue
        size = branch.event_size
        rows[branch.name] = b"".join([
            basket.decode(blob_by_span[basket.span])[
                (max(start, basket.first_entry) - basket.first_entry) * size
                : (min(stop, basket.end_entry) - basket.first_entry) * size
            ]
            for basket in baskets
        ])
    return rows, blobs, uncompressed


class LocalFetcher:
    """Fetcher over in-memory bytes (the trivial transport).

    Fetchers expose effect sub-ops so remote fetchers (davix, xrootd)
    are drop-in replacements; this one never yields.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.reads = 0
        self.bytes_fetched = 0

    def size(self):
        """Effect sub-op: total size."""
        return len(self.data)
        yield  # pragma: no cover - makes this a generator

    def fetch(self, offset: int, length: int):
        """Effect sub-op: one positional read."""
        self.reads += 1
        self.bytes_fetched += length
        return self.data[offset : offset + length]
        yield  # pragma: no cover - makes this a generator

    def fetch_vec(self, reads: Sequence):
        """Effect sub-op: vectored read."""
        self.reads += 1
        out = []
        for offset, length in reads:
            self.bytes_fetched += length
            out.append(self.data[offset : offset + length])
        return out
        yield  # pragma: no cover - makes this a generator


class TreeFileReader:
    """Opens a file of either format through any fetcher, reads entries."""

    def __init__(self, fetcher):
        self.fetcher = fetcher
        self.meta: Optional[TreeMeta] = None

    def open(self):
        """Effect sub-op: read header + index, build the metadata."""
        head = yield from self.fetcher.fetch(0, HEADER.size)
        if len(head) != HEADER.size:
            raise RootIOError("file too short for a tree header")
        magic, index_offset, index_len = HEADER.unpack(head)
        if magic not in _FORMATS:
            raise RootIOError(f"bad tree magic {magic!r}")
        what = _FORMATS[magic].index
        raw_index = yield from self.fetcher.fetch(index_offset, index_len)
        if len(raw_index) != index_len:
            raise RootIOError(f"truncated {what}")
        try:
            doc = json.loads(raw_index.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RootIOError(f"unreadable {what}: {exc}") from exc
        self.meta = meta_from_json(
            doc, file_size=index_offset + index_len, magic=magic
        )
        return self.meta

    def read_basket(self, basket: BasketInfo):
        """Effect sub-op: fetch + decode one basket."""
        blob = yield from self.fetcher.fetch(basket.offset, basket.nbytes)
        return basket.decode(blob)

    def read_entries(
        self,
        start: int,
        stop: int,
        branch_names: Sequence[str] = (),
        lanes: int = 1,
    ):
        """Effect sub-op: {branch: concatenated records of [start, stop)}.

        One job per stored cluster the range meets — a vectored fetch
        of its spans, then decode — with up to ``lanes`` jobs in flight;
        a file that stores no clusters is one job, one vectored read.
        """
        if self.meta is None:
            raise RootIOError("open() the reader first")
        meta = self.meta
        branches = [
            meta.branch(name) for name in branch_names or meta.branch_names
        ]
        # A window as wide as the tree: a file storing no clusters is
        # one window.
        jobs = [
            partial(
                read_rows, self.fetcher, branches,
                max(start, lo), min(stop, hi),
            )
            for lo, hi in meta.clusters(meta.n_entries or 1)
            if lo < stop and start < hi
        ]
        if len(jobs) == 1:
            parts = [(yield from jobs[0]())]
        else:
            outcomes = yield from bounded_gather(
                jobs, limit=max(1, lanes), name="ntuple-cluster"
            )
            parts = []
            for outcome in outcomes:
                if not outcome.ok:
                    raise outcome.error
                parts.append(outcome.value)
        return {
            branch.name: b"".join(rows[branch.name] for rows, _, _ in parts)
            for branch in branches
        }
