"""Tree-file container format: writer and reader.

Layout::

    magic "RTREE001" | index_offset u64 | index_len u64 |
    basket blobs ... |
    JSON index (tree + branch + basket metadata)

The JSON index plays the role of ROOT's streamed TKey directory: one
metadata read up front, then purely positional basket reads — the access
pattern that makes HTTP range requests viable.
"""

from __future__ import annotations

import json
import struct
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.errors import RootIOError
from repro.rootio.tree import BasketInfo, BranchMeta, TreeMeta
from repro.rootio.zipfmt import compress_basket, decompress_basket

__all__ = ["MAGIC", "HEADER", "write_tree_file", "TreeFileReader", "LocalFetcher"]

MAGIC = b"RTREE001"
HEADER = struct.Struct(">8sQQ")


def write_tree_file(
    name: str,
    branch_arrays: Union[Mapping[str, bytes], Iterable[Tuple[str, bytes]]],
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
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    if basket_entries < 1:
        raise ValueError("basket_entries must be >= 1")

    if isinstance(branch_arrays, Mapping):
        branch_arrays = branch_arrays.items()
    blobs: List[bytes] = []
    cursor = HEADER.size
    branches: List[BranchMeta] = []
    for branch_name, data in branch_arrays:
        if len(data) % n_entries != 0:
            raise RootIOError(
                f"branch {branch_name}: {len(data)} bytes does not "
                f"divide into {n_entries} entries"
            )
        event_size = len(data) // n_entries
        branch = BranchMeta(name=branch_name, event_size=event_size)
        for first in range(0, n_entries, basket_entries):
            count = min(basket_entries, n_entries - first)
            raw = data[
                first * event_size : (first + count) * event_size
            ]
            blob = compress_basket(raw, level=compression_level)
            branch.baskets.append(
                BasketInfo(
                    offset=cursor,
                    nbytes=len(blob),
                    first_entry=first,
                    n_entries=count,
                    uncompressed=len(raw),
                )
            )
            blobs.append(blob)
            cursor += len(blob)
        branches.append(branch)
        # The loop variable would pin this payload while the iterable
        # draws the next one.
        del data

    meta = TreeMeta(name=name, n_entries=n_entries, branches=branches)
    index = json.dumps(_meta_to_json(meta)).encode("utf-8")
    header = HEADER.pack(MAGIC, cursor, len(index))
    return b"".join([header, *blobs, index])


def _meta_to_json(meta: TreeMeta) -> dict:
    return {
        "name": meta.name,
        "n_entries": meta.n_entries,
        "branches": [
            {
                "name": branch.name,
                "event_size": branch.event_size,
                "baskets": [
                    [b.offset, b.nbytes, b.first_entry, b.n_entries,
                     b.uncompressed]
                    for b in branch.baskets
                ],
            }
            for branch in meta.branches
        ],
    }


def meta_from_json(doc: dict, file_size: int = 0) -> TreeMeta:
    """Rebuild a TreeMeta from its JSON index."""
    try:
        branches = [
            BranchMeta(
                name=raw["name"],
                event_size=raw["event_size"],
                baskets=[
                    BasketInfo(
                        offset=o, nbytes=n, first_entry=f,
                        n_entries=c, uncompressed=u,
                    )
                    for o, n, f, c, u in raw["baskets"]
                ],
            )
            for raw in doc["branches"]
        ]
        meta = TreeMeta(
            name=doc["name"],
            n_entries=doc["n_entries"],
            branches=branches,
            file_size=file_size,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RootIOError(f"malformed tree index: {exc}") from exc
    meta.validate()
    return meta


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
    """Opens a tree file through any fetcher and reads entries."""

    def __init__(self, fetcher):
        self.fetcher = fetcher
        self.meta: Optional[TreeMeta] = None

    def open(self):
        """Effect sub-op: read header + index, build the metadata."""
        head = yield from self.fetcher.fetch(0, HEADER.size)
        if len(head) != HEADER.size:
            raise RootIOError("file too short for a tree header")
        magic, index_offset, index_len = HEADER.unpack(head)
        if magic != MAGIC:
            raise RootIOError(f"bad tree magic {magic!r}")
        raw_index = yield from self.fetcher.fetch(index_offset, index_len)
        if len(raw_index) != index_len:
            raise RootIOError("truncated tree index")
        try:
            doc = json.loads(raw_index.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RootIOError(f"unreadable tree index: {exc}") from exc
        self.meta = meta_from_json(
            doc, file_size=index_offset + index_len
        )
        return self.meta

    def read_basket(self, basket: BasketInfo):
        """Effect sub-op: fetch + decompress one basket."""
        blob = yield from self.fetcher.fetch(basket.offset, basket.nbytes)
        return decompress_basket(blob)

    def read_entries(
        self,
        start: int,
        stop: int,
        branch_names: Sequence[str] = (),
    ):
        """Effect sub-op: {branch: concatenated records of [start, stop)}.

        Fetches every needed basket with **one vectored read**, then
        decompresses and slices.
        """
        if self.meta is None:
            raise RootIOError("open() the reader first")
        names = list(branch_names) or self.meta.branch_names
        wanted = {}
        spans = []
        for name in names:
            baskets = self.meta.branch(name).baskets_for_entries(start, stop)
            wanted[name] = baskets
            spans.extend(basket.span for basket in baskets)
        unique_spans = sorted(set(spans))
        blobs = yield from self.fetcher.fetch_vec(unique_spans)
        blob_by_span = dict(zip(unique_spans, blobs))

        out: Dict[str, bytes] = {}
        for name in names:
            branch = self.meta.branch(name)
            pieces = []
            for basket in wanted[name]:
                raw = decompress_basket(blob_by_span[basket.span])
                lo = max(start, basket.first_entry) - basket.first_entry
                hi = min(stop, basket.end_entry) - basket.first_entry
                pieces.append(
                    raw[lo * branch.event_size : hi * branch.event_size]
                )
            out[name] = b"".join(pieces)
        return out
