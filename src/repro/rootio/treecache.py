"""TTreeCache: cluster prefetch feeding vectored reads (paper Fig. 3).

ROOT's TTreeCache learns which branches an analysis touches, then
prefetches *all* their baskets for the next window of entries in one
vectored request. That request is what davix executes as a single HTTP
multi-range query — the mechanism the paper credits for "drastically
reducing the number of remote network I/O operations".

This implementation mirrors the behaviourally relevant parts:

* a **learning phase**: the first ``learn_entries`` entries fetch each
  basket individually (many small reads — the pattern HTTP suffers
  from without this optimisation);
* after learning, entry windows of ``entries_per_cluster`` are filled
  with one ``fetch_vec`` call each;
* an optional CPU model: each refill can charge decompression time to
  the simulated clock (``Sleep``), so benchmark timing includes the
  client-side cost the paper's job pays.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.concurrency import Sleep
from repro.errors import RootIOError
from repro.rootio.treefile import TreeFileReader
from repro.rootio.zipfmt import decompress_basket

__all__ = ["TTreeCache"]


class TTreeCache:
    """Cluster-granular read cache over a :class:`TreeFileReader`."""

    def __init__(
        self,
        reader: TreeFileReader,
        branch_names: Sequence[str] = (),
        entries_per_cluster: int = 100,
        learn_entries: int = 0,
        decode: bool = True,
        decompress_bandwidth: Optional[float] = None,
    ):
        if reader.meta is None:
            raise RootIOError("reader must be open()ed before caching")
        if entries_per_cluster < 1:
            raise ValueError("entries_per_cluster must be >= 1")
        if learn_entries < 0:
            raise ValueError("learn_entries must be >= 0")
        self.reader = reader
        self.meta = reader.meta
        self.branch_names = list(branch_names) or self.meta.branch_names
        self.entries_per_cluster = entries_per_cluster
        self.learn_entries = min(learn_entries, self.meta.n_entries)
        #: Decode basket payloads (off for timing-only benchmark runs
        #: against synthetic content that is not real zlib data).
        self.decode = decode
        #: When set, every refill sleeps uncompressed_bytes/bandwidth —
        #: the decompression CPU model (bytes/second).
        self.decompress_bandwidth = decompress_bandwidth

        self._window: Tuple[int, int] = (0, 0)
        #: Per branch of the window: (event_size, first entry of each
        #: basket, each basket's payload — ``None`` when not decoding).
        self._index: Dict[str, Tuple[int, List[int], list]] = {}
        self.stats = {
            "refills": 0,
            "vector_reads": 0,
            "single_reads": 0,
            "bytes_fetched": 0,
            "bytes_decompressed": 0,
        }

    # -- public ----------------------------------------------------------------

    def read_entry(self, entry: int):
        """Effect sub-op: {branch: record bytes} for one entry.

        Record bytes are ``None`` when ``decode`` is off.
        """
        if not 0 <= entry < self.meta.n_entries:
            raise RootIOError(f"entry {entry} out of range")
        if not self._window[0] <= entry < self._window[1]:
            yield from self._refill(entry)
        out = {}
        for name, (size, firsts, payloads) in self._index.items():
            at = bisect_right(firsts, entry) - 1
            payload = payloads[at]
            if payload is None:
                out[name] = None
            else:
                index = entry - firsts[at]
                out[name] = payload[index * size : (index + 1) * size]
        return out

    # -- refill machinery ----------------------------------------------------------

    def _refill(self, entry: int):
        start = entry
        stop = min(entry + self.entries_per_cluster, self.meta.n_entries)
        learning = entry < self.learn_entries
        if learning:
            # Learning phase reads one basket at a time, per branch —
            # the un-optimised access pattern.
            stop = min(stop, self.learn_entries)
            yield from self._refill_single(start, stop)
        else:
            yield from self._refill_vectored(start, stop)
        self._window = (start, stop)
        self.stats["refills"] += 1
        if self.decompress_bandwidth:
            cost = self._last_uncompressed / self.decompress_bandwidth
            if cost > 0:
                yield Sleep(cost)

    def _needed_baskets(self, start: int, stop: int):
        """[(branch, its baskets tiling [start, stop))], gaps refused."""
        needed = []
        for name in self.branch_names:
            branch = self.meta.branch(name)
            baskets = branch.baskets_for_entries(start, stop)
            covered = start
            for basket in baskets:
                if basket.first_entry > covered:
                    break
                covered = basket.end_entry
            if covered < stop:
                raise RootIOError(
                    f"branch {name}: no basket for entry {covered}"
                )
            needed.append((branch, baskets))
        return needed

    def _refill_vectored(self, start: int, stop: int):
        needed = self._needed_baskets(start, stop)
        spans = sorted(
            {basket.span for _, baskets in needed for basket in baskets}
        )
        blobs = yield from self.reader.fetcher.fetch_vec(spans)
        blob_by_span = dict(zip(spans, blobs))
        self.stats["vector_reads"] += 1
        self._install(needed, blob_by_span)

    def _refill_single(self, start: int, stop: int):
        needed = self._needed_baskets(start, stop)
        blob_by_span = {}
        for _, baskets in needed:
            for basket in baskets:
                if basket.span in blob_by_span:
                    continue
                blob = yield from self.reader.fetcher.fetch(*basket.span)
                blob_by_span[basket.span] = blob
                self.stats["single_reads"] += 1
        self._install(needed, blob_by_span)

    def _install(self, needed, blob_by_span) -> None:
        self._index.clear()
        uncompressed = 0
        for branch, baskets in needed:
            payloads = []
            for basket in baskets:
                blob = blob_by_span[basket.span]
                self.stats["bytes_fetched"] += len(blob)
                uncompressed += basket.uncompressed
                payloads.append(
                    decompress_basket(blob) if self.decode else None
                )
            self._index[branch.name] = (
                branch.event_size,
                [basket.first_entry for basket in baskets],
                payloads,
            )
        self._last_uncompressed = uncompressed
        self.stats["bytes_decompressed"] += uncompressed
