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

:class:`ClusterScan` is the same cache refilled ``lanes`` clusters at
a time, for files that store their clusters (the v2 ntuple): each lane
fetches its cluster's spans (one coalesced multi-range request through
whatever fetcher is plugged in — page cache, transfer engine and
retries compose underneath), verifies and decodes them, and charges
its decompression CPU concurrently with the other lanes' network
waits. On a 300 ms WAN path that overlap is most of the win.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.concurrency import Sleep, bounded_gather
from repro.errors import PageChecksumError, RootIOError
from repro.rootio.treefile import TreeFileReader, read_rows

__all__ = ["TTreeCache", "ClusterScan"]


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
        self.branches = [self.meta.branch(name) for name in self.branch_names]
        self.entries_per_cluster = entries_per_cluster
        self.learn_entries = min(learn_entries, self.meta.n_entries)
        #: Decode basket payloads (off for timing-only benchmark runs
        #: against synthetic content that is not real zlib data).
        self.decode = decode
        #: When set, every refill sleeps uncompressed_bytes/bandwidth —
        #: the decompression CPU model (bytes/second).
        self.decompress_bandwidth = decompress_bandwidth

        self._window: Tuple[int, int] = (0, 0)
        #: Per branch: (name, event_size, the window's records — ``None``
        #: when not decoding).
        self._rows: List[Tuple[str, int, Optional[bytes]]] = []
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
        at = entry - self._window[0]
        out = {}
        for name, size, rows in self._rows:
            out[name] = (
                None if rows is None else rows[at * size : (at + 1) * size]
            )
        return out

    # -- refill machinery ----------------------------------------------------------

    def _refill(self, entry: int):
        start = entry
        stop = min(entry + self.entries_per_cluster, self.meta.n_entries)
        # The learning phase reads one basket at a time, per branch —
        # the un-optimised access pattern.
        learning = entry < self.learn_entries
        if learning:
            stop = min(stop, self.learn_entries)
        rows, blobs, uncompressed = yield from read_rows(
            self.reader.fetcher, self.branches, start, stop,
            self.decode, vectored=not learning,
        )
        if learning:
            self.stats["single_reads"] += len(blobs)
        else:
            self.stats["vector_reads"] += 1
        self.stats["bytes_fetched"] += sum(len(blob) for blob in blobs)
        self.stats["bytes_decompressed"] += uncompressed
        self._install(start, stop, [rows])
        self.stats["refills"] += 1
        if self.decompress_bandwidth:
            cost = uncompressed / self.decompress_bandwidth
            if cost > 0:
                yield Sleep(cost)

    def _install(self, start: int, stop: int, parts: list) -> None:
        """Serve [start, stop) from ``parts``, the ``{branch: rows}``
        of its consecutive windows."""
        self._window = (start, stop)
        self._rows = [
            (
                branch.name,
                branch.event_size,
                b"".join([part[branch.name] for part in parts])
                if self.decode else None,
            )
            for branch in self.branches
        ]


class ClusterScan(TTreeCache):
    """Cluster-granular read cache with parallel decode lanes.

    Each refill loads the ``lanes`` clusters from the one holding the
    entry on — the file's stored clusters, or ``entries_per_cluster``
    windows when it stores none — each one a lane over
    :func:`~repro.concurrency.bounded_gather`. ``events`` clamps the
    scan: refills load no rows past it.
    """

    def __init__(
        self,
        reader: TreeFileReader,
        branch_names: Sequence[str] = (),
        lanes: int = 2,
        decode: bool = True,
        decompress_bandwidth: Optional[float] = None,
        metrics=None,
        clock=None,
        events: Optional[int] = None,
    ):
        super().__init__(
            reader,
            branch_names,
            decode=decode,
            decompress_bandwidth=decompress_bandwidth,
        )
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.lanes = lanes
        self.metrics = metrics
        self.clock = clock
        n_entries = self.meta.n_entries
        self.stop = (
            n_entries if events is None
            else max(1, min(int(events), n_entries))
        )
        self._clusters = list(self.meta.clusters(self.entries_per_cluster))
        self._firsts = [lo for lo, _ in self._clusters]
        self.stats.update(
            clusters_decoded=0, pages_fetched=0, checksum_failures=0
        )

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(f"ntuple.{name}").inc(amount)

    def _refill(self, entry: int):
        """Load the next ``lanes`` clusters concurrently."""
        # Past the clamp, the entry itself is still served.
        limit = max(self.stop, entry + 1)
        first = bisect_right(self._firsts, entry) - 1
        windows = [
            (lo, min(hi, limit))
            for lo, hi in self._clusters[first : first + self.lanes]
            if lo < limit
        ]
        started = self.clock() if self.clock is not None else None
        outcomes = yield from bounded_gather(
            [partial(self._cluster_job, lo, hi) for lo, hi in windows],
            limit=self.lanes,
            name="ntuple-lane",
        )
        parts = []
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            parts.append(outcome.value)
        self._install(windows[0][0], windows[-1][1], parts)
        self.stats["refills"] += 1
        if started is not None and self.metrics is not None:
            self.metrics.histogram(
                "request.phase_seconds", phase="ntuple-decode"
            ).observe(self.clock() - started)

    def _cluster_job(self, lo: int, hi: int):
        """One lane: fetch, verify, decode, charge CPU for one cluster."""
        try:
            rows, blobs, uncompressed = yield from read_rows(
                self.reader.fetcher, self.branches, lo, hi, self.decode
            )
        except PageChecksumError:
            self.stats["checksum_failures"] += 1
            self._count("checksum_failures_total")
            raise
        fetched = sum(len(blob) for blob in blobs)
        self.stats["vector_reads"] += 1
        self.stats["pages_fetched"] += len(blobs)
        self.stats["bytes_fetched"] += fetched
        self.stats["bytes_decompressed"] += uncompressed
        self.stats["clusters_decoded"] += 1
        self._count("pages_fetched_total", len(blobs))
        self._count("bytes_fetched_total", fetched)
        self._count("clusters_decoded_total")
        if self.decompress_bandwidth:
            cost = uncompressed / self.decompress_bandwidth
            if cost > 0:
                yield Sleep(cost)
        return rows
