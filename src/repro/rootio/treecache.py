"""TTreeCache: cluster prefetch feeding vectored reads (paper Fig. 3).

ROOT's TTreeCache learns which branches an analysis touches, then
prefetches *all* their baskets for the next window of entries in one
vectored request. That request is what davix executes as a single HTTP
multi-range query — the mechanism the paper credits for "drastically
reducing the number of remote network I/O operations".

This implementation mirrors the behaviourally relevant parts, for both
on-disk formats:

* the windows are :meth:`~repro.rootio.tree.TreeMeta.clusters`: the
  file's stored clusters (the v2 ntuple), or ``entries_per_cluster``
  entries from the one being read when it stores none (v1);
* a **learning phase**: the first ``learn_entries`` entries fetch each
  basket individually (many small reads — the pattern HTTP suffers
  from without this optimisation);
* after learning, each window is filled with one ``fetch_vec`` call;
* a refill loads ``lanes`` windows at once, each a lane over
  :func:`~repro.concurrency.bounded_gather` that fetches its spans
  (one coalesced multi-range request through whatever fetcher is
  plugged in — page cache, transfer engine and retries compose
  underneath), verifies and decodes them, and charges its
  decompression CPU concurrently with the other lanes' network waits.
  On a 300 ms WAN path that overlap is most of the win;
* an optional CPU model: each window can charge decompression time to
  the simulated clock (``Sleep``), so benchmark timing includes the
  client-side cost the paper's job pays.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.concurrency import Sleep, bounded_gather
from repro.errors import PageChecksumError, RootIOError
from repro.obs.metrics import MetricsRegistry
from repro.rootio.treefile import TreeFileReader, read_rows

__all__ = ["TTreeCache"]


class TTreeCache:
    """Cluster-granular read cache over a :class:`TreeFileReader`.

    ``events`` clamps the scan: refills load no rows past it. Every
    window counts the ``ntuple.*`` counters into ``metrics`` (a
    private registry unless one is given) and, with ``clock``, every
    refill observes the ``ntuple-decode`` phase there.
    """

    def __init__(
        self,
        reader: TreeFileReader,
        branch_names: Sequence[str] = (),
        entries_per_cluster: int = 100,
        learn_entries: int = 0,
        lanes: int = 1,
        decode: bool = True,
        decompress_bandwidth: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=None,
        events: Optional[int] = None,
    ):
        if reader.meta is None:
            raise RootIOError("reader must be open()ed before caching")
        if entries_per_cluster < 1:
            raise ValueError("entries_per_cluster must be >= 1")
        if learn_entries < 0:
            raise ValueError("learn_entries must be >= 0")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.reader = reader
        self.meta = reader.meta
        self.branch_names = list(branch_names) or self.meta.branch_names
        self.branches = [self.meta.branch(name) for name in self.branch_names]
        self.entries_per_cluster = entries_per_cluster
        self.learn_entries = min(learn_entries, self.meta.n_entries)
        self.lanes = lanes
        #: Decode basket payloads (off for timing-only benchmark runs
        #: against synthetic content that is not real zlib data).
        self.decode = decode
        #: When set, every window sleeps uncompressed_bytes/bandwidth —
        #: the decompression CPU model (bytes/second).
        self.decompress_bandwidth = decompress_bandwidth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        n_entries = self.meta.n_entries
        self.stop = (
            n_entries if events is None
            else max(1, min(int(events), n_entries))
        )

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
        """Load up to ``lanes`` windows from the one holding ``entry``."""
        # Past the clamp, the entry itself is still served.
        limit = max(self.stop, entry + 1)
        # The learning phase reads one basket at a time, per branch —
        # the un-optimised access pattern.
        learning = entry < self.learn_entries
        if learning:
            limit = min(limit, self.learn_entries)
        windows = [
            (lo, min(hi, limit))
            for lo, hi in islice(
                self.meta.clusters(self.entries_per_cluster, start=entry),
                self.lanes,
            )
            if lo < limit
        ]
        timed = self.clock is not None
        started = self.clock() if timed else None
        if len(windows) == 1:
            loads = [(yield from self._load(*windows[0], not learning))]
        else:
            outcomes = yield from bounded_gather(
                [
                    partial(self._load, lo, hi, not learning)
                    for lo, hi in windows
                ],
                limit=self.lanes,
                name="cache-lane",
            )
            loads = []
            for outcome in outcomes:
                if not outcome.ok:
                    raise outcome.error
                loads.append(outcome.value)
        # Counted here, once the lanes are done: on a thread runtime
        # each lane is a thread of its own.
        for _, blobs, fetched, uncompressed in loads:
            if learning:
                self.stats["single_reads"] += blobs
            else:
                self.stats["vector_reads"] += 1
            self.stats["bytes_fetched"] += fetched
            self.stats["bytes_decompressed"] += uncompressed
        self._window = (windows[0][0], windows[-1][1])
        self._rows = [
            (
                branch.name,
                branch.event_size,
                b"".join([load[0][branch.name] for load in loads])
                if self.decode else None,
            )
            for branch in self.branches
        ]
        self.stats["refills"] += 1
        if timed:
            self.metrics.histogram(
                "request.phase_seconds", phase="ntuple-decode"
            ).observe(self.clock() - started)

    def _load(self, lo: int, hi: int, vectored: bool):
        """One window: fetch, verify, decode, charge its CPU ->
        ``(rows, blobs fetched, their bytes, bytes inflated)``."""
        try:
            rows, blobs, uncompressed = yield from read_rows(
                self.reader.fetcher, self.branches, lo, hi, self.decode,
                vectored=vectored,
            )
        except PageChecksumError:
            self._count("checksum_failures_total")
            raise
        fetched = sum(len(blob) for blob in blobs)
        self._count("pages_fetched_total", len(blobs))
        self._count("bytes_fetched_total", fetched)
        self._count("clusters_decoded_total")
        if self.decompress_bandwidth:
            cost = uncompressed / self.decompress_bandwidth
            if cost > 0:
                yield Sleep(cost)
        return rows, len(blobs), fetched, uncompressed

    def _count(self, name: str, amount: int = 1) -> None:
        if amount:
            self.metrics.counter(f"ntuple.{name}").inc(amount)
