"""The paper's workload: a ROOT analysis job reading ~12 000 events.

Section 3: "we executed a High energy analysis job based on ROOT
framework reading a fraction or the totality of around 12000 particles
events from a 700 MBytes root file", once over davix/HTTP and once over
XRootD. This module implements that job for both protocols on top of
the shared TTreeCache.

Calibration (documented in DESIGN.md/EXPERIMENTS.md):

* per-event CPU + decompression are set so the LAN run lands near the
  paper's ~97 s;
* both protocols refill the TTreeCache synchronously (one vectored
  request per 100-event cluster) by default; ``davix_readahead`` /
  ``xrootd_readahead`` arm each side's client-level read-ahead
  (davix: the pipelined transfer engine; XRootD: the sliding window);
* XRootD's *sliding-window buffering* is modeled at the transport
  level: its connections run with a WAN-tuned TCP window
  (``XROOTD_TCP``), while the HTTP stack uses 2014-era OS defaults
  (``DAVIX_TCP``). The window only binds when the bandwidth-delay
  product exceeds it — i.e. on the transatlantic link — which is
  exactly the paper's observation: parity on LAN and GEANT, XRootD
  ~17.5 % ahead on the WAN;
* the small XRootD client-side per-request overhead reproduces davix's
  0.7 % LAN edge.

Every knob is an :class:`AnalysisConfig` field, so the ablation benches
can switch the mechanisms off one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.concurrency import Now, Sleep
from repro.core.context import Context, RequestParams, TransferConfig
from repro.net.options import TcpOptions
from repro.rootio.clusterscan import ClusterScan
from repro.rootio.fetchers import DavixFetcher, XrootdFetcher
from repro.rootio.ntuple import NTupleReader
from repro.rootio.tree import TreeMeta
from repro.rootio.treecache import TTreeCache
from repro.rootio.treefile import TreeFileReader
from repro.xrootd.client import XrdClient

__all__ = [
    "DAVIX_TCP",
    "XROOTD_TCP",
    "AnalysisConfig",
    "AnalysisReport",
    "davix_analysis",
    "xrootd_analysis",
]

#: 2014-era HTTP client stacks rode the OS default socket buffers.
DAVIX_TCP = TcpOptions(max_window=2_500_000)
#: XRootD ships WAN-tuned window/buffer settings.
XROOTD_TCP = TcpOptions(max_window=4_200_000)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the analysis job (defaults = paper calibration)."""

    #: Fraction of the tree's entries to read (the paper sweeps this).
    fraction: float = 1.0
    #: Pure analysis CPU per event, seconds.
    per_event_cpu: float = 0.0069
    #: Client-side decompression throughput (bytes/s of uncompressed).
    decompress_bandwidth: float = 200e6
    #: TTreeCache cluster size in entries.
    entries_per_cluster: int = 100
    #: Entries served by per-basket reads before vectoring kicks in.
    learn_entries: int = 100
    #: Decode basket payloads (False for layout-only timing runs).
    decode: bool = False
    #: Transport tuning per protocol (see module docstring).
    davix_tcp: TcpOptions = DAVIX_TCP
    xrootd_tcp: TcpOptions = XROOTD_TCP
    #: XRootD client per-request scheduling cost, seconds.
    xrootd_request_overhead: float = 0.005
    #: Optional client-level read-ahead window for XRootD (bytes);
    #: None = rely on the transport window alone (the Fig. 4 setup).
    xrootd_readahead: Optional[int] = None
    #: Optional speculative window for davix's transfer engine
    #: (bytes); None = the synchronous vectored refills of the paper's
    #: 2014 client. Set, it arms ``TransferConfig(read_ahead=True)``
    #: and pipelines HTTP multi-range fetches ahead of consumption.
    davix_readahead: Optional[int] = None
    #: Concurrent in-flight requests for davix's engine paths.
    davix_max_inflight: int = 4
    #: On-disk format: "basket" (v1 TTreeCache) or "ntuple"
    #: (v2 ClusterScan with parallel decode lanes).
    format: str = "basket"
    #: Branch/column selection; empty = read every branch.
    columns: Tuple[str, ...] = ()
    #: Parallel per-cluster decode lanes (v2 only; 1 = serial).
    decode_lanes: int = 2

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.per_event_cpu < 0 or self.xrootd_request_overhead < 0:
            raise ValueError("CPU costs must be >= 0")
        if self.decompress_bandwidth <= 0:
            raise ValueError("decompress_bandwidth must be > 0")
        if self.format not in ("basket", "ntuple"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.decode_lanes < 1:
            raise ValueError("decode_lanes must be >= 1")

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class AnalysisReport:
    """Outcome of one analysis-job execution."""

    protocol: str
    events_read: int
    wall_seconds: float
    bytes_fetched: int
    remote_reads: int
    refills: int
    vector_reads: int
    single_reads: int


def _consumption_plan(
    meta: TreeMeta, events: int, cluster: int, branch_names=()
):
    """The access sequence in *consumption* order: cluster by cluster,
    not global file order (branches are laid out sequentially)."""
    plan = []
    for start, stop in meta.clusters(cluster):
        if start >= events:
            break
        plan.extend(
            meta.segments_for_entries(
                start, min(stop, events), branch_names
            )
        )
    return plan


def _open_cache(fetcher, cfg: AnalysisConfig, meta, metrics=None, clock=None):
    """Effect sub-op: the format's reader + cache -> (cache, events, spans).

    ``spans`` is the consumption-order read-ahead plan, ready for
    ``fetcher.plan`` when a client-level read-ahead window is armed.
    Both caches expose the same ``read_entry`` surface, so the caller's
    event loop never sees which format it is scanning.
    """
    if cfg.format == "ntuple":
        reader = NTupleReader(fetcher)
        if meta is None:
            meta = yield from reader.open()
        else:
            reader.meta = meta
        events = max(1, int(meta.n_entries * cfg.fraction))
        cache = ClusterScan(
            reader,
            branch_names=cfg.columns,
            lanes=cfg.decode_lanes,
            decode=cfg.decode,
            decompress_bandwidth=cfg.decompress_bandwidth,
            metrics=metrics,
            clock=clock,
        )
        spans = cache.plan(events)
    else:
        reader = TreeFileReader(fetcher)
        if meta is None:
            meta = yield from reader.open()
        else:
            reader.meta = meta
        events = max(1, int(meta.n_entries * cfg.fraction))
        cache = TTreeCache(
            reader,
            branch_names=cfg.columns,
            entries_per_cluster=cfg.entries_per_cluster,
            learn_entries=cfg.learn_entries,
            decode=cfg.decode,
            decompress_bandwidth=cfg.decompress_bandwidth,
        )
        spans = _consumption_plan(
            meta, events, cfg.entries_per_cluster, cfg.columns
        )
    return cache, events, spans


def _run_job(cache: TTreeCache, events: int, cfg: AnalysisConfig):
    """Effect sub-op shared by both protocols: the event loop."""
    start = yield Now()
    for entry in range(events):
        yield from cache.read_entry(entry)
        if cfg.per_event_cpu > 0:
            yield Sleep(cfg.per_event_cpu)
    end = yield Now()
    return end - start


def davix_analysis(
    context: Context,
    url,
    cfg: AnalysisConfig,
    meta: Optional[TreeMeta] = None,
    params: Optional[RequestParams] = None,
):
    """Effect op: run the analysis over davix/HTTP -> AnalysisReport.

    ``meta`` short-circuits index parsing for layout-only runs (the
    server hosts sized-but-synthetic content).
    """
    params = params or context.params.replace(tcp_options=cfg.davix_tcp)
    if cfg.davix_readahead:
        params = params.replace(
            transfer=TransferConfig(
                max_inflight=cfg.davix_max_inflight,
                read_ahead=True,
                window_bytes=cfg.davix_readahead,
            )
        )
    fetcher = DavixFetcher(context, url, params)
    cache, events, spans = yield from _open_cache(
        fetcher, cfg, meta, metrics=context.metrics, clock=context._now
    )
    if cfg.davix_readahead:
        fetcher.plan(spans)
    wall = yield from _run_job(cache, events, cfg)
    yield from fetcher.drain()
    return AnalysisReport(
        protocol="davix",
        events_read=events,
        wall_seconds=wall,
        bytes_fetched=fetcher.bytes_fetched,
        remote_reads=fetcher.reads,
        refills=cache.stats["refills"],
        vector_reads=cache.stats["vector_reads"],
        single_reads=cache.stats["single_reads"],
    )


def xrootd_analysis(
    endpoint: Tuple[str, int],
    path: str,
    cfg: AnalysisConfig,
    meta: Optional[TreeMeta] = None,
):
    """Effect op: run the analysis over XRootD -> AnalysisReport."""
    client = yield from XrdClient.connect(endpoint, cfg.xrootd_tcp)
    file = yield from client.open(path)
    fetcher = XrootdFetcher(
        client,
        file,
        window_bytes=cfg.xrootd_readahead,
        request_overhead=cfg.xrootd_request_overhead,
    )
    cache, events, spans = yield from _open_cache(fetcher, cfg, meta)
    if cfg.xrootd_readahead:
        fetcher.plan(spans)
    wall = yield from _run_job(cache, events, cfg)
    yield from client.close_file(file)
    yield from client.disconnect()
    return AnalysisReport(
        protocol="xrootd",
        events_read=events,
        wall_seconds=wall,
        bytes_fetched=fetcher.bytes_fetched,
        remote_reads=fetcher.reads,
        refills=cache.stats["refills"],
        vector_reads=cache.stats["vector_reads"],
        single_reads=cache.stats["single_reads"],
    )
