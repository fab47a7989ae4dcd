"""davix context and request parameters.

Mirrors the public surface of the original libdavix: a
:class:`Context` owns shared state (the session pool, the metric
registry) and a :class:`RequestParams` bundles per-operation behaviour
— retries, deadlines, keep-alive, vectored-I/O coalescing and the
Metalink strategy from Section 2.4 of the paper.

The Context is also the observability composition root:
``Context(params=…, metrics=…, tracer=…)`` wires one
:class:`~repro.obs.MetricsRegistry` and one
:class:`~repro.obs.Tracer` through the whole request path (pool,
sessions, vectored I/O, failover) — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.pagecache import PageCache
from repro.core.pool import SessionPool
from repro.core.transfer import TransferConfig
from repro.net.options import TcpOptions
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import BreakerBoard, BreakerConfig, RetryPolicy

__all__ = ["RequestParams", "TransferConfig", "Context"]

#: Seconds a failed replica stays blacklisted.
BLACKLIST_TTL = 30.0


@dataclass(frozen=True)
class RequestParams:
    """Per-operation behaviour knobs (davix ``RequestParams``)."""

    # -- connection / timing ------------------------------------------------
    operation_timeout: Optional[float] = 120.0
    keep_alive: bool = True
    #: TCP options of every fresh connection. ``connect_timeout`` bounds
    #: the connect on both runtimes (clamped by ``deadline``); the rest
    #: tune the simulated transport.
    tcp_options: TcpOptions = TcpOptions()

    # -- resilience (retry/backoff, deadline, breaker) ------------------------
    #: Attempts and backoff on transient failures (5xx, stale or
    #: refused connections). The default is one immediate retry.
    retry_policy: RetryPolicy = RetryPolicy(
        max_attempts=2,
        base_delay=0.0,
        max_delay=1.0,
        multiplier=1.0,
        jitter="none",
    )
    #: Total wall-time budget for one logical operation (seconds),
    #: covering every retry, redirect and byte read. None = unbounded.
    deadline: Optional[float] = None
    #: Consult the context's per-endpoint circuit breakers.
    breaker_enabled: bool = True

    # -- vectored I/O (Section 2.3) -------------------------------------------
    #: Merge fragments whose gap is below this many bytes.
    vector_gap: int = 512

    # -- transfer engine ------------------------------------------------------
    #: The unified I/O-engine bundle (parallelism, read-ahead, page
    #: cache); the default is serial, no read-ahead, no cache.
    transfer: TransferConfig = TransferConfig()

    # -- Metalink (Section 2.4) --------------------------------------------------
    #: Verify the Metalink adler32 checksum after multi-stream GETs.
    verify_checksum: bool = True
    #: Chunk size for multi-stream downloads.
    multistream_chunk: int = 4 * 1024 * 1024
    #: Maximum parallel streams (one per distinct replica).
    multistream_max_streams: int = 4

    # -- auth / transport -----------------------------------------------------
    #: Bearer token attached as ``Authorization: Bearer <token>`` to
    #: requests to the operation's own origin, never across a redirect
    #: to another one (stands in for the grid's X.509 delegation).
    auth_token: Optional[str] = None
    #: TLS cost model for https/davs URLs (None -> model defaults).
    tls: Optional[object] = None
    #: Forward-proxy URL; all plain-http traffic goes through it
    #: (absolute-URI requests, one pooled connection to the proxy).
    proxy: Optional[str] = None

    def __post_init__(self):
        if self.vector_gap < 0:
            raise ValueError("vector_gap must be >= 0")
        if self.multistream_chunk < 1 or self.multistream_max_streams < 1:
            raise ValueError("multistream settings must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 seconds")

    def replace(self, **changes) -> "RequestParams":
        """A copy with the given fields replaced (the uniform override
        primitive every client method routes through)."""
        return replace(self, **changes)


class Context:
    """Shared davix state: pool, blacklist, breakers, metrics, tracer.

    One Context per client host; cheap to create, intended to be
    long-lived so the pool's recycled sessions accumulate (the paper's
    "session recycling" benefit). It is the single composition root:
    the session pool counts into ``metrics``, and every request
    carries spans produced by ``tracer``.
    """

    def __init__(
        self,
        params: Optional[RequestParams] = None,
        clock=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        breaker: Optional[BreakerConfig] = None,
        telemetry: Optional["TelemetrySink"] = None,
    ):
        self.params = params or RequestParams()
        #: Injected time source (simulated or monotonic); settable so
        #: blacklist TTLs follow the right clock.
        self.clock = clock or (lambda: 0.0)
        #: The metric registry every layer on this context records into.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Cluster-telemetry sink: when set, every finished span
        #: streams into it (a cheap reference enqueue), and
        #: :meth:`close` flushes the backlog, closed by a snapshot of
        #: ``metrics``, deterministically.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.clock = self._now
        #: The span producer; follows ``self.clock`` even when that is
        #: reassigned later (DavixClient points it at the runtime). A
        #: request's one record is its span, and so is a proxy's cache
        #: split and a third-party copy's result:
        #: :func:`~repro.obs.events.request_events` folds the finished
        #: spans into rows, and SLO verdicts read those rows
        #: (:func:`~repro.obs.slo.slo_verdicts`).
        self.tracer = tracer if tracer is not None else Tracer(
            clock=self._now,
            node=telemetry.node if telemetry is not None else None,
        )
        if telemetry is not None:
            self.tracer.sink = telemetry.record_span
        self.pool = SessionPool(metrics=self.metrics)
        #: Per-endpoint circuit breakers; opening one drops the
        #: endpoint's idle pooled sessions along with it.
        self.breakers = BreakerBoard(
            self.metrics,
            config=breaker,
            clock=self._now,
            on_open=self.pool.purge_origin,
        )
        #: The shared client page cache, created lazily by the first
        #: file whose :class:`TransferConfig` arms it
        #: (``page_cache_bytes > 0``); one per context so every
        #: :class:`~repro.core.file.DavFile` of the same URL shares
        #: pages.
        self.page_cache: Optional[PageCache] = None
        #: policy seed -> shared RNG stream for backoff jitter, so
        #: repeated runs on a deterministic clock replay identical
        #: delay sequences across all requests.
        self._retry_rngs: Dict[int, random.Random] = {}
        #: origin -> expiry time of the blacklist entry.
        self._blacklist: Dict[Tuple, float] = {}
        self._closed = False

    def _now(self) -> float:
        return self.clock()

    def page_cache_for(
        self, transfer: TransferConfig
    ) -> Optional[PageCache]:
        """The shared :class:`PageCache` when ``transfer`` arms one.

        Created on first demand (the first arming config fixes budget
        and page size — it is one shared tier, not a per-file cache);
        returns ``None`` while ``page_cache_bytes`` is 0.
        """
        if transfer.page_cache_bytes <= 0:
            return None
        if self.page_cache is None:
            self.page_cache = PageCache(
                budget_bytes=transfer.page_cache_bytes,
                page_size=transfer.page_size,
                metrics=self.metrics,
                clock=self._now,
            )
        return self.page_cache

    def retry_rng(self, policy: RetryPolicy) -> random.Random:
        """The shared jitter RNG for ``policy`` (one stream per seed)."""
        rng = self._retry_rngs.get(policy.seed)
        if rng is None:
            rng = random.Random(policy.seed)
            self._retry_rngs[policy.seed] = rng
        return rng

    # -- blacklist (failed replicas) ----------------------------------------

    def blacklist(self, origin: Tuple, ttl: Optional[float] = None) -> None:
        """Mark an origin as recently failed."""
        ttl = BLACKLIST_TTL if ttl is None else ttl
        self._blacklist[origin] = self._now() + ttl

    def is_blacklisted(self, origin: Tuple) -> bool:
        expiry = self._blacklist.get(origin)
        if expiry is None:
            return False
        if self._now() >= expiry:
            del self._blacklist[origin]
            return False
        return True

    # -- telemetry flush ------------------------------------------------------

    def flush_telemetry(self, target=None, final: bool = True):
        """Drain the telemetry sink (if one is wired) to its collector.

        ``final=True`` (the close-time default) first snapshots the
        metric registry into the batch, so the collector's last
        snapshot for this node carries the context's complete
        counters. Flushing is deterministic — records encode in emit
        order with canonical JSON — which is what keeps seeded chaos
        runs byte-identical. Returns the encoded records (empty when
        no sink is wired).
        """
        if self.telemetry is None:
            return []
        if final:
            self.telemetry.record_metrics(self.metrics)
        return self.telemetry.flush(target=target)

    def close(self) -> None:
        """Release held resources and flush telemetry (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush_telemetry()
