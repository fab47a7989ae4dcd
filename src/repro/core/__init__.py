"""davix core: the paper's contribution (pool, vectored I/O, failover).

Public surface:

* :class:`Context` / :class:`RequestParams` / :class:`TransferConfig`
  — configuration;
* :class:`DavixClient` — synchronous facade over any runtime;
* :class:`DavFile` / :class:`DavPosix` — effect-level file and
  namespace APIs;
* :class:`TransferEngine` — the pipelined read-ahead window behind
  ``DavFile.prefetch`` / ``TransferConfig(read_ahead=True)``;
* :func:`with_failover` / :func:`multistream_download` — Metalink
  strategies;
* :meth:`DavixClient.get_many` — pool-based parallel dispatch (Fig. 2),
  a :func:`~repro.concurrency.bounded_gather` of whole-object reads;
* :func:`plan_chunks` — the one chunk planner under multi-stream and
  third-party copy;
* :func:`pipeline_requests` — the HTTP-pipelining baseline.
"""

from repro._lazy import exports

_EXPORTS = {
    "DavixClient": ".client",
    "Context": ".context",
    "RequestParams": ".context",
    "TransferConfig": ".transfer",
    "TransferEngine": ".engine",
    "with_failover": ".failover",
    "DavFile": ".file",
    "FileStat": ".file",
    "MultistreamResult": ".multistream",
    "StreamStats": ".multistream",
    "multistream_download": ".multistream",
    "pipeline_requests": ".pipelining",
    "PoolStats": ".pool",
    "SessionPool": ".pool",
    "DavPosix": ".posix",
    "Session": ".session",
    "StaleSession": ".session",
    "open_session": ".session",
    "PerfMarker": ".tpc",
    "TpcSummary": ".tpc",
    "parse_marker_stream": ".tpc",
    "plan_chunks": "repro.http",
    "CoalescedRange": ".vectored",
    "Fragment": ".vectored",
    "PartTable": ".vectored",
    "VectorPlan": ".vectored",
    "plan_vector": ".vectored",
    "scatter_parts": ".vectored",
    "missing_ranges": ".vectored",
    "BreakerBoard": "repro.resilience",
    "BreakerConfig": "repro.resilience",
    "BreakerState": "repro.resilience",
    "CircuitBreaker": "repro.resilience",
    "Deadline": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "RetrySchedule": "repro.resilience",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
