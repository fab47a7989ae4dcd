"""Multi-stream parallel download (paper Section 2.4, second strategy).

The Metalink lists N replicas; davix splits the object into fixed-size
chunks (:func:`~repro.http.ranges.plan_chunks`) and runs one worker
stream per replica (lanes of one
:func:`~repro.concurrency.bounded_gather`), each pulling the next
unclaimed chunk (work stealing, so a slow replica only slows its
current chunk). A stream that fails hands its chunk back to the
survivors and retires — where third-party copy retries a chunk in
place, here another replica holds the same bytes. The result is
assembled in order and verified against the Metalink's adler32
checksum.

The paper notes the trade-off explicitly: client throughput is
maximised, but server load grows with the stream count — the ML-MS
benchmark reproduces both sides.
"""

from __future__ import annotations

import zlib
from collections import deque
from functools import partial
from typing import Dict, List, Optional

from repro.concurrency import bounded_gather
from repro.core.context import Context, RequestParams
from repro.core.file import DavFile
from repro.core.failover import FAILOVER_ERRORS, resolve_replicas
from repro.errors import (
    AllReplicasFailed,
    ChecksumMismatch,
    HttpProtocolError,
    RequestError,
)
from repro.http import Url, plan_chunks
from repro.metalink import Metalink

__all__ = ["StreamStats", "MultistreamResult", "multistream_download"]


class StreamStats:
    """Per-replica accounting for one multi-stream download."""

    def __init__(self, url: Url):
        self.url = url
        self.chunks = 0
        self.bytes = 0
        self.failed = False

    def __repr__(self) -> str:
        state = "failed" if self.failed else "ok"
        return (
            f"<StreamStats {self.url.host} chunks={self.chunks} "
            f"bytes={self.bytes} {state}>"
        )


class MultistreamResult:
    """The assembled object plus per-stream statistics."""

    def __init__(self, data: bytes, streams: List[StreamStats]):
        self.data = data
        self.streams = streams

    @property
    def size(self) -> int:
        return len(self.data)

    def bytes_by_host(self) -> Dict[str, int]:
        return {s.url.host: s.bytes for s in self.streams}


def multistream_download(
    context: Context,
    url,
    params: Optional[RequestParams] = None,
    metalink: Optional[Metalink] = None,
    metalink_url=None,
):
    """Effect op: download ``url`` from all its replicas in parallel.

    The Metalink is fetched from ``metalink_url`` (or the primary) when
    not supplied. Requires the Metalink to carry the file size.
    Raises :class:`AllReplicasFailed` when chunks remain after every
    stream died, :class:`ChecksumMismatch` when verification fails.
    """
    params = params or context.params
    primary = Url.parse(url)

    if metalink is None:
        metalink = yield from DavFile(
            context, metalink_url or primary, params
        ).get_metalink()

    entry = metalink.single()
    if entry.size is None:
        raise RequestError(
            f"{primary.path}: metalink lacks a size, cannot chunk"
        )
    size = entry.size
    replicas = resolve_replicas(metalink, primary)
    skipped = [
        replica
        for replica in replicas
        if context.is_blacklisted(replica.origin)
        or (
            params.breaker_enabled
            and context.breakers.is_blocked(replica.origin)
        )
    ]
    if skipped:
        context.metrics.counter("multistream.replica_skips_total").inc(
            len(skipped)
        )
    replicas = [r for r in replicas if r not in skipped]
    if not replicas:
        raise AllReplicasFailed(primary.path, [])
    replicas = replicas[: params.multistream_max_streams]

    queue = deque(plan_chunks(size, params.multistream_chunk))
    assembly = bytearray(size)
    stats = [StreamStats(replica) for replica in replicas]
    metrics = context.metrics
    metrics.counter("multistream.downloads_total").inc()
    metrics.counter("multistream.streams_total").inc(len(replicas))

    def worker(replica: Url, stat: StreamStats):
        handle = DavFile(context, replica, params)
        # Root span: worker streams interleave on the scheduler, so
        # implicit stack parenting would cross-nest them.
        span = context.tracer.start(
            "multistream-worker", root=True, host=replica.host
        )
        try:
            while True:
                try:
                    offset, length = queue.popleft()
                except IndexError:
                    return  # no chunks left (popleft is atomic under threads)
                try:
                    data = yield from handle.pread(offset, length)
                    if len(data) != length:
                        raise HttpProtocolError(
                            f"{replica}: {len(data)} bytes of a "
                            f"{length}-byte chunk at {offset}"
                        )
                except Exception as exc:
                    # Whatever went wrong, the chunk goes back to the
                    # surviving streams and this one retires (the
                    # gather records its error). Only an unavailable
                    # replica is blacklisted for later requests, not a
                    # short or forbidden one.
                    queue.appendleft((offset, length))
                    stat.failed = True
                    if isinstance(exc, FAILOVER_ERRORS):
                        context.blacklist(replica.origin)
                    metrics.counter(
                        "multistream.stream_failures_total"
                    ).inc()
                    raise
                assembly[offset : offset + length] = data
                stat.chunks += 1
                stat.bytes += length
                metrics.counter(
                    "multistream.chunks_total", host=replica.host
                ).inc()
                metrics.counter(
                    "multistream.bytes_total", host=replica.host
                ).inc(length)
        finally:
            span.end(chunks=stat.chunks, failed=stat.failed)

    outcomes = []
    if size > 0:
        outcomes = yield from bounded_gather(
            [partial(worker, *pair) for pair in zip(replicas, stats)],
            limit=len(replicas),
            name="multistream",
        )
    if queue:
        raise AllReplicasFailed(
            primary.path,
            [
                (str(stat.url), outcome.error)
                for stat, outcome in zip(stats, outcomes)
                if not outcome.ok
            ],
        )

    data = bytes(assembly)
    if params.verify_checksum:
        expected = entry.checksum("adler32")
        if expected:
            actual = f"{zlib.adler32(data) & 0xFFFFFFFF:08x}"
            if actual != expected.lower():
                raise ChecksumMismatch(primary.path, expected, actual)
    return MultistreamResult(data, stats)
