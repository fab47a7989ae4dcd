"""DavFile: remote-file operations over HTTP (the davix file API).

Implements the data-access surface the paper's analysis jobs use:

* ``stat`` via HEAD (PROPFIND fallback);
* full-object reads (optionally streamed into a sink);
* positional reads via single Range requests;
* **vectored reads** via multi-range requests (Section 2.3) with
  transparent fallback when the server lacks multi-range support;
* Metalink retrieval (Section 2.4).

Every method is an effect sub-op; :class:`~repro.core.client.DavixClient`
offers the synchronous facade.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency import bounded_gather
from repro.core import vectored
from repro.core.context import Context, RequestParams
from repro.core.engine import TransferEngine
from repro.core.request import execute_request
from repro.core.vectored import (
    PartTable,
    missing_ranges,
    plan_vector,
    scatter_parts,
)
from repro.errors import (
    FileNotFound,
    HttpParseError,
    HttpProtocolError,
    PermissionDenied,
    RequestError,
)
from repro.http import Headers, Request, Response, Url
from repro.http.headers import freshness_lifetime
from repro.http.multipart import MultipartStream, content_type_boundary
from repro.http.ranges import merge_spans, parse_content_range
from repro.metalink import METALINK_MEDIA_TYPE, Metalink, parse_metalink
from repro.server.webdav import parse_multistatus

__all__ = ["FileStat", "DavFile", "RangeSink", "get_ranges"]


@dataclass(frozen=True)
class FileStat:
    """POSIX-flavoured metadata of a remote resource."""

    size: int
    mtime: Optional[float]
    is_directory: bool
    etag: Optional[str] = None


def _total_of_416(response: Response) -> Optional[int]:
    """The object size a 416's ``Content-Range: bytes */N`` reveals —
    how a past-EOF request still teaches the caller the length."""
    value = (response.headers.get("Content-Range") or "").strip()
    match = re.fullmatch(r"bytes \*/([0-9]+)", value, re.IGNORECASE)
    return None if match is None else int(match[1])


class RangeSink:
    """The ``sink_factory`` of every ranged GET, and its decoded result.

    A ``multipart/byteranges`` 206 streams through a fresh
    :class:`~repro.http.multipart.MultipartStream` per attempt, so
    decode overlaps the transfer and the body is never joined; any
    other response is buffered by the session as usual.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._decoder: Optional[MultipartStream] = None
        #: Seconds spent in multipart decode; None = nothing decoded.
        self.seconds: Optional[float] = None

    def __call__(self, head: Response):
        self._decoder = None
        self.seconds = None
        if head.status != 206 or not _is_multipart(head):
            return None
        try:
            boundary = content_type_boundary(head.content_type)
        except HttpParseError:
            return None  # pieces() reports it
        self._decoder = MultipartStream(boundary)
        self.seconds = 0.0
        return self._feed

    def _feed(self, chunk: bytes) -> None:
        started = self._clock()
        self._decoder.feed(chunk)
        self.seconds += self._clock() - started

    def pieces(
        self, response: Response
    ) -> List[Tuple[int, bytes, Optional[int]]]:
        """``(offset, data, total)`` of each stretch of the object a
        200/206 ``response`` carried (a multipart body that was not
        streamed through this sink is decoded here)."""
        if response.status != 206:
            # 200: no range support — the whole object came back.
            return [(0, response.body, len(response.body))]
        try:
            if _is_multipart(response):
                if self._decoder is None:
                    self._decoder = MultipartStream(
                        content_type_boundary(response.content_type)
                    )
                    self._decoder.feed(response.body)
                return self._decoder.close()
            content_range = response.headers.get("Content-Range")
            if content_range is None:
                raise RequestError("206 without Content-Range")
            offset, _length, total = parse_content_range(content_range)
        except (HttpParseError, HttpProtocolError) as exc:
            raise RequestError(f"bad ranged response: {exc}") from exc
        return [(offset, response.body, total)]


def _is_multipart(response: Response) -> bool:
    return response.content_type.lower().startswith("multipart/byteranges")


def get_ranges(
    context: Context,
    url: Url,
    params: Optional[RequestParams],
    ranges: Sequence[Tuple[int, int]],
    parent_span=None,
    if_range: Optional[str] = None,
):
    """Effect sub-op: one (multi-)range GET for ``(offset, length)``
    ``ranges`` -> ``(response, sink)``.

    The one builder of ranged GETs, for the client's read path and the
    proxy's gap fill alike; ``sink.pieces(response)`` holds what a
    200/206 carried. ``if_range`` (an ETag) makes an object that
    changed since come back as a full 200 instead of a version mix.
    """
    spans = ",".join([f"{o}-{o + n - 1}" for o, n in ranges])
    headers = Headers([("Range", "bytes=" + spans)])
    if if_range is not None:
        headers.set("If-Range", if_range)
    sink = RangeSink(context.clock)
    response, _ = yield from execute_request(
        context, url, Request("GET", url.target, headers), params,
        sink_factory=sink,
        idempotent=True,
        parent_span=parent_span,
    )
    return response, sink


def raise_for_status(response: Response, path: str) -> None:
    """Map HTTP error statuses onto the davix exception hierarchy."""
    if response.status == 404:
        raise FileNotFound(path)
    if response.status in (401, 403):
        raise PermissionDenied(path, response.status)
    if response.status >= 400:
        raise RequestError(
            f"{path}: HTTP {response.status} {response.reason}",
            status=response.status,
        )


class DavFile:
    """One remote resource addressed by URL.

    The pipelined transfer engine
    (:class:`~repro.core.engine.TransferEngine`) is armed by
    ``params.transfer.read_ahead`` or by the first :meth:`prefetch`.
    """

    def __init__(
        self,
        context: Context,
        url,
        params: Optional[RequestParams] = None,
    ):
        self.context = context
        self.url = Url.parse(url)
        self.params = params or context.params
        self.transfer = self.params.transfer
        self._engine: Optional[TransferEngine] = (
            TransferEngine(self, self.transfer)
            if self.transfer.read_ahead
            else None
        )
        # The page cache is context-owned (one per Context, shared by
        # every file), so repeated opens of the same URL reuse pages.
        self._cache_key = str(self.url)
        self._pagecache = context.page_cache_for(self.transfer)

    # -- read-ahead engine --------------------------------------------------

    @property
    def read_ahead_enabled(self) -> bool:
        """Is the pipelined transfer engine armed on this file?"""
        return self._engine is not None

    @property
    def engine(self) -> Optional[TransferEngine]:
        """The armed :class:`TransferEngine`, if any (stats, window)."""
        return self._engine

    def prefetch(
        self,
        segments: Sequence[Tuple[int, int]],
        replace: bool = False,
    ) -> TransferEngine:
        """Feed ``(offset, length)`` segments to the read-ahead plan.

        Arms the transfer engine if it is not already; pure
        bookkeeping — speculative fetches launch lazily as subsequent
        ``pread``/``pread_vec`` calls pump the window. With
        ``replace=True`` the previous plan is abandoned first: its
        in-flight speculative batches are cancelled (counted in
        ``engine.cancelled_batches_total``) rather than drained
        uselessly. Returns the engine (stats and window state live
        there).
        """
        if self._engine is None:
            self._engine = TransferEngine(self, self.transfer)
        elif replace:
            self._engine.abandon()
        self._engine.prefetch(segments)
        return self._engine

    def drain(self):
        """Effect sub-op: join outstanding speculative fetches.

        Call before tearing down the runtime when read-ahead is armed;
        a no-op otherwise.
        """
        if self._engine is not None:
            yield from self._engine.drain()

    def close(self):
        """Effect sub-op: abandon the read-ahead plan and clean up.

        In-flight speculative batches are cancelled (their window
        slots free immediately, ``engine.cancelled_batches_total``
        counts them) and their already-spawned tasks joined. A no-op
        without the engine armed; the file object stays usable.
        """
        if self._engine is not None:
            self._engine.abandon()
            yield from self._engine.drain()

    # -- metadata ---------------------------------------------------------------

    def stat(self):
        """Effect sub-op: (size, mtime, type) via HEAD, PROPFIND fallback."""
        response, _ = yield from execute_request(
            self.context, self.url, Request("HEAD", self.url.target),
            self.params,
        )
        if response.status == 405:
            stat = yield from self._stat_propfind()
            return stat
        raise_for_status(response, self.url.path)
        return FileStat(
            size=response.headers.get_int("Content-Length") or 0,
            mtime=None,
            is_directory=False,
            etag=response.headers.get("ETag"),
        )

    def _stat_propfind(self):
        request = Request(
            "PROPFIND", self.url.target, Headers([("Depth", "0")])
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        resources = parse_multistatus(response.body)
        if not resources:
            raise FileNotFound(self.url.path)
        res = resources[0]
        return FileStat(
            size=res.size,
            mtime=res.mtime,
            is_directory=res.is_collection,
            etag=res.etag,
        )

    def exists(self):
        """Effect sub-op: does the resource exist?"""
        try:
            yield from self.stat()
        except FileNotFound:
            return False
        return True

    # -- whole-object I/O ---------------------------------------------------------

    def read_all(self, sink: Optional[Callable[[bytes], None]] = None):
        """Effect sub-op: GET the full object.

        Returns the bytes, or the total length when ``sink`` is given
        (chunks stream into the sink).
        """
        def factory(head: Response):
            return sink if sink is not None and head.ok else None

        request = Request("GET", self.url.target)
        response, _ = yield from execute_request(
            self.context,
            self.url,
            request,
            self.params,
            sink_factory=factory if sink is not None else None,
        )
        raise_for_status(response, self.url.path)
        if sink is not None:
            streamed = response.headers.get_int("Content-Length") or 0
            self._charge_delivery(0, streamed)
            return streamed
        self._charge_delivery(0, len(response.body))
        return response.body

    def write_all(self, data: bytes, content_type="application/octet-stream"):
        """Effect sub-op: PUT the full object (idempotent update)."""
        request = Request(
            "PUT",
            self.url.target,
            Headers([("Content-Type", content_type)]),
            body=data,
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        return response.status

    def delete(self):
        """Effect sub-op: DELETE the object."""
        response, _ = yield from execute_request(
            self.context,
            self.url,
            Request("DELETE", self.url.target),
            self.params,
        )
        raise_for_status(response, self.url.path)

    # -- positional I/O -----------------------------------------------------------

    def pread(self, offset: int, length: int):
        """Effect sub-op: read ``length`` bytes at ``offset``.

        Resolved through the same ladder as :meth:`pread_vec`
        (:meth:`_resolve`): cached pages first (a full hit costs no
        round trip; a partial hit fetches only the missing
        page-aligned spans), then the speculative window when the
        transfer engine is armed (a plan hit costs no round trip), then
        the demanded single-range request.
        """
        if length == 0:
            return b""
        results = yield from self._resolve(
            [(int(offset), int(length))], vector=False
        )
        return results[0]

    def pread_vec(self, reads: Sequence[Tuple[int, int]]):
        """Effect sub-op: vectored read -> list of bytes, input order.

        This is the paper's flagship feature: the reads are coalesced
        and packed into at most ``ceil(n_ranges/MAX_VECTOR_RANGES)``
        multi-range requests, each answered by one
        ``multipart/byteranges`` response. With
        ``transfer.max_inflight > 1`` the batches dispatch
        concurrently, each on its own pooled session with its own
        retry/deadline/breaker envelope; partial responses refetch only
        their ``missing_ranges``. With the transfer engine armed
        (``transfer.read_ahead`` / :meth:`prefetch`) plan hits come
        from the speculative window and its misses take the same
        cache-then-demand ladder as any other read. Multipart bodies
        decode as they arrive, one ``bytes`` per part; a fragment that
        is a whole part is handed that object, any other is cut out as
        one copy. ``vector.copy_bytes_total`` counts the fragment
        bytes produced — an upper bound on the bytes copied.
        """
        reads = [(int(offset), int(length)) for offset, length in reads]
        # Zero-length reads answer b"" here, once; only the real reads
        # reach the cache, the engine or the planner (which rejects
        # empty fragments).
        kept = [index for index, read in enumerate(reads) if read[1] > 0]
        results: List[bytes] = [b""] * len(reads)
        if kept:
            pieces = yield from self._resolve(
                [reads[index] for index in kept], vector=True
            )
            for index, piece in zip(kept, pieces):
                results[index] = piece
        return results

    def _resolve(self, reads: List[Tuple[int, int]], vector: bool):
        """The one read ladder: probe -> engine -> gap fill -> demand.

        ``reads`` are ``(offset, length)`` int pairs, none empty; the
        result is their bytes in order. A stage the file does not have
        (no page cache, or one the origin suppressed for this URL; no
        engine) is skipped, not a separate path. The engine only
        reports: every read it misses goes on down the ladder.
        ``vector`` only selects the engine entry point and the
        demanded request shape — a ``pread`` emits no ``pread-vec``
        span or ``vector.*`` counter.
        """
        cache = self._pagecache
        key = self._cache_key
        if cache is not None and cache.suppressed(key):
            cache = None
        results: List[Optional[bytes]] = [None] * len(reads)
        pending = list(range(len(reads)))

        if cache is not None:
            started = self.context.clock()
            pending = []
            #: Bytes of each pending read resident at probe time: they
            #: stay "page-cache" even though the read completes after
            #: the gap fill.
            resident: Dict[int, int] = {}
            for index, (offset, length) in enumerate(reads):
                data, missing = cache.lookup(key, offset, length)
                if data is not None:
                    results[index] = data
                    self._charge_delivery(len(data), 0)
                else:
                    pending.append(index)
                    resident[index] = length - sum(n for _, n in missing)
            self.context.metrics.histogram(
                "request.phase_seconds", phase="cache-lookup"
            ).observe(self.context.clock() - started)
            if not pending:
                return results

        if self._engine is not None:
            wanted = [reads[index] for index in pending]
            if vector:
                served = yield from self._engine.read_vec(wanted)
            else:
                served = [(yield from self._engine.read_single(*wanted[0]))]
            missed = []
            for index, data in zip(pending, served):
                if data is None:
                    missed.append(index)
                else:
                    results[index] = data
            self._charge_delivery(0, sum(len(d) for d in served if d))
            pending = missed
            if not pending:
                return results

        if cache is not None:
            # Fill only the missing page-aligned spans, then re-read.
            # The spans are taken now, not at the probe: speculative
            # fetches insert too. The loop tolerates an ETag change
            # mid-fill (the insert invalidates, widening the gaps) but
            # gives up when filling stops making progress — a budget
            # smaller than the read cannot converge.
            spans = None
            for _ in range(3):
                again = merge_spans(
                    [
                        span
                        for index in pending
                        for span in cache.missing_spans(key, *reads[index])
                    ]
                )
                if again == spans:
                    break  # filling stopped converging: demand the rest
                spans = again
                # Coalesced GETs of at most MAX_VECTOR_RANGES spans.
                step = vectored.MAX_VECTOR_RANGES
                for start in range(0, len(spans), step):
                    yield from self._get_ranges(spans[start : start + step])
                unresolved: List[int] = []
                for index in pending:
                    data = cache.read(key, *reads[index])
                    if data is None:
                        unresolved.append(index)
                        continue
                    results[index] = data
                    cached = min(len(data), max(0, resident[index]))
                    self._charge_delivery(cached, len(data) - cached)
                pending = unresolved
                if not pending:
                    return results

        wanted = [reads[index] for index in pending]
        if vector:
            pieces = yield from self._pread_vec_demand(wanted)
        else:
            # A server that ignored the Range header sent the whole
            # object: the table slices it.
            parts = yield from self._get_ranges(wanted)
            pieces = [parts.read(*wanted[0])]
        for index, piece in zip(pending, pieces):
            results[index] = piece
        self._charge_delivery(0, sum(map(len, pieces)))
        return results

    # -- byte provenance ----------------------------------------------------

    def _charge_delivery(self, cached: int, network: int) -> None:
        """Attribute delivered payload bytes to their source.

        Every byte a positional read hands back is charged to exactly
        one of ``provenance.bytes_total{source=page-cache}`` (served
        from the client page cache) or ``{source=network}`` (arrived
        over the wire for this read) — the client half of the
        cluster-wide byte-provenance ledger
        (:func:`repro.obs.analyze.byte_provenance`). Delivered bytes
        only: page-aligned overfetch is charged when (if ever) it is
        later read back out of the cache.
        """
        if cached > 0:
            self.context.metrics.counter(
                "provenance.bytes_total", source="page-cache"
            ).inc(cached)
        if network > 0:
            self.context.metrics.counter(
                "provenance.bytes_total", source="network"
            ).inc(network)

    # -- ranged requests ----------------------------------------------------

    def _get_ranges(self, ranges, parent_span=None) -> PartTable:
        """Effect sub-op: one (multi-)range GET -> :class:`PartTable`.

        Everything a ranged response means to this file happens here,
        once: a 416 whose ``Content-Range: bytes */N`` gives the total
        is an empty table clipped at ``N`` (every read of it is a
        POSIX-style short read), any other error status raises;
        multipart decode time lands in the ``multipart-decode`` phase
        (and on ``parent_span``); and the pieces enter the page cache
        under the response's ETag — a stale ETag invalidates before
        anything lands — with its
        :func:`~repro.http.headers.freshness_lifetime` as the TTL
        (``0.0`` keeps the bytes out, ``max-age=N`` bounds them).
        """
        response, sink = yield from get_ranges(
            self.context, self.url, self.params, ranges, parent_span
        )
        total = _total_of_416(response) if response.status == 416 else None
        if total is not None:
            pieces = [(0, b"", total)]
        else:
            raise_for_status(response, self.url.path)
            pieces = sink.pieces(response)
            if sink.seconds is not None:
                self.context.metrics.histogram(
                    "request.phase_seconds", phase="multipart-decode"
                ).observe(sink.seconds)
                if parent_span is not None:
                    parent_span.set(multipart_decode=sink.seconds)
        cache = self._pagecache
        etag = response.headers.get("ETag")
        ttl = None if cache is None else freshness_lifetime(response.headers)
        table = PartTable()
        for offset, data, piece_total in pieces:
            if cache is not None:
                cache.insert(
                    self._cache_key, etag, offset, data,
                    total=piece_total, ttl=ttl,
                )
            if table.total is None:
                table.total = piece_total
            if data:
                table.add(offset, data)
        return table

    def _pread_vec_demand(self, reads: Sequence[Tuple[int, int]]):
        """The demanded vectored read: plan, fetch, scatter."""
        plan = plan_vector(
            reads,
            max_ranges=vectored.MAX_VECTOR_RANGES,
            gap=self.params.vector_gap,
        )
        if not plan.fragments:
            return []
        metrics = self.context.metrics
        metrics.counter("vector.round_trips_total").inc(len(plan.batches))
        metrics.counter("vector.fragments_total").inc(len(plan.fragments))
        metrics.counter("vector.ranges_total").inc(plan.total_ranges)
        metrics.counter("vector.fragments_coalesced_total").inc(
            len(plan.fragments) - plan.total_ranges
        )
        metrics.counter("vector.requested_bytes_total").inc(
            plan.requested_bytes
        )
        # Overlapping fragments can make the merged ranges smaller than
        # the sum of requests; only true gap overhead is counted.
        metrics.counter("vector.overhead_bytes_total").inc(
            max(0, plan.total_request_bytes - plan.requested_bytes)
        )

        inflight = min(self.transfer.max_inflight, len(plan.batches))
        span = self.context.tracer.start(
            "pread-vec",
            url=str(self.url),
            fragments=len(plan.fragments),
            ranges=plan.total_ranges,
            inflight=max(1, inflight),
        )
        try:
            results: Dict[int, bytes] = {}
            if inflight <= 1:
                # Inline: bounded_gather(limit=1) would spawn a task —
                # a thread per pread_vec on the thread runtime.
                for index, batch in enumerate(plan.batches):
                    scattered = yield from self._fetch_scatter(
                        batch, span, index
                    )
                    results.update(scattered)
            else:
                metrics.counter("vector.parallel_dispatch_total").inc()
                gauge = metrics.gauge("vector.inflight")

                outcomes = yield from bounded_gather(
                    [
                        partial(self._fetch_scatter, batch, span, index)
                        for index, batch in enumerate(plan.batches)
                    ],
                    limit=inflight,
                    name="vec-batch",
                    on_start=lambda: gauge.add(1),
                    on_finish=lambda: gauge.add(-1),
                )
                for outcome in outcomes:
                    results.update(outcome.unwrap())
        finally:
            span.end()
        return [results[i] for i in range(len(plan.fragments))]

    def _fetch_scatter(self, batch, parent_span, index: int):
        """Fetch one batch and scatter its fragments.

        The per-batch child span is explicitly parented (concurrent
        batches interleave, so implicit stack parenting would
        cross-nest); the fragment bytes produced land in
        ``vector.copy_bytes_total`` — at most one copy per fragment,
        none for a fragment that is a whole part.
        """
        batch_span = parent_span.child(
            "vec-batch", batch=index, ranges=len(batch)
        )
        try:
            parts = yield from self._fetch_batch_covered(batch, batch_span)
            scattered = scatter_parts(batch, parts)
        finally:
            batch_span.end()
        self.context.metrics.counter("vector.copy_bytes_total").inc(
            sum(map(len, scattered.values()))
        )
        return scattered

    def _fetch_batch_covered(self, batch, parent_span=None):
        """Fetch one batch of coalesced ranges -> :class:`PartTable`,
        re-requesting any ranges the response left uncovered (a reset
        mid-multipart-body, a server honouring only some ranges).
        Multi-range GETs are idempotent, so the refetch is always
        retry-safe; rounds are bounded by the retry policy's attempt
        budget.
        """
        parts = yield from self._get_ranges(
            [(rng.offset, rng.length) for rng in batch], parent_span
        )
        rounds = self.params.retry_policy.max_attempts - 1
        missing = missing_ranges(batch, parts)
        while missing and rounds > 0:
            rounds -= 1
            self.context.metrics.counter(
                "vector.refetch_batches_total"
            ).inc()
            self.context.metrics.counter(
                "vector.refetch_ranges_total"
            ).inc(len(missing))
            more = yield from self._get_ranges(
                [(rng.offset, rng.length) for rng in missing], parent_span
            )
            parts.merge(more)
            missing = missing_ranges(batch, parts)
        # Still-missing ranges surface through scatter_parts, which
        # raises the caller-facing RequestError.
        return parts

    # -- metalink -----------------------------------------------------------------

    def get_metalink(self) -> Metalink:
        """Effect sub-op: fetch the Metalink document for this resource."""
        request = Request(
            "GET",
            self.url.target,
            Headers([("Accept", METALINK_MEDIA_TYPE)]),
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        if METALINK_MEDIA_TYPE not in response.content_type:
            raise RequestError(
                f"{self.url.path}: server returned "
                f"{response.content_type!r}, not a metalink"
            )
        return parse_metalink(response.body)
