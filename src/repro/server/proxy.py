"""Range-aware caching HTTP forward proxy.

A big part of the paper's case for HTTP is "compatibility with existing
network infrastructure and services" (Section 2.2) — squids and site
caches that specialised protocols cannot use. This module implements
that infrastructure piece: a forward proxy taking absolute-URI
requests, backed by the same byte-budget page store the client uses
(:class:`~repro.core.pagecache.PageCache`), with ETag revalidation and
hit/miss accounting. The davix client targets it via
``RequestParams(proxy=...)``.

Unlike the classic whole-object squid model, this proxy is
**range-aware** — the traffic pattern vectored ROOT I/O produces:

* every GET response (full *or* ranged, single-range or
  ``multipart/byteranges``) is decomposed into pages keyed by
  ``(url, etag)``;
* a ranged request over cached pages is served locally — including
  ranged reads of an object cached whole;
* a *partially* cached request computes the missing page-aligned
  spans, fetches only those gaps from the origin as one coalesced
  multi-range request (guarded by ``If-Range`` so a changed object
  degrades to a coherent full refetch, never a version mix), and
  assembles the ``206``/multipart response locally;
* stale entries revalidate with ``If-None-Match`` (a ``304`` costs no
  body) and serve stale only when the origin is unreachable.

Like third-party copy, upstream fetches run as deferred work: the
proxy is itself a davix client towards the origin servers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.concurrency import Now
from repro.core.context import Context
from repro.core.file import RangeSink, get_ranges
from repro.core.pagecache import DEFAULT_PAGE_SIZE, PageCache
from repro.core.request import execute_request
from repro.errors import (
    DavixError,
    HttpProtocolError,
    NetworkError,
    RequestError,
)
from repro.http import (
    Headers,
    Request,
    Response,
    Url,
    freshness_lifetime,
    parse_cache_control,
    parse_range_header,
    resolve_ranges,
)
from repro.http.ranges import merge_spans
from repro.obs.propagation import TRACEPARENT_HEADER, parse_traceparent
from repro.server.envelope import Envelope, ServedResponse, ServerConfig
from repro.server.rangeserver import plan_range_response

__all__ = ["ProxyApp"]

#: Response headers the proxy forwards from the origin.
FORWARDED_HEADERS = (
    "Content-Type",
    "ETag",
    "Accept-Ranges",
    "Content-Range",
    "Last-Modified",
    "Cache-Control",
)

#: Gap spans packed into one origin round trip (stays under common
#: server ``max_ranges`` limits).
MAX_GAP_RANGES = 64

class _ObjectMeta:
    """Cached non-page state of one origin object (the page bytes,
    ETag and size live in the :class:`PageCache` entry)."""

    __slots__ = ("content_type", "last_modified", "fresh_until")

    def __init__(self):
        self.content_type = "application/octet-stream"
        self.last_modified: Optional[str] = None
        #: Served without revalidation until this (runtime) time.
        self.fresh_until = 0.0


class _PageEvicted(Exception):
    """A page the coverage check saw is gone: the caller re-plans."""


class _CachedObject:
    """The face of one cached entry that
    :func:`~repro.server.rangeserver.plan_range_response` and its
    :class:`RangePlan` ask of a stored object (``etag``, ``size``,
    ``content_type``, ``content.read``), read from the page store."""

    def __init__(self, pages: PageCache, url, etag, size, content_type):
        self._pages = pages
        self._url = url
        self.etag = etag
        self.size = size
        self.content_type = content_type
        self.content = self

    def read(self, offset: int, length: int) -> bytes:
        data = self._pages.read(self._url, offset, length)
        if data is None or len(data) != length:
            raise _PageEvicted(self._url)
        return data


class ProxyApp(Envelope):
    """Range-aware caching forward proxy; plugs into HttpServer.

    GET responses land in a shared page store: whole-object entries
    answer later ranged requests, ranged responses accumulate into
    partial coverage, and requests touching both cached and uncached
    spans fetch only the gaps from the origin.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        cache_bytes: int = 256 * 1024 * 1024,
        default_ttl: float = 60.0,
        page_size: int = DEFAULT_PAGE_SIZE,
        metrics=None,
        context=None,
    ):
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        if default_ttl < 0:
            raise ValueError("default_ttl must be >= 0")
        super().__init__(
            config or ServerConfig(server_name="repro-proxy/1.0"),
            metrics=metrics,
        )
        self.cache_bytes = cache_bytes
        #: Seconds an entry is served without revalidation.
        self.default_ttl = default_ttl
        self.page_size = page_size
        #: The page store (cached bytes, ETag and size per url),
        #: counting into the proxy's registry.
        self.pages = PageCache(
            max(0, cache_bytes), page_size, metrics=self.metrics
        )
        #: Per-URL meta, held exactly while the page store holds the URL.
        self._meta: Dict[str, _ObjectMeta] = {}
        #: The davix context the proxy's upstream fetches run on.
        #: Inject one (``context=``) to give the proxy a real clock, a
        #: node-namespaced tracer and a telemetry sink; created lazily
        #: (bare) otherwise.
        self._context = context
        if context is not None:
            self.tracer = context.tracer

    # -- entry point ----------------------------------------------------------

    def route(self, request: Request):
        try:
            target = Url.parse(request.target)
        except (HttpProtocolError, ValueError):
            return self._error(
                400, "proxy requires an absolute request URI"
            )

        # The client's Traceparent: upstream fetches join this trace,
        # so client -> proxy -> origin assembles into one tree.
        trace_ctx = parse_traceparent(
            request.headers.get(TRACEPARENT_HEADER)
        )
        if (
            request.method != "GET"
            or self.cache_bytes <= 0
            or self.pages.suppressed(str(target))
        ):
            serve = self._relay
        else:
            serve = self._cached_get
        # The connection loop sets ``serving_span`` just before it
        # calls the deferred, and clears it once the deferred returns:
        # bound here, the span stays this request's across every yield.
        return ServedResponse(
            Response(500),
            deferred=lambda: serve(
                request, target, trace_ctx, self.serving_span
            ),
        )

    # -- upstream operations ----------------------------------------------------

    def _client_context(self):
        if self._context is None:
            self._context = Context()
        return self._context

    def _exchange(
        self, name, target: Url, upstream: Request, trace_ctx, serving
    ):
        """Effect sub-op: one origin round trip under its own ``name``
        span (raises on network failure — callers decide between
        stale-serve and 502)."""
        span = self._start_upstream(
            name, trace_ctx, serving, url=str(target)
        )
        try:
            response, _ = yield from execute_request(
                self._client_context(), target, upstream, parent_span=span
            )
        except (DavixError, NetworkError) as exc:
            if span is not None:
                span.end(error=str(exc))
            raise
        if span is not None:
            span.end(status=response.status)
        return response

    def _forward(
        self, name, request: Request, target: Url, trace_ctx, serving
    ):
        """Effect sub-op: the client's ``request``, minus its hop-by-hop
        headers, as one :meth:`_exchange` -> ``(response, True)``; the
        proxy's own 502 and ``False`` when the origin is unreachable."""
        upstream = Request(
            method=request.method,
            target=target.target,
            headers=_strip_hop_headers(request.headers),
            body=request.body,
        )
        try:
            response = yield from self._exchange(
                name, target, upstream, trace_ctx, serving
            )
        except (DavixError, NetworkError) as exc:
            return self._error(502, f"upstream failed: {exc}"), False
        return response, True

    def _start_upstream(self, name, trace_ctx, serving, **attrs):
        """Start a span for upstream work on the proxy's tracer.

        Parented under the connection's live ``server-request`` span
        when there is one — so gap fetches sit *inside* the proxy hop
        in the assembled trace — else joined remotely to the client's
        trace, else a fresh root. Returns ``None`` when tracing is off.
        """
        tracer = self._client_context().tracer
        if tracer is None or not getattr(tracer, "enabled", True):
            return None
        if (
            serving is not None
            and getattr(serving, "span_id", 0)
            and serving.end_time is None
        ):
            return tracer.start(name, parent=serving, **attrs)
        if trace_ctx is not None:
            return tracer.start(name, remote=trace_ctx, **attrs)
        return tracer.start(name, root=True, **attrs)

    def _record(self, serving, url, outcome, served, from_cache) -> None:
        """The one accounting call per served request: ``outcome`` and
        the cache split on the ``serving`` span, which
        :func:`~repro.obs.events.request_events` folds into the
        request's ``kind="proxy"`` row — the byte-provenance analyzer
        splits delivered bytes into cache-served vs origin-fetched
        from exactly these fields."""
        if serving is not None:
            serving.set(
                url=url,
                outcome=outcome,
                served_bytes=max(0, served),
                from_cache_bytes=max(0, min(served, from_cache)),
            )

    def _relay(self, request: Request, target: Url, trace_ctx, serving):
        """Effect sub-op: pass-through (non-cacheable) request, on
        behalf of the ``serving`` span's request."""
        response, reached = yield from self._forward(
            "relay", request, target, trace_ctx, serving
        )
        if not reached:
            return response
        self._record(serving, str(target), "BYPASS", len(response.body), 0)
        return _forwarded(response, cache_state="BYPASS")

    # -- the cached GET path ----------------------------------------------------

    def _cached_get(self, request: Request, target: Url, trace_ctx, serving):
        """Effect sub-op: serve a GET from pages, gaps, or the origin.

        Each pass acts on one :meth:`_decide` verdict. The loop
        tolerates ETag churn mid-fill — a gap fetch that reveals a new
        version invalidates the stale pages and the next pass decides
        against the fresh entry.
        """
        now = yield Now()
        url = str(target)
        #: ``(outcome, bytes saved)``, fixed by the first pass that
        #: went to the origin; a request served without one is a HIT.
        verdict: Optional[Tuple[str, int]] = None

        for _attempt in range(4):
            kind, etag, specs, wanted, missing = self._decide(
                request, url, now, validated=verdict is not None
            )
            if kind == "cold":
                # Not pre-alignable: forward as-is, ingest the answer.
                response, reached = yield from self._forward(
                    "origin-fetch", request, target, trace_ctx, serving
                )
                if not reached:
                    return response
                if response.status not in (200, 206):
                    return _forwarded(response, cache_state="UNCACHEABLE")
                self._ingest(url, response, now)
                self._record(serving, url, "MISS", len(response.body), 0)
                return _forwarded(response, cache_state="MISS")

            if kind == "gaps":
                covered = max(0, wanted - sum(n for _, n in missing))
                verdict = verdict or (
                    "PARTIAL" if covered > 0 else "MISS", covered
                )
                try:
                    response = yield from self._fill_gaps(
                        target, url, missing, etag, now, trace_ctx, serving
                    )
                except (DavixError, NetworkError) as exc:
                    return self._error(502, f"upstream failed: {exc}")
                if response is None:
                    continue  # ingested: decide again against the store
                if response.status == 206:
                    # Undecodable 206 for the gap ranges: relay the
                    # client's own request verbatim instead.
                    response = yield from self._relay(
                        request, target, trace_ctx, serving
                    )
                    return response
                # A non-206/200 answer (e.g. the object vanished):
                # forward it, marked as the proxy's.
                return _forwarded(response, cache_state="UNCACHEABLE")

            if kind == "fresh":
                outcome, saved = verdict or ("HIT", wanted)
                served = self._assemble(request, url, specs, outcome)
                if served is None:
                    continue  # pages raced away (eviction): decide again
                self._record(serving, url, outcome, wanted, saved)
                return served

            # Stale: conditional revalidation.
            upstream = Request(
                "GET", target.target, Headers([("If-None-Match", etag)])
            )
            try:
                response = yield from self._exchange(
                    "revalidate", target, upstream, trace_ctx, serving
                )
            except (DavixError, NetworkError):
                served = self._assemble(request, url, specs, "STALE")
                if served is None:
                    return self._error(
                        502, "upstream failed and cache incomplete"
                    )
                self._record(serving, url, "STALE", wanted, wanted)
                return served
            if response.status == 304:
                meta = self._meta.get(url)
                if meta is not None:
                    meta.fresh_until = self._fresh_until(response, now)
                verdict = ("REVALIDATED", wanted)
            elif response.status in (200, 206):
                self._ingest(url, response, now)
                verdict = ("MISS", 0)
            else:
                return _forwarded(response, cache_state="UNCACHEABLE")

        # Coverage never converged (budget too small for the request):
        # fall back to a verbatim relay so the client still gets bytes.
        response = yield from self._relay(
            request, target, trace_ctx, serving
        )
        return response

    def _decide(self, request: Request, url: str, now: float, validated):
        """One pass's RFC 9111-shaped decision on the stored entry:
        ``(kind, etag, specs, wanted, missing)``.

        ``kind`` is ``cold`` (nothing stored, and the request has no
        page-aligned expansion), ``gaps`` (fetch ``missing``: a cold
        ranged request is all gaps, with no validator, so its pages
        land whole and repeats are pure hits), ``fresh`` (serve from
        pages: within the lifetime, or ``validated`` by this request's
        own origin exchange) or ``stale`` (revalidate ``etag``).
        """
        etag = self.pages.etag(url)
        size = self.pages.known_size(url)
        meta = self._meta.get(url)
        if etag is None or size is None or meta is None:
            missing = self._cold_ranged_spans(request)
            kind = "cold" if missing is None else "gaps"
            return kind, None, None, sum(n for _, n in missing or ()), missing
        specs = self._requested_ranges(request, etag)
        if specs is not None:
            need = resolve_ranges(specs, size)
        else:
            need = [(0, size)] if size > 0 else []
        missing = merge_spans(
            [
                span
                for offset, length in need
                for span in self.pages.missing_spans(url, offset, length)
            ]
        )
        if missing:
            kind = "gaps"
        elif validated or now < meta.fresh_until:
            kind = "fresh"
        else:
            kind = "stale"
        return kind, etag, specs, sum(n for _, n in need), missing

    def _fill_gaps(
        self, target: Url, url, missing, etag, now,
        trace_ctx=None, serving=None,
    ):
        """Effect sub-op: fetch the missing spans as coalesced
        multi-range requests and ingest the parts.

        Returns ``None`` when the pages were ingested (the caller
        re-plans), or a Response to forward verbatim. ``If-Range``
        makes a concurrent update come back as a full ``200`` — a
        coherent replacement instead of a cross-version mix.
        """
        span = self._start_upstream(
            "gap-fetch",
            trace_ctx,
            serving,
            url=url,
            spans=len(missing),
            bytes=sum(n for _, n in missing),
        )
        try:
            for start in range(0, len(missing), MAX_GAP_RANGES):
                response, sink = yield from get_ranges(
                    self._client_context(),
                    target,
                    None,
                    missing[start : start + MAX_GAP_RANGES],
                    parent_span=span,
                    if_range=etag,
                )
                if response.status in (200, 206):
                    if not self._ingest(url, response, now, sink):
                        return response  # undecodable: caller relays
                    if response.status == 200:
                        return None  # whole object replaced: re-plan
                    continue
                if response.status == 416:
                    # Our size is stale: drop the entry and re-plan from
                    # scratch on the next attempt.
                    self.pages.invalidate(url)
                    self._meta.pop(url, None)
                    return None
                return response
            return None
        finally:
            if span is not None:
                span.end()

    # -- ingestion & accounting -------------------------------------------------

    def _fresh_until(self, response: Response, now: float) -> float:
        """When a copy of ``response`` turns stale: its
        :func:`~repro.http.headers.freshness_lifetime` from ``now``, or
        ``default_ttl`` when the origin set none."""
        lifetime = freshness_lifetime(response.headers)
        return now + (self.default_ttl if lifetime is None else lifetime)

    def _ingest(
        self, url: str, response: Response, now: float, sink=None
    ) -> bool:
        """Decompose one origin 200/206 into pages + meta.

        ``sink`` is the :class:`~repro.core.file.RangeSink` the
        response streamed through, if it did. The inserts carry no
        TTL, unlike the client tier's: a stale page must survive here
        to be revalidated with ``If-None-Match`` or served ``STALE``;
        freshness lives in ``meta.fresh_until`` instead.
        """
        cache_control = response.headers.get("Cache-Control")
        if "no-store" in parse_cache_control(cache_control):
            # The origin forbids storing this response: purge whatever
            # we hold and pin the URL to the relay path.
            self.pages.suppress(url)
            self._meta.pop(url, None)
            return False
        if sink is None:
            sink = RangeSink(self._client_context().clock)
        try:
            pieces = sink.pieces(response)
        except RequestError:
            return False
        etag = response.headers.get("ETag")
        for offset, data, total in pieces:
            self.pages.insert(url, etag, offset, data, total=total)
        meta = self._meta.setdefault(url, _ObjectMeta())
        content_type = response.content_type
        if content_type and not content_type.lower().startswith(
            "multipart/byteranges"
        ):
            meta.content_type = content_type
        last_modified = response.headers.get("Last-Modified")
        if last_modified:
            meta.last_modified = last_modified
        meta.fresh_until = self._fresh_until(response, now)
        if len(self._meta) > len(self.pages):
            # Meta follows the page store: a URL evicted whole has none.
            for gone in [u for u in self._meta if u not in self.pages]:
                del self._meta[gone]
        return True

    # -- request interpretation ---------------------------------------------------

    def _cold_ranged_spans(
        self, request: Request
    ) -> Optional[List[Tuple[int, int]]]:
        """Page-aligned expansion of a cold ranged request.

        ``None`` means the request cannot be pre-aligned (no Range
        header, an invalid one, or suffix/open-ended specs that need
        the — still unknown — object size) and must pass through.
        """
        header = request.headers.get("Range")
        if header is None:
            return None
        try:
            specs = parse_range_header(header)
        except HttpProtocolError:
            return None
        page = self.page_size
        spans: List[Tuple[int, int]] = []
        for spec in specs:
            if spec.first is None or spec.last is None:
                return None
            start = (spec.first // page) * page
            end = (spec.last // page + 1) * page
            spans.append((start, end - start))
        return merge_spans(spans)

    def _requested_ranges(self, request: Request, etag: Optional[str]):
        """The client's Range specs, with If-Range applied.

        ``None`` means serve the full representation (no/invalid Range
        header, or an ``If-Range`` validator that no longer matches).
        """
        header = request.headers.get("Range")
        if header is None:
            return None
        if_range = request.headers.get("If-Range")
        if if_range is not None and if_range.strip() != (etag or ""):
            return None
        try:
            return parse_range_header(header)
        except HttpProtocolError:
            return None  # RFC 7233 §3.1: may ignore an invalid Range

    # -- response assembly --------------------------------------------------------

    def _assemble(
        self, request: Request, url: str, specs, state: str
    ) -> Optional[Response]:
        """Build the client-facing response from cached pages.

        Answered by the origin's own RFC 7233 responder
        (:func:`~repro.server.rangeserver.plan_range_response`: same
        resolution, same single-range/multipart split) so a cache
        answer is indistinguishable from an origin answer, boundary
        aside. Returns ``None`` if a needed page has been evicted
        since the coverage check — the caller re-plans.
        """
        etag = self.pages.etag(url)
        size = self.pages.known_size(url)
        meta = self._meta.get(url)
        if etag is None or size is None or meta is None:
            return None

        if_none_match = request.headers.get("If-None-Match")
        if if_none_match is not None:
            candidates = [t.strip() for t in if_none_match.split(",")]
            if "*" in candidates or etag in candidates:
                return _mark(
                    Response(304, Headers([("ETag", etag)])), state
                )

        obj = _CachedObject(self.pages, url, etag, size, meta.content_type)
        # The proxy has no range-count guard: max_ranges never binds.
        plan = plan_range_response(
            obj,
            request.headers.get("Range") if specs is not None else None,
            max_ranges=len(specs or ()),
        )
        try:
            if plan.multipart_boundary is not None:
                response = Response(
                    206, plan.headers, pieces=plan.multipart_pieces(obj)
                )
            else:
                body = b"".join(obj.read(o, n) for o, n in plan.segments)
                response = Response(plan.status, plan.headers, body)
        except _PageEvicted:
            return None
        if meta.last_modified:
            response.headers.set("Last-Modified", meta.last_modified)
        return _mark(response, state)

    # -- introspection ------------------------------------------------------------

    @property
    def cached_objects(self) -> int:
        return self.pages.object_count

    @property
    def cached_bytes(self) -> int:
        return self.pages.used_bytes


# -- helpers ----------------------------------------------------------------------


def _strip_hop_headers(headers: Headers) -> Headers:
    out = Headers()
    for name, value in headers.items():
        if name.lower() in ("connection", "host", "proxy-connection"):
            continue
        out.add(name, value)
    return out


def _forwardable(headers: Headers) -> Headers:
    out = Headers()
    for name in FORWARDED_HEADERS:
        value = headers.get(name)
        if value is not None:
            out.set(name, value)
    return out


def _forwarded(response: Response, cache_state: str) -> Response:
    headers = _forwardable(response.headers)
    headers.set("X-Cache", cache_state)
    headers.set("Via", "1.1 repro-proxy")
    return Response(response.status, headers, response.body)


def _mark(response: Response, state: str) -> Response:
    response.headers.set("X-Cache", state)
    response.headers.set("Via", "1.1 repro-proxy")
    return response

