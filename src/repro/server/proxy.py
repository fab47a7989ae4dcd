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

from typing import Dict, List, Optional, Set, Tuple

from repro.core.pagecache import DEFAULT_PAGE_SIZE, PageCache
from repro.errors import HttpParseError, HttpProtocolError
from repro.http import (
    Headers,
    RangePart,
    Request,
    Response,
    Url,
    gather_byteranges,
    make_boundary,
    parse_cache_control,
    parse_range_header,
    resolve_ranges,
)
from repro.http.multipart import content_type_boundary, decode_byteranges
from repro.http.ranges import (
    RangeSpec,
    format_content_range,
    format_range_header,
    merge_spans,
    parse_content_range,
)
from repro.obs.propagation import (
    TRACEPARENT_HEADER,
    format_trace_id,
    parse_traceparent,
)
from repro.server.envelope import Envelope, ServedResponse, ServerConfig

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
        #: The page store (cached bytes, ETag and size per url).
        self.pages = PageCache(
            max(0, cache_bytes), page_size, metrics=metrics
        )
        self._meta: Dict[str, _ObjectMeta] = {}
        #: URLs the origin marked ``Cache-Control: no-store`` — always
        #: relayed, never written to the page store again.
        self._no_store: Set[str] = set()
        #: The davix context the proxy's upstream fetches run on.
        #: Inject one (``context=``) to give the proxy a real clock, a
        #: node-namespaced tracer and a telemetry sink; created lazily
        #: (bare) otherwise.
        self._context = context
        if context is not None:
            self.tracer = context.tracer
            self.events = context.events
        self.stats = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "partial_hits": 0,
            "revalidated": 0,
            "bypassed": 0,
            "evictions": 0,
            "origin_bytes_saved": 0,
        }

    # -- entry point ----------------------------------------------------------

    def route(self, request: Request):
        self.stats["requests"] += 1
        try:
            target = Url.parse(request.target)
        except Exception:
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
            or str(target) in self._no_store
        ):
            self.stats["bypassed"] += 1
            return ServedResponse(
                Response(500),
                deferred=lambda: self._relay(request, target, trace_ctx),
            )
        return ServedResponse(
            Response(500),
            deferred=lambda: self._cached_get(
                request, target, trace_ctx
            ),
        )

    # -- upstream operations ----------------------------------------------------

    def _client_context(self):
        if self._context is None:
            from repro.core.context import Context

            self._context = Context()
        return self._context

    def _exchange(self, target: Url, upstream: Request, parent=None):
        """Effect sub-op: one origin round trip (raises on network
        failure — callers decide between stale-serve and 502)."""
        from repro.core.request import execute_request

        response, _ = yield from execute_request(
            self._client_context(),
            target,
            upstream,
            parent_span=parent,
        )
        return response

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

    def _emit_proxy_event(
        self, ts, url, outcome, status, served, from_cache, trace_ctx
    ):
        """One ``kind="proxy"`` wide event per served request — the
        byte-provenance analyzer splits delivered bytes into
        cache-served vs origin-fetched from exactly these fields."""
        if self.events is None:
            return
        self.events.emit(
            "proxy",
            ts=ts,
            url=url,
            outcome=outcome,
            status=status,
            served_bytes=max(0, served),
            from_cache_bytes=max(0, min(served, from_cache)),
            trace_id=(
                format_trace_id(trace_ctx.trace_id)
                if trace_ctx is not None
                else ""
            ),
        )

    def _relay(self, request: Request, target: Url, trace_ctx=None):
        """Effect sub-op: pass-through (non-cacheable) request."""
        from repro.errors import DavixError, NetworkError

        serving = self.serving_span
        upstream = Request(
            method=request.method,
            target=target.target,
            headers=_strip_hop_headers(request.headers),
            body=request.body,
        )
        span = self._start_upstream(
            "relay", trace_ctx, serving, url=str(target)
        )
        try:
            response = yield from self._exchange(
                target, upstream, parent=span
            )
        except (DavixError, NetworkError) as exc:
            if span is not None:
                span.end(error=str(exc))
            return self._error(502, f"upstream failed: {exc}")
        if span is not None:
            span.end(status=response.status)
        self._emit_proxy_event(
            getattr(span, "end_time", None) or 0.0,
            str(target),
            "BYPASS",
            response.status,
            len(response.body),
            0,
            trace_ctx,
        )
        return _forwarded(response, cache_state="BYPASS")

    # -- the cached GET path ----------------------------------------------------

    def _cached_get(self, request: Request, target: Url, trace_ctx=None):
        """Effect sub-op: serve a GET from pages, gaps, or the origin.

        The attempt loop tolerates ETag churn mid-fill — a gap fetch
        that reveals a new version invalidates the stale pages and the
        next pass recomputes coverage against the fresh entry.
        """
        from repro.concurrency import Now
        from repro.errors import DavixError, NetworkError

        # Read before the first yield: the connection loop clears
        # ``serving_span`` the moment the deferred returns.
        serving = self.serving_span
        now = yield Now()
        url = str(target)
        outcome: Optional[str] = None
        saved_bytes = 0

        for _attempt in range(4):
            etag = self.pages.etag(url)
            size = self.pages.known_size(url)
            meta = self._meta.get(url)
            if etag is None or size is None or meta is None:
                aligned = self._cold_ranged_spans(request)
                if aligned is None:
                    response = yield from self._fill_from_scratch(
                        request, target, url, now, trace_ctx, serving
                    )
                    return response
                # Cold ranged request: fetch the page-aligned expansion
                # so the pages land whole and the response assembles
                # from the store (and repeats are pure hits).
                if outcome is None:
                    outcome = "MISS"
                    saved_bytes = 0
                try:
                    response = yield from self._fill_gaps(
                        target, url, aligned, None, now, trace_ctx, serving
                    )
                except (DavixError, NetworkError) as exc:
                    return self._error(502, f"upstream failed: {exc}")
                if response is not None:
                    if response.status == 206:
                        # Undecodable 206 for the *expanded* ranges:
                        # relay the client's own request verbatim.
                        response = yield from self._relay(
                            request, target, trace_ctx
                        )
                    return response
                continue

            specs = self._requested_ranges(request, etag)
            need = self._needed_spans(specs, size)
            missing: List[Tuple[int, int]] = []
            for offset, length in need:
                missing.extend(self.pages.missing_spans(url, offset, length))
            missing = merge_spans(missing)
            fresh = now < meta.fresh_until

            if not missing and (fresh or outcome is not None):
                # Fully cached and either fresh or just (re)validated.
                if outcome is None:
                    outcome = "HIT"
                    saved_bytes = sum(length for _, length in need)
                served = self._assemble(request, url, specs, outcome)
                if served is not None:
                    self._account(outcome, saved_bytes)
                    self._emit_proxy_event(
                        now,
                        url,
                        outcome,
                        served.status,
                        sum(length for _, length in need),
                        saved_bytes,
                        trace_ctx,
                    )
                    return served
                continue  # pages raced away (eviction): re-plan

            if not missing:
                # Fully cached but stale: conditional revalidation.
                upstream = Request(
                    "GET",
                    target.target,
                    Headers([("If-None-Match", etag)]),
                )
                span = self._start_upstream(
                    "revalidate", trace_ctx, serving, url=url
                )
                try:
                    response = yield from self._exchange(
                        target, upstream, parent=span
                    )
                except (DavixError, NetworkError):
                    if span is not None:
                        span.end(error="unreachable")
                    served = self._assemble(request, url, specs, "STALE")
                    if served is not None:
                        stale_bytes = sum(length for _, length in need)
                        self._account("STALE", stale_bytes)
                        self._emit_proxy_event(
                            now,
                            url,
                            "STALE",
                            served.status,
                            stale_bytes,
                            stale_bytes,
                            trace_ctx,
                        )
                        return served
                    return self._error(
                        502, "upstream failed and cache incomplete"
                    )
                if span is not None:
                    span.end(status=response.status)
                if response.status == 304:
                    meta.fresh_until = now + self._ttl_for(response)
                    outcome = "REVALIDATED"
                    saved_bytes = sum(length for _, length in need)
                    continue
                if response.status in (200, 206):
                    self._ingest(url, response, now)
                    outcome = "MISS"
                    saved_bytes = 0
                    continue
                return _forwarded(response, cache_state="UNCACHEABLE")

            # Gaps: fetch only the missing spans, If-Range guarded.
            if outcome is None:
                covered = sum(n for _, n in need) - sum(
                    n for _, n in missing
                )
                outcome = "PARTIAL" if covered > 0 else "MISS"
                saved_bytes = max(0, covered)
            try:
                response = yield from self._fill_gaps(
                    target, url, missing, etag, now, trace_ctx, serving
                )
            except (DavixError, NetworkError):
                return self._error(
                    502, "upstream failed and cache incomplete"
                )
            if response is not None:
                if response.status == 206:
                    # Undecodable 206 for the gap ranges: relay the
                    # client's own request verbatim instead.
                    response = yield from self._relay(
                        request, target, trace_ctx
                    )
                    return response
                # A non-206/200 answer (e.g. the object vanished):
                # forward it verbatim.
                return _forwarded(response, cache_state="UNCACHEABLE")

        # Coverage never converged (budget too small for the request):
        # fall back to a verbatim relay so the client still gets bytes.
        response = yield from self._relay(request, target, trace_ctx)
        return response

    def _fill_from_scratch(
        self, request: Request, target: Url, url, now,
        trace_ctx=None, serving=None,
    ):
        """Effect sub-op: nothing cached — forward the request as-is
        and ingest whatever comes back."""
        from repro.errors import DavixError, NetworkError

        upstream = Request(
            "GET", target.target, _strip_hop_headers(request.headers)
        )
        span = self._start_upstream(
            "origin-fetch", trace_ctx, serving, url=url
        )
        try:
            response = yield from self._exchange(
                target, upstream, parent=span
            )
        except (DavixError, NetworkError) as exc:
            if span is not None:
                span.end(error=str(exc))
            return self._error(502, f"upstream failed: {exc}")
        if span is not None:
            span.end(status=response.status)
        if response.status in (200, 206):
            self._ingest(url, response, now)
            self.stats["misses"] += 1
            self._emit_proxy_event(
                now,
                url,
                "MISS",
                response.status,
                len(response.body),
                0,
                trace_ctx,
            )
            return _forwarded(response, cache_state="MISS")
        return _forwarded(response, cache_state="UNCACHEABLE")

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
                chunk = missing[start : start + MAX_GAP_RANGES]
                headers = Headers(
                    [
                        (
                            "Range",
                            format_range_header(
                                [
                                    RangeSpec.from_offset_length(o, n)
                                    for o, n in chunk
                                ]
                            ),
                        )
                    ]
                )
                if etag is not None:
                    headers.set("If-Range", etag)
                upstream = Request("GET", target.target, headers)
                response = yield from self._exchange(
                    target, upstream, parent=span
                )
                if response.status in (200, 206):
                    if not self._ingest(url, response, now):
                        return response  # undecodable: forward verbatim
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

    def _ttl_for(self, response: Response) -> float:
        """Freshness lifetime the origin granted via ``Cache-Control``.

        ``max-age`` overrides the proxy's ``default_ttl``; ``no-cache``
        means "store but revalidate every time" (TTL zero). Anything
        else — including an absent or malformed header — falls back to
        the configured default.
        """
        directives = parse_cache_control(
            response.headers.get("Cache-Control")
        )
        if "no-cache" in directives:
            return 0.0
        max_age = directives.get("max-age")
        if max_age is not None:
            try:
                return max(0.0, float(max_age))
            except ValueError:
                return self.default_ttl
        return self.default_ttl

    def _ingest(self, url: str, response: Response, now: float) -> bool:
        """Decompose one origin response into pages + meta."""
        directives = parse_cache_control(
            response.headers.get("Cache-Control")
        )
        if "no-store" in directives:
            # The origin forbids storing this response: purge whatever
            # we hold and pin the URL to the relay path.
            self.pages.invalidate(url)
            self._meta.pop(url, None)
            self._no_store.add(url)
            return False
        etag = response.headers.get("ETag")
        meta = self._meta.setdefault(url, _ObjectMeta())
        if response.status == 200:
            self.pages.insert(
                url, etag, 0, response.body, total=len(response.body)
            )
            content_type = response.headers.get("Content-Type")
            if content_type:
                meta.content_type = content_type
        elif response.status == 206:
            content_type = response.content_type
            if content_type.lower().startswith("multipart/byteranges"):
                try:
                    parts = decode_byteranges(
                        response.body,
                        content_type_boundary(content_type),
                        copy=False,
                    )
                except (HttpParseError, HttpProtocolError):
                    return False
                for part in parts:
                    self.pages.insert(
                        url, etag, part.offset, part.data, total=part.total
                    )
            else:
                content_range = response.headers.get("Content-Range")
                if content_range is None:
                    return False
                try:
                    offset, _length, total = parse_content_range(
                        content_range
                    )
                except (HttpParseError, HttpProtocolError):
                    return False
                self.pages.insert(
                    url, etag, offset, response.body, total=total
                )
                if content_type:
                    meta.content_type = content_type
        else:
            return False
        last_modified = response.headers.get("Last-Modified")
        if last_modified:
            meta.last_modified = last_modified
        meta.fresh_until = now + self._ttl_for(response)
        self.stats["evictions"] = self.pages.stats["evictions"]
        return True

    def _account(self, state: str, saved_bytes: int) -> None:
        """One stats bump per served request, by outcome."""
        key = {
            "HIT": "hits",
            "STALE": "hits",
            "REVALIDATED": "revalidated",
            "MISS": "misses",
            "PARTIAL": "partial_hits",
        }[state]
        self.stats[key] += 1
        self.stats["origin_bytes_saved"] += max(0, saved_bytes)

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

    @staticmethod
    def _needed_spans(specs, size: int) -> List[Tuple[int, int]]:
        """The object spans a request needs (``[]`` means 416)."""
        if specs is None:
            return [(0, size)] if size > 0 else []
        return resolve_ranges(specs, size)

    # -- response assembly --------------------------------------------------------

    def _assemble(
        self, request: Request, url: str, specs, state: str
    ) -> Optional[Response]:
        """Build the client-facing response from cached pages.

        Mirrors the origin's RFC 7233 behaviour (same resolution, same
        single-range/multipart split) so a cache answer is
        indistinguishable from an origin answer, boundary aside.
        Returns ``None`` if a needed page has been evicted since the
        coverage check — the caller re-plans.
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

        base = Headers([("Accept-Ranges", "bytes"), ("ETag", etag)])
        if meta.last_modified:
            base.set("Last-Modified", meta.last_modified)

        if specs is None:
            body = self.pages.read(url, 0, size)
            if body is None or len(body) != size:
                return None
            headers = base.copy()
            headers.set("Content-Type", meta.content_type)
            return _mark(Response(200, headers, body), state)

        resolved = resolve_ranges(specs, size)
        if not resolved:
            headers = base.copy()
            headers.set("Content-Range", f"bytes */{size}")
            return _mark(Response(416, headers), state)

        if len(resolved) == 1:
            offset, length = resolved[0]
            body = self.pages.read(url, offset, length)
            if body is None or len(body) != length:
                return None
            headers = base.copy()
            headers.set("Content-Type", meta.content_type)
            headers.set(
                "Content-Range", format_content_range(offset, length, size)
            )
            return _mark(Response(206, headers, body), state)

        parts: List[RangePart] = []
        for offset, length in resolved:
            data = self.pages.read(url, offset, length)
            if data is None or len(data) != length:
                return None
            parts.append(RangePart(offset=offset, data=data, total=size))
        boundary = make_boundary()
        pieces = gather_byteranges(parts, boundary, meta.content_type)
        headers = base.copy()
        headers.set(
            "Content-Type", f"multipart/byteranges; boundary={boundary}"
        )
        return _mark(Response(206, headers, pieces=pieces), state)

    # -- introspection ------------------------------------------------------------

    @property
    def cached_objects(self) -> int:
        return self.pages.object_count

    @property
    def cached_bytes(self) -> int:
        return self.pages.used_bytes

    def hit_ratio(self) -> float:
        looked_up = (
            self.stats["hits"]
            + self.stats["misses"]
            + self.stats["partial_hits"]
            + self.stats["revalidated"]
        )
        if looked_up == 0:
            return 0.0
        return (
            self.stats["hits"]
            + self.stats["partial_hits"]
            + self.stats["revalidated"]
        ) / looked_up


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

