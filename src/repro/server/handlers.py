"""Pure request handlers of the storage server (a DPM-like endpoint).

:class:`StorageApp` is the route table behind the shared request
envelope (:mod:`repro.server.envelope`).

Supported surface: GET (full / single range / multi range / metalink
negotiation / redirect mode), HEAD, PUT (whole-object with If-Match,
or ranged ``Content-Range`` chunk uploads), DELETE, OPTIONS, MKCOL,
PROPFIND (depth 0/1) and COPY/MOVE — local, plus WLCG-style
third-party COPY in pull (``Source`` header) and push (remote
``Destination``) modes, where this server becomes the active side of a
multi-stream site-to-site transfer (:mod:`repro.core.tpc`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import HttpParseError, HttpProtocolError
from repro.http import Headers, Request, Response, Url
from repro.http.codec import MAX_PREALLOCATED_BODY
from repro.http.ranges import merge_spans, parse_content_range
from repro.metalink import (
    METALINK_MEDIA_TYPE,
    Metalink,
    MetalinkFile,
    MetalinkUrl,
    write_metalink,
)
from repro.server.envelope import Envelope, ServedResponse, ServerConfig
from repro.server.faults import FaultPolicy
from repro.server.objectstore import ObjectStore, StoreError
from repro.server.rangeserver import plan_range_response
from repro.server.webdav import DavResource, build_multistatus

__all__ = ["StorageApp"]

#: Ranged uploads in progress at once; past this the oldest is dropped.
MAX_PENDING_UPLOADS = 64
#: Stream count of a third-party copy whose COPY carries no
#: ``X-Number-Of-Streams`` header.
TPC_STREAMS = 4


class _PartialUpload:
    """Accumulator for one ranged (``Content-Range``) upload.

    As in :class:`~repro.http.BodyCollector`, the claimed total is
    preallocated only up to ``MAX_PREALLOCATED_BODY``; a larger upload
    keeps its chunks and writes them, in arrival order, at commit.
    """

    __slots__ = ("total", "buffer", "chunks", "spans", "content_type")

    def __init__(self, total: int, content_type: str):
        self.total = total
        self.buffer = (
            bytearray(total) if total <= MAX_PREALLOCATED_BODY else None
        )
        self.chunks: List[Tuple[int, bytes]] = []
        #: Received byte spans, kept merged and sorted.
        self.spans: List[Tuple[int, int]] = []
        self.content_type = content_type

    def write(self, offset: int, data: bytes) -> None:
        if self.buffer is None:
            self.chunks.append((offset, data))
        else:
            # Through a view, which copies ``data`` once, not twice.
            memoryview(self.buffer)[offset:offset + len(data)] = data
        self.spans = merge_spans(self.spans + [(offset, len(data))])

    @property
    def complete(self) -> bool:
        return self.spans == [(0, self.total)]

    def commit(self) -> bytearray:
        """The whole object, once :attr:`complete`."""
        if self.buffer is None:
            self.buffer = bytearray(self.total)
            view = memoryview(self.buffer)
            for offset, data in self.chunks:
                view[offset:offset + len(data)] = data
        return self.buffer


class StorageApp(Envelope):
    """The storage service: object store + HTTP semantics + faults."""

    def __init__(
        self,
        store: ObjectStore,
        config: Optional[ServerConfig] = None,
        replicas: Optional[Dict[str, List[str]]] = None,
        faults: Optional[FaultPolicy] = None,
        metrics=None,
    ):
        super().__init__(config or ServerConfig(), faults, metrics)
        self.store = store
        #: path -> replica URLs advertised via Metalink.
        self.replicas = replicas if replicas is not None else {}
        #: davix context for third-party-copy transfers (lazy).
        self._tpc_context = None
        #: Optional :class:`~repro.core.RequestParams` for the TPC
        #: context (e.g. tuned ``TcpOptions`` for a fat site link).
        self.tpc_params = None
        #: In-progress ranged uploads: path -> _PartialUpload.
        self._uploads: Dict[str, _PartialUpload] = {}

    def route(self, request: Request):
        handler = getattr(
            self, f"_handle_{request.method.lower()}", None
        )
        if handler is not None:
            return handler(request)
        # RFC 7231 §6.5.5: a 405 must advertise what *would* work.
        response = self._error(
            405, f"method {request.method} not allowed"
        )
        response.headers.set("Allow", self._allowed_methods(request.path))
        return response

    # -- method handlers ---------------------------------------------------------

    def _handle_get(self, request: Request) -> ServedResponse:
        if self._wants_metalink(request):
            return ServedResponse(self._metalink_response(request))
        redirect = self._maybe_redirect(request)
        if redirect is not None:
            return ServedResponse(redirect)
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return ServedResponse(self._not_found(request.path))

        if self._not_modified(request, obj):
            headers = Headers([("ETag", obj.etag)])
            return ServedResponse(Response(304, headers))
        # RFC 7232 §3.1: If-Match guards reads against version churn —
        # TPC pull streams send it on every ranged chunk.
        if_match = request.headers.get("If-Match")
        if if_match is not None and if_match.strip() != obj.etag:
            return ServedResponse(self._error(412, "ETag mismatch"))

        range_header = request.headers.get("Range")
        if range_header is not None:
            # RFC 7233 §3.2: an If-Range validator that no longer
            # matches means the Range is against a stale version —
            # ignore it and send the full current representation.
            if_range = request.headers.get("If-Range")
            if if_range is not None and if_range.strip() != obj.etag:
                range_header = None
        plan = plan_range_response(
            obj, range_header, max_ranges=self.config.max_ranges
        )
        if plan.status == 416:
            return ServedResponse(Response(416, plan.headers))
        digest = self._digest_header(request, obj)
        if digest is not None:
            # RFC 3230: the digest is of the *representation* (the
            # whole object), even on a partial response.
            plan.headers.set("Digest", digest)
        if plan.multipart_boundary is not None:
            self.store.bytes_read += plan.body_bytes
            return ServedResponse(
                Response(
                    206, plan.headers, pieces=plan.multipart_pieces(obj)
                )
            )
        offset, length = plan.segments[0]
        stream = self._stream_object(obj, offset, length)
        return ServedResponse(
            Response(plan.status, plan.headers),
            stream=stream,
            stream_length=length,
        )

    def _handle_head(self, request: Request) -> ServedResponse:
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return ServedResponse(self._not_found(request.path))
        headers = Headers(
            [
                ("Accept-Ranges", "bytes"),
                ("Content-Type", obj.content_type),
                ("Content-Length", obj.size),
                ("ETag", obj.etag),
            ]
        )
        digest = self._digest_header(request, obj)
        if digest is not None:
            headers.set("Digest", digest)
        return ServedResponse(Response(200, headers))

    def _handle_put(self, request: Request) -> ServedResponse:
        content_range = request.headers.get("Content-Range")
        if content_range is not None:
            return self._ranged_put(request, content_range)
        if_match = request.headers.get("If-Match")
        if if_match is not None:
            try:
                current = self.store.get(request.path)
            except StoreError:
                return ServedResponse(
                    self._error(412, "If-Match on missing resource")
                )
            if current.etag != if_match:
                return ServedResponse(
                    self._error(412, "ETag mismatch")
                )
        existed = self.store.exists(request.path)
        obj = self.store.put(
            request.path,
            request.body,
            content_type=request.headers.get(
                "Content-Type", "application/octet-stream"
            ),
        )
        status = 204 if existed else 201
        headers = Headers([("ETag", obj.etag)])
        digest = self._digest_header(request, obj)
        if digest is not None:
            headers.set("Digest", digest)
        return ServedResponse(Response(status, headers))

    def _ranged_put(
        self, request: Request, content_range: str
    ) -> ServedResponse:
        """One chunk of a striped upload (TPC push mode).

        Chunks accumulate per path; once the spans cover the whole
        announced total, the object commits atomically and the reply
        carries the committed ETag (and ``Digest`` when asked for).
        Until then each chunk is answered ``202 Accepted``.
        """
        try:
            offset, length, total = parse_content_range(content_range)
        except (HttpParseError, HttpProtocolError) as exc:
            return ServedResponse(self._error(400, str(exc)))
        if total is None:
            return ServedResponse(
                self._error(400, "Content-Range PUT requires a total")
            )
        if length != len(request.body) or offset + length > total:
            return ServedResponse(
                self._error(400, "Content-Range does not match body")
            )
        path = request.path
        upload = self._uploads.get(path)
        if upload is None or upload.total != total:
            self._uploads.pop(path, None)
            if len(self._uploads) >= MAX_PENDING_UPLOADS:
                del self._uploads[next(iter(self._uploads))]
                self._count("server.uploads_evicted_total")
            upload = _PartialUpload(
                total,
                request.headers.get(
                    "Content-Type", "application/octet-stream"
                ),
            )
            self._uploads[path] = upload
        upload.write(offset, request.body)
        if not upload.complete:
            return ServedResponse(Response(202))
        del self._uploads[path]
        existed = self.store.exists(path)
        # The buffer is no longer in _uploads: the store adopts it.
        obj = self.store.put(path, upload.commit(), upload.content_type)
        headers = Headers([("ETag", obj.etag)])
        digest = self._digest_header(request, obj)
        if digest is not None:
            headers.set("Digest", digest)
        return ServedResponse(
            Response(204 if existed else 201, headers)
        )

    def _handle_delete(self, request: Request) -> ServedResponse:
        try:
            self.store.delete(request.path)
        except StoreError as exc:
            if "no such" in str(exc):
                return ServedResponse(self._not_found(request.path))
            return ServedResponse(self._error(409, str(exc)))
        return ServedResponse(Response(204))

    def _handle_options(self, request: Request) -> ServedResponse:
        headers = Headers(
            [
                ("Allow", self._allowed_methods(request.path)),
                ("DAV", "1"),
            ]
        )
        if (
            self.store.exists(request.path)
            and not self.store.is_collection(request.path)
        ):
            headers.set("Accept-Ranges", "bytes")
        return ServedResponse(Response(200, headers))

    def _allowed_methods(self, path: str) -> str:
        """The verbs actually supported at ``path``, per resource type.

        COPY appears everywhere: files and collections copy out, and a
        missing path is a valid pull-mode TPC destination.
        """
        if not self.store.exists(path):
            return "OPTIONS, PUT, MKCOL, COPY"
        if self.store.is_collection(path):
            return "OPTIONS, PROPFIND, DELETE, COPY, MOVE"
        return (
            "GET, HEAD, OPTIONS, PROPFIND, PUT, DELETE, COPY, MOVE"
        )

    def _handle_mkcol(self, request: Request) -> ServedResponse:
        try:
            self.store.mkcol(request.path)
        except StoreError as exc:
            return ServedResponse(self._error(409, str(exc)))
        return ServedResponse(Response(201))

    def _handle_copy(self, request: Request) -> ServedResponse:
        source_url = request.headers.get("Source")
        if source_url is not None:
            return self._third_party_copy(request, source_url, "pull")
        destination = request.headers.get("Destination")
        if destination is not None and self._is_remote_destination(
            request, destination
        ):
            return self._third_party_copy(request, destination, "push")
        return self._copy_or_move(request, remove_source=False)

    def _is_remote_destination(
        self, request: Request, destination: str
    ) -> bool:
        """Does the Destination header name another origin?"""
        try:
            url = Url.parse(destination)
        except HttpProtocolError:
            return False  # bare path: always local
        host = request.headers.get("Host")
        if host is None:
            return False
        return url.netloc != host and url.host != host

    def _tpc(self):
        """The lazy davix context this server transfers through."""
        if self._tpc_context is None:
            from repro.core.context import Context

            self._tpc_context = Context(
                params=self.tpc_params, tracer=self.tracer
            )
        return self._tpc_context

    def _third_party_copy(
        self, request: Request, remote: str, mode: str
    ) -> ServedResponse:
        """WLCG-style HTTP third-party copy (pull or push mode).

        Pull: the client asks *this* server to fetch ``Source`` into
        ``request.path``. Push: the client asks this server to upload
        ``request.path`` to a remote ``Destination``. Either way the
        bytes flow site-to-site over N concurrent ranged streams
        without crossing the client's link; the transfer runs as
        deferred work (this server acts as a davix client towards its
        peer) and the pending COPY answers 202 with a perf-marker
        stream (:mod:`repro.core.tpc`).
        """
        from repro.core.tpc import run_pull, run_push
        from repro.obs.propagation import (
            TRACEPARENT_HEADER,
            parse_traceparent,
        )

        path = request.path
        if mode == "push" and not self.store.exists(path):
            return ServedResponse(self._not_found(path))
        requested = request.headers.get_int("X-Number-Of-Streams")
        if requested is None or requested < 1:
            requested = TPC_STREAMS
        streams = min(requested, self.config.tpc_max_streams)
        trace_ctx = parse_traceparent(
            request.headers.get(TRACEPARENT_HEADER)
        )

        def transfer():
            run = run_pull if mode == "pull" else run_push
            response = yield from run(
                self._tpc(),
                self.store,
                path,
                remote,
                streams,
                self.config.tpc_chunk,
                metrics=self.metrics,
                trace_ctx=trace_ctx,
            )
            return response

        return ServedResponse(Response(500), deferred=transfer)

    def _handle_move(self, request: Request) -> ServedResponse:
        return self._copy_or_move(request, remove_source=True)

    def _copy_or_move(
        self, request: Request, remove_source: bool
    ) -> ServedResponse:
        """RFC 4918 COPY/MOVE with a Destination header."""
        destination = request.headers.get("Destination")
        if destination is None:
            return ServedResponse(
                self._error(400, "COPY/MOVE without Destination header")
            )
        try:
            target = Url.parse(destination).decoded_path
        except HttpProtocolError:
            target = destination  # tolerate a bare path
        overwrite = request.headers.get("Overwrite", "T").upper() != "F"
        if not self.store.exists(request.path):
            return ServedResponse(self._not_found(request.path))
        existed = self.store.exists(target)
        if existed and not overwrite:
            return ServedResponse(
                self._error(412, f"destination exists: {target}")
            )
        if self.store.is_collection(request.path):
            # Deep copy (RFC 4918 COPY on collections is Depth
            # infinity by default).
            if existed:
                if self.store.is_collection(target):
                    self.store.remove_tree(target)
                else:
                    self.store.delete(target)
            self._copy_tree(request.path, target)
            if remove_source:
                self.store.remove_tree(request.path)
            return ServedResponse(Response(204 if existed else 201))
        source = self.store.get(request.path)
        self.store.put(target, source.content, source.content_type)
        if remove_source:
            self.store.delete(request.path)
        return ServedResponse(Response(204 if existed else 201))

    def _copy_tree(self, source: str, target: str) -> None:
        """Recursively copy a collection (empty members included)."""
        self.store.ensure_collection(target)
        for member in self.store.list_collection(source):
            child = target.rstrip("/") + "/" + member.rsplit("/", 1)[-1]
            if self.store.is_collection(member):
                self._copy_tree(member, child)
            else:
                obj = self.store.get(member)
                self.store.put(child, obj.content, obj.content_type)

    def _handle_propfind(self, request: Request) -> ServedResponse:
        depth = request.headers.get("Depth", "infinity").strip()
        if depth not in ("0", "1"):
            return ServedResponse(
                self._error(403, f"Depth {depth} not supported")
            )
        if not self.store.exists(request.path):
            return ServedResponse(self._not_found(request.path))

        resources = [self._dav_resource(request.path)]
        if depth == "1" and self.store.is_collection(request.path):
            for member in self.store.list_collection(request.path):
                resources.append(self._dav_resource(member))
        body = build_multistatus(resources)
        headers = Headers(
            [("Content-Type", 'application/xml; charset="utf-8"')]
        )
        return ServedResponse(Response(207, headers, body))

    # -- helpers ------------------------------------------------------------------

    def _digest_header(self, request: Request, obj) -> Optional[str]:
        """RFC 3230: answer ``Want-Digest`` with a supported algo."""
        want = request.headers.get("Want-Digest")
        if want is None:
            return None
        for token in want.split(","):
            algo = token.split(";")[0].strip().lower()
            if algo in ("adler32", "md5"):
                return f"{algo}={obj.checksum(algo)}"
        return None

    def _stream_object(self, obj, offset: int, length: int):
        """Yield the object range in ``send_chunk`` pieces: views of a
        buffer the store holds, reads of any other content."""
        chunk = self.config.send_chunk
        end = offset + length
        position = offset
        while position < end:
            take = min(chunk, end - position)
            data = obj.content.view(position, take)
            self.store.bytes_read += len(data)
            position += take
            yield data

    def _dav_resource(self, path: str) -> DavResource:
        size, mtime, is_collection = self.store.stat(path)
        etag = None
        if not is_collection:
            etag = self.store.get(path).etag
        href = path + "/" if is_collection and path != "/" else path
        return DavResource(
            href=href,
            is_collection=is_collection,
            size=size,
            mtime=mtime,
            etag=etag,
        )

    def _wants_metalink(self, request: Request) -> bool:
        if "metalink" in request.query.lower():
            return True
        accept = request.headers.get("Accept", "")
        return METALINK_MEDIA_TYPE in accept

    def _metalink_response(self, request: Request) -> Response:
        urls = self.replicas.get(request.path)
        if not urls:
            return self._not_found(request.path)
        entry = MetalinkFile(
            name=request.path.rsplit("/", 1)[-1] or "/",
            urls=[
                MetalinkUrl(url=url, priority=index + 1)
                for index, url in enumerate(urls)
            ],
        )
        try:
            obj = self.store.get(request.path)
        except StoreError:
            pass
        else:
            entry.size = obj.size
            entry.hashes["adler32"] = obj.checksum("adler32")
        body = write_metalink(Metalink(files=[entry]))
        headers = Headers([("Content-Type", METALINK_MEDIA_TYPE)])
        return Response(200, headers, body)

    def _maybe_redirect(self, request: Request) -> Optional[Response]:
        """DPM head-node mode: send data traffic to the disk node."""
        if self.config.redirect_base is None:
            return None
        if "direct" in request.query.lower():
            return None
        target = Url.parse(self.config.redirect_base).with_path(
            request.path, encode=False
        )
        location = str(target) + "?direct=1"
        return Response(302, Headers([("Location", location)]))

    def _not_modified(self, request: Request, obj) -> bool:
        etags = request.headers.get("If-None-Match")
        if etags is not None:
            candidates = [tag.strip() for tag in etags.split(",")]
            return "*" in candidates or obj.etag in candidates
        since = request.headers.get("If-Modified-Since")
        if since is not None:
            from repro.http.dates import parse_http_date

            threshold = parse_http_date(since)
            if threshold is not None:
                return obj.mtime <= threshold
        return False

    def _not_found(self, path: str) -> Response:
        return self._error(404, f"resource not found: {path}")
