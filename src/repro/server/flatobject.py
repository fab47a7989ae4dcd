"""Flat-object storage dialect: S3-like GET-by-key, no WebDAV.

The paper argues HTTP's strength is that *any* HTTP storage speaks the
same client protocol — WebDAV-rich DPM nodes and bare cloud object
stores alike. This app is the minimal far end of that claim: a flat
key space where the only verbs are ``GET``/``HEAD``/``PUT``/``DELETE``
(plus ranged and multi-range GETs via the shared RFC 7233 machinery).
``PROPFIND``, ``MKCOL``, ``COPY``, ``MOVE`` and the rest of the WebDAV
vocabulary answer 405 — which is exactly what the davix read stack
must tolerate: :class:`~repro.core.file.DavFile` stats via HEAD and
reads via ranged GET, so vectored I/O, the transfer engine and the
page cache run unchanged against this dialect
(:class:`~repro.core.objectclient.ObjectStoreClient` is the client-side
pairing).

Listing is one JSON endpoint (``GET /?list=1&prefix=...``) so tooling
can enumerate keys without PROPFIND.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.http import Headers, Request, Response
from repro.server.faults import FaultPolicy
from repro.server.handlers import ServedResponse, ServerConfig
from repro.server.objectstore import ObjectStore, StoreError
from repro.server.rangeserver import plan_range_response

__all__ = ["FlatObjectApp"]

#: The whole verb set of the dialect — nothing WebDAV in it.
FLAT_VERBS = ("GET", "HEAD", "PUT", "DELETE", "OPTIONS")


class FlatObjectApp:
    """Flat-object request handler over an :class:`ObjectStore`.

    Keys are opaque paths (slashes carry no collection semantics on
    the wire). Plugs into the same
    :class:`~repro.server.app.HttpServer` as the WebDAV app and wears
    the same :class:`~repro.server.faults.FaultPolicy` for chaos runs.
    """

    def __init__(
        self,
        store: ObjectStore,
        config: Optional[ServerConfig] = None,
        faults: Optional[FaultPolicy] = None,
        metrics=None,
    ):
        self.store = store
        self.config = config or ServerConfig(
            server_name="repro-flatstore/1.0"
        )
        self.faults = faults
        self.requests_handled = 0
        #: Optional :class:`~repro.obs.MetricsRegistry`; same
        #: per-method/per-status series the WebDAV app records, so
        #: object-backend runs are not observability blind spots.
        self.metrics = metrics
        #: Optional :class:`~repro.server.accesslog.AccessLog` — the
        #: serve loop records one entry per served request.
        self.access_log = None
        #: Optional :class:`~repro.obs.Tracer`: the serve loop starts a
        #: ``server-request`` span per request, joined to the client's
        #: trace when a ``Traceparent`` header arrives.
        self.tracer = None
        #: Optional :class:`~repro.obs.EventLog` for server-side wide
        #: events (one per served request).
        self.events = None

    # -- entry point --------------------------------------------------------

    def handle(self, request: Request) -> ServedResponse:
        """Compute the response for ``request`` (no I/O, no blocking)."""
        if (
            self.config.metrics_path is not None
            and request.method == "GET"
            and request.path == self.config.metrics_path
        ):
            return self._metrics_response()
        self.requests_handled += 1
        if self.metrics is not None:
            self.metrics.counter(
                "server.requests_total", method=request.method
            ).inc()
        fault = (
            self.faults.next_action(request.path) if self.faults else None
        )
        if fault is not None and fault.kind == "error":
            return self._finish(
                request,
                ServedResponse(
                    self._error(fault.status, "injected fault")
                ),
            )

        if request.method not in FLAT_VERBS:
            response = self._error(
                405, f"{request.method} is not spoken here"
            )
            response.headers.set("Allow", ", ".join(FLAT_VERBS))
            served = ServedResponse(response)
        elif request.method == "OPTIONS":
            served = ServedResponse(
                Response(204, Headers([("Allow", ", ".join(FLAT_VERBS))]))
            )
        elif request.method == "GET" and self._is_listing(request):
            served = ServedResponse(self._list_keys(request))
        else:
            handler = {
                "GET": self._get_object,
                "HEAD": self._head_object,
                "PUT": self._put_object,
                "DELETE": self._delete_object,
            }[request.method]
            served = handler(request)

        if fault is not None:
            if fault.kind == "slow":
                served.service_time += fault.delay
            elif fault.kind == "reset":
                served.reset_midway = True
        return self._finish(request, served)

    # -- object operations --------------------------------------------------

    def _get_object(self, request: Request) -> ServedResponse:
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return ServedResponse(self._error(404, "no such key"))
        range_header = request.headers.get("Range")
        if range_header is not None:
            if_range = request.headers.get("If-Range")
            if if_range is not None and if_range.strip() != obj.etag:
                range_header = None
        plan = plan_range_response(
            obj,
            range_header,
            multirange_supported=self.config.multirange,
            max_ranges=self.config.max_ranges,
        )
        if plan.status == 416:
            return ServedResponse(Response(416, plan.headers))
        if plan.multipart_boundary is not None:
            self.store.bytes_read += plan.body_bytes
            return ServedResponse(
                Response(
                    206, plan.headers, pieces=plan.multipart_pieces(obj)
                )
            )
        offset, length = plan.segments[0]
        body = obj.content.read(offset, length)
        self.store.bytes_read += length
        return ServedResponse(Response(plan.status, plan.headers, body))

    def _head_object(self, request: Request) -> ServedResponse:
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return ServedResponse(self._error(404, "no such key"))
        headers = Headers(
            [
                ("Content-Length", obj.size),
                ("Content-Type", obj.content_type),
                ("ETag", obj.etag),
                ("Accept-Ranges", "bytes"),
            ]
        )
        return ServedResponse(Response(200, headers))

    def _put_object(self, request: Request) -> ServedResponse:
        created = not self.store.exists(request.path)
        obj = self.store.put(
            request.path,
            request.body or b"",
            content_type=request.headers.get(
                "Content-Type", "binary/octet-stream"
            ),
        )
        return ServedResponse(
            Response(201 if created else 204, Headers([("ETag", obj.etag)]))
        )

    def _delete_object(self, request: Request) -> ServedResponse:
        try:
            self.store.delete(request.path)
        except StoreError:
            return ServedResponse(self._error(404, "no such key"))
        return ServedResponse(Response(204))

    # -- listing ------------------------------------------------------------

    @staticmethod
    def _is_listing(request: Request) -> bool:
        return "list=1" in (request.query or "").split("&")

    def _list_keys(self, request: Request) -> Response:
        prefix = ""
        for param in (request.query or "").split("&"):
            name, _, value = param.partition("=")
            if name == "prefix":
                prefix = value
        keys = []
        stack = ["/"]
        while stack:
            current = stack.pop()
            for member in self.store.list_collection(current):
                if self.store.is_collection(member):
                    stack.append(member)
                elif member.startswith(prefix):
                    keys.append(member)
        body = json.dumps({"keys": sorted(keys)}).encode("utf-8")
        return Response(
            200, Headers([("Content-Type", "application/json")]), body
        )

    # -- plumbing -----------------------------------------------------------

    def _metrics_response(self) -> ServedResponse:
        """The Prometheus text exposition of this app's registry."""
        from repro.obs.export import (
            PROMETHEUS_CONTENT_TYPE,
            prometheus_exposition,
        )

        text = (
            prometheus_exposition(self.metrics)
            if self.metrics is not None
            else ""
        )
        body = text.encode("utf-8")
        headers = Headers(
            [
                ("Content-Type", PROMETHEUS_CONTENT_TYPE),
                ("Content-Length", len(body)),
            ]
        )
        served = ServedResponse(Response(200, headers, body))
        served.response.headers.setdefault(
            "Server", self.config.server_name
        )
        return served

    def _finish(self, request, served: ServedResponse) -> ServedResponse:
        served.response.headers.setdefault(
            "Server", self.config.server_name
        )
        if (
            self.config.cache_control is not None
            and request.method in ("GET", "HEAD")
            and served.response.status in (200, 206, 304)
        ):
            served.response.headers.setdefault(
                "Cache-Control", self.config.cache_control
            )
        served.service_time += self.config.service_overhead
        served.service_time += (
            served.body_length / self.config.disk_bandwidth
        )
        return served

    @staticmethod
    def _error(status: int, message: str) -> Response:
        body = json.dumps({"error": message}).encode("utf-8")
        return Response(
            status,
            Headers([("Content-Type", "application/json")]),
            body,
        )
