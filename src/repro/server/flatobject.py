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
from repro.server.envelope import Envelope, ServerConfig
from repro.server.faults import FaultPolicy
from repro.server.objectstore import ObjectStore, StoreError
from repro.server.rangeserver import plan_range_response

__all__ = ["FlatObjectApp"]

#: The whole verb set of the dialect — nothing WebDAV in it.
FLAT_VERBS = ("GET", "HEAD", "PUT", "DELETE", "OPTIONS")


class FlatObjectApp(Envelope):
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
        super().__init__(
            config or ServerConfig(server_name="repro-flatstore/1.0"),
            faults,
            metrics,
        )
        self.store = store

    def route(self, request: Request):
        if request.method not in FLAT_VERBS:
            response = self._error(
                405, f"{request.method} is not spoken here"
            )
            response.headers.set("Allow", ", ".join(FLAT_VERBS))
            return response
        if request.method == "OPTIONS":
            return Response(
                204, Headers([("Allow", ", ".join(FLAT_VERBS))])
            )
        if request.method == "GET" and self._is_listing(request):
            return self._list_keys(request)
        handler = {
            "GET": self._get_object,
            "HEAD": self._head_object,
            "PUT": self._put_object,
            "DELETE": self._delete_object,
        }[request.method]
        return handler(request)

    # -- object operations --------------------------------------------------

    def _get_object(self, request: Request) -> Response:
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return self._error(404, "no such key")
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
            return Response(416, plan.headers)
        if plan.multipart_boundary is not None:
            self.store.bytes_read += plan.body_bytes
            return Response(
                206, plan.headers, pieces=plan.multipart_pieces(obj)
            )
        offset, length = plan.segments[0]
        body = obj.content.read(offset, length)
        self.store.bytes_read += length
        return Response(plan.status, plan.headers, body)

    def _head_object(self, request: Request) -> Response:
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return self._error(404, "no such key")
        headers = Headers(
            [
                ("Content-Length", obj.size),
                ("Content-Type", obj.content_type),
                ("ETag", obj.etag),
                ("Accept-Ranges", "bytes"),
            ]
        )
        return Response(200, headers)

    def _put_object(self, request: Request) -> Response:
        created = not self.store.exists(request.path)
        obj = self.store.put(
            request.path,
            request.body or b"",
            content_type=request.headers.get(
                "Content-Type", "binary/octet-stream"
            ),
        )
        return Response(
            201 if created else 204, Headers([("ETag", obj.etag)])
        )

    def _delete_object(self, request: Request) -> Response:
        try:
            self.store.delete(request.path)
        except StoreError:
            return self._error(404, "no such key")
        return Response(204)

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

    @staticmethod
    def _error(status: int, message: str) -> Response:
        """Errors are JSON in this dialect, the envelope's included."""
        body = json.dumps({"error": message}).encode("utf-8")
        return Response(
            status,
            Headers([("Content-Type", "application/json")]),
            body,
        )
