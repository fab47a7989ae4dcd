"""S3-compatible REST interface over the object store.

The paper's introduction motivates HTTP data access with exactly this:
"HTTP is the foundation for interactions with commercial cloud storage
providers like Amazon Simple Storage Service ... using REST API like
S3" — and the real davix ships S3 support. This module adds an
AWS-signature-v2-style bucket/key interface on top of the same
:class:`~repro.server.objectstore.ObjectStore`:

* ``GET /bucket/key`` / ``PUT`` / ``DELETE`` / ``HEAD`` with signature
  verification (``Authorization: AWS <access>:<signature>``);
* ``GET /bucket?list-type=2`` -> ListObjectsV2-style XML;
* Range requests work exactly as on the WebDAV side (same range
  machinery), so davix's vectored reads run against S3 too.

The signature scheme is a faithful *shape* of AWS V2 (HMAC-SHA1 over a
canonical string); it is not wire-compatible with AWS (we do not claim
to be), but exercises the identical client code path: computing and
attaching an Authorization header per request.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

from repro.http import Headers, Request, Response
from repro.server.handlers import ServedResponse, ServerConfig
from repro.server.objectstore import ObjectStore, StoreError
from repro.server.rangeserver import plan_range_response

__all__ = ["S3Credentials", "sign_request", "S3App"]


@dataclass(frozen=True)
class S3Credentials:
    """An access-key pair."""

    access_key: str
    secret_key: str


def canonical_string(method: str, path: str, amz_date: str) -> str:
    """The string both sides sign (method, path, date)."""
    return f"{method}\n{amz_date}\n{path}"


def compute_signature(
    credentials: S3Credentials, method: str, path: str, amz_date: str
) -> str:
    digest = hmac.new(
        credentials.secret_key.encode("utf-8"),
        canonical_string(method, path, amz_date).encode("utf-8"),
        hashlib.sha1,
    ).digest()
    return base64.b64encode(digest).decode("ascii")


def sign_request(
    request: Request, credentials: S3Credentials, date: str
) -> None:
    """Attach x-amz-date and Authorization headers to ``request``."""
    request.headers.set("x-amz-date", date)
    signature = compute_signature(
        credentials, request.method, request.path, date
    )
    request.headers.set(
        "Authorization", f"AWS {credentials.access_key}:{signature}"
    )


class S3App:
    """S3-flavoured request handler over an ObjectStore.

    Buckets are top-level collections; keys live underneath. Plugs into
    the same :class:`~repro.server.app.HttpServer` as the WebDAV app.
    """

    def __init__(
        self,
        store: ObjectStore,
        credentials: Optional[S3Credentials] = None,
        config: Optional[ServerConfig] = None,
    ):
        self.store = store
        #: None disables authentication (public bucket).
        self.credentials = credentials
        self.config = config or ServerConfig(server_name="repro-s3/1.0")
        self.requests_handled = 0
        self.auth_failures = 0

    # -- entry point ----------------------------------------------------------

    def handle(self, request: Request) -> ServedResponse:
        self.requests_handled += 1
        if not self._authorized(request):
            self.auth_failures += 1
            return ServedResponse(
                self._xml_error(403, "SignatureDoesNotMatch")
            )
        bucket, _, key = request.path.lstrip("/").partition("/")
        if not bucket:
            return ServedResponse(self._xml_error(400, "InvalidRequest"))
        if request.method == "GET" and not key:
            return ServedResponse(self._list_objects(bucket, request))
        handler = {
            "GET": self._get_object,
            "HEAD": self._head_object,
            "PUT": self._put_object,
            "DELETE": self._delete_object,
        }.get(request.method)
        if handler is None:
            return ServedResponse(
                self._xml_error(405, "MethodNotAllowed")
            )
        return handler(bucket, key, request)

    # -- auth -------------------------------------------------------------------

    def _authorized(self, request: Request) -> bool:
        if self.credentials is None:
            return True
        header = request.headers.get("Authorization", "")
        if not header.startswith("AWS "):
            return False
        try:
            access_key, signature = header[4:].split(":", 1)
        except ValueError:
            return False
        if access_key != self.credentials.access_key:
            return False
        date = request.headers.get("x-amz-date", "")
        expected = compute_signature(
            self.credentials, request.method, request.path, date
        )
        return hmac.compare_digest(signature, expected)

    # -- object operations ----------------------------------------------------------

    def _object_path(self, bucket: str, key: str) -> str:
        return f"/{bucket}/{key}"

    def _get_object(self, bucket, key, request) -> ServedResponse:
        try:
            obj = self.store.get(self._object_path(bucket, key))
        except StoreError:
            return ServedResponse(self._xml_error(404, "NoSuchKey"))
        plan = plan_range_response(
            obj,
            request.headers.get("Range"),
            multirange_supported=self.config.multirange,
            max_ranges=self.config.max_ranges,
        )
        if plan.status == 416:
            return ServedResponse(Response(416, plan.headers))
        if plan.multipart_boundary is not None:
            return ServedResponse(
                Response(
                    206, plan.headers, pieces=plan.multipart_pieces(obj)
                )
            )
        offset, length = plan.segments[0]
        body = obj.content.read(offset, length)
        self.store.bytes_read += length
        return ServedResponse(Response(plan.status, plan.headers, body))

    def _head_object(self, bucket, key, request) -> ServedResponse:
        try:
            obj = self.store.get(self._object_path(bucket, key))
        except StoreError:
            return ServedResponse(Response(404))
        headers = Headers(
            [
                ("Content-Length", obj.size),
                ("Content-Type", obj.content_type),
                ("ETag", obj.etag),
                ("Accept-Ranges", "bytes"),
            ]
        )
        return ServedResponse(Response(200, headers))

    def _put_object(self, bucket, key, request) -> ServedResponse:
        if not key:
            # Bucket creation.
            if self.store.exists(f"/{bucket}"):
                return ServedResponse(Response(200))
            self.store.mkcol(f"/{bucket}")
            return ServedResponse(Response(200))
        obj = self.store.put(
            self._object_path(bucket, key),
            request.body,
            content_type=request.headers.get(
                "Content-Type", "binary/octet-stream"
            ),
        )
        return ServedResponse(
            Response(200, Headers([("ETag", obj.etag)]))
        )

    def _delete_object(self, bucket, key, request) -> ServedResponse:
        try:
            self.store.delete(self._object_path(bucket, key))
        except StoreError:
            return ServedResponse(self._xml_error(404, "NoSuchKey"))
        return ServedResponse(Response(204))

    # -- listing ------------------------------------------------------------------

    def _list_objects(self, bucket: str, request: Request) -> Response:
        if not self.store.is_collection(f"/{bucket}"):
            return self._xml_error(404, "NoSuchBucket")
        prefix = ""
        for param in request.query.split("&"):
            name, _, value = param.partition("=")
            if name == "prefix":
                prefix = value
        root = ET.Element("ListBucketResult")
        ET.SubElement(root, "Name").text = bucket
        ET.SubElement(root, "Prefix").text = prefix
        contents = []
        stack = [f"/{bucket}"]
        while stack:
            current = stack.pop()
            for member in self.store.list_collection(current):
                if self.store.is_collection(member):
                    stack.append(member)
                else:
                    key = member[len(f"/{bucket}/") :]
                    if key.startswith(prefix):
                        contents.append((key, self.store.get(member)))
        for key, obj in sorted(contents):
            entry = ET.SubElement(root, "Contents")
            ET.SubElement(entry, "Key").text = key
            ET.SubElement(entry, "Size").text = str(obj.size)
            ET.SubElement(entry, "ETag").text = obj.etag
        ET.SubElement(root, "KeyCount").text = str(len(contents))
        body = ET.tostring(root, encoding="utf-8", xml_declaration=True)
        return Response(
            200, Headers([("Content-Type", "application/xml")]), body
        )

    @staticmethod
    def _xml_error(status: int, code: str) -> Response:
        root = ET.Element("Error")
        ET.SubElement(root, "Code").text = code
        body = ET.tostring(root, encoding="utf-8", xml_declaration=True)
        return Response(
            status, Headers([("Content-Type", "application/xml")]), body
        )
