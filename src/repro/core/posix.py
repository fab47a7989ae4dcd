"""DavPosix: the namespace calls of the davix POSIX-like layer.

``listdir`` (PROPFIND), ``mkdir`` (MKCOL), ``rename`` (MOVE), ``copy``
(COPY) and ``third_party_copy`` (WebDAV third-party COPY) — the calls
:class:`~repro.core.client.DavixClient` routes through. Reads and
writes go through :class:`~repro.core.file.DavFile`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.context import Context, RequestParams
from repro.core.file import FileStat, raise_for_status
from repro.core.request import execute_request
from repro.errors import DavixError
from repro.http import Headers, Request, Url
from repro.server.webdav import parse_multistatus

__all__ = ["DavPosix"]


class DavPosix:
    """Namespace operations bound to a davix context."""

    def __init__(
        self, context: Context, params: Optional[RequestParams] = None
    ):
        self.context = context
        self.params = params or context.params

    def mkdir(self, url):
        """Effect sub-op: create a remote collection (MKCOL)."""
        parsed = Url.parse(url)
        request = Request("MKCOL", parsed.target)
        response, _ = yield from execute_request(
            self.context, parsed, request, self.params
        )
        raise_for_status(response, parsed.path)

    def rename(self, source_url, destination_url, overwrite: bool = True):
        """Effect sub-op: WebDAV MOVE (atomic server-side rename)."""
        yield from self._copy_or_move(
            "MOVE", source_url, destination_url, overwrite
        )

    def copy(self, source_url, destination_url, overwrite: bool = True):
        """Effect sub-op: WebDAV COPY (server-side duplication —
        no bytes cross the client's link)."""
        yield from self._copy_or_move(
            "COPY", source_url, destination_url, overwrite
        )

    def third_party_copy(
        self,
        source_url,
        destination_url,
        mode: str = "pull",
        streams: Optional[int] = None,
        overwrite: bool = True,
    ):
        """Effect sub-op: WebDAV third-party COPY.

        In ``pull`` mode the COPY goes to the *destination* server with
        a ``Source`` header; in ``push`` mode it goes to the *source*
        server with an absolute ``Destination``. Either way the storage
        nodes move the object directly over their own link — the only
        bytes crossing this client are the COPY request and the
        ``Perf Marker`` progress stream on the 202 response.
        """
        from repro.core.tpc import parse_marker_stream

        if mode not in ("pull", "push"):
            raise DavixError("tpc", f"unknown TPC mode {mode!r}")
        source = Url.parse(source_url)
        destination = Url.parse(destination_url)
        if mode == "pull":
            active, target = destination, destination.target
            headers = Headers([("Source", str(source))])
        else:
            active, target = source, source.target
            headers = Headers([("Destination", str(destination))])
        headers.set("Overwrite", "T" if overwrite else "F")
        if streams is not None:
            if streams < 1:
                raise DavixError("tpc", "streams must be >= 1")
            headers.set("X-Number-Of-Streams", str(streams))
        request = Request("COPY", target, headers)
        response, _ = yield from execute_request(
            self.context, active, request, self.params
        )
        if response.status != 202:
            raise_for_status(response, active.path)
            raise DavixError(
                "tpc",
                f"unexpected TPC response {response.status}",
                response.status,
            )
        summary = parse_marker_stream(response.body.decode("utf-8"))
        if not summary.ok:
            raise DavixError(
                "tpc",
                f"third-party copy failed: {summary.message}",
                502,
            )
        return summary

    def _copy_or_move(self, method, source_url, destination_url, overwrite):
        source = Url.parse(source_url)
        destination = Url.parse(destination_url)
        headers = Headers(
            [
                ("Destination", str(destination)),
                ("Overwrite", "T" if overwrite else "F"),
            ]
        )
        request = Request(method, source.target, headers)
        response, _ = yield from execute_request(
            self.context, source, request, self.params
        )
        raise_for_status(response, source.path)

    def listdir(self, url):
        """Effect sub-op: names inside a remote collection.

        Uses PROPFIND Depth 1, like ``davix-ls``.
        """
        parsed = Url.parse(url)
        request = Request(
            "PROPFIND", parsed.target, Headers([("Depth", "1")])
        )
        response, final_url = yield from execute_request(
            self.context, parsed, request, self.params
        )
        raise_for_status(response, parsed.path)
        base = final_url.path.rstrip("/")
        listing: List[Tuple[str, FileStat]] = []
        for res in parse_multistatus(response.body):
            href = res.href.rstrip("/")
            if href == base or not href:
                continue  # the collection itself
            stat = FileStat(
                size=res.size,
                mtime=res.mtime,
                is_directory=res.is_collection,
                etag=res.etag,
            )
            listing.append((res.name, stat))
        return listing
