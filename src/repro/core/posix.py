"""DavPosix: the POSIX-like veneer davix exposes to applications.

Maps ``open/read/pread/lseek/close`` and ``opendir/readdir`` onto the
HTTP operations of :class:`~repro.core.file.DavFile` — the same shape
the real libdavix offers so frameworks like ROOT can treat a URL as a
file descriptor.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.core.context import Context, RequestParams
from repro.core.file import DavFile, FileStat
from repro.core.request import execute_request
from repro.errors import DavixError
from repro.http import Headers, Request, Url
from repro.server.webdav import parse_multistatus

__all__ = ["DavFd", "DavPosix"]


class DavFd:
    """An open remote file: a DavFile plus a position cursor."""

    def __init__(self, file: DavFile, size: int):
        self.file = file
        self.size = size
        self.position = 0
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise DavixError("posix", "operation on closed descriptor")


class DavPosix:
    """POSIX-flavoured operations bound to a davix context."""

    def __init__(
        self, context: Context, params: Optional[RequestParams] = None
    ):
        self.context = context
        self.params = params or context.params

    # -- descriptors -------------------------------------------------------

    def open(self, url):
        """Effect sub-op: open a remote file (stat validates existence)."""
        handle = DavFile(self.context, url, self.params)
        stat = yield from handle.stat()
        if stat.is_directory:
            raise DavixError(
                "posix", f"{handle.url.path} is a directory"
            )
        return DavFd(handle, stat.size)

    def read(self, fd: DavFd, count: int):
        """Effect sub-op: sequential read advancing the cursor."""
        fd._check_open()
        if fd.position >= fd.size:
            return b""
        data = yield from fd.file.pread(fd.position, count)
        fd.position += len(data)
        return data

    def pread(self, fd: DavFd, offset: int, count: int):
        """Effect sub-op: positional read (cursor untouched)."""
        fd._check_open()
        data = yield from fd.file.pread(offset, count)
        return data

    def pread_vec(self, fd: DavFd, reads: Sequence[Tuple[int, int]]):
        """Effect sub-op: vectored positional read (davix_preadvec)."""
        fd._check_open()
        chunks = yield from fd.file.pread_vec(reads)
        return chunks

    def lseek(self, fd: DavFd, offset: int, whence: int = os.SEEK_SET) -> int:
        """Move the cursor; returns the new position."""
        fd._check_open()
        if whence == os.SEEK_SET:
            target = offset
        elif whence == os.SEEK_CUR:
            target = fd.position + offset
        elif whence == os.SEEK_END:
            target = fd.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if target < 0:
            raise DavixError("posix", f"seek before start: {target}")
        fd.position = target
        return target

    def close(self, fd: DavFd) -> None:
        """Release the descriptor (sessions stay pooled for reuse)."""
        fd.closed = True

    # -- metadata ------------------------------------------------------------

    def stat(self, url):
        """Effect sub-op: metadata of a remote path."""
        stat = yield from DavFile(self.context, url, self.params).stat()
        return stat

    def unlink(self, url):
        """Effect sub-op: delete a remote file."""
        yield from DavFile(self.context, url, self.params).delete()

    def mkdir(self, url):
        """Effect sub-op: create a remote collection (MKCOL)."""
        parsed = Url.parse(url)
        response, _ = yield from execute_request(
            self.context,
            parsed,
            Request("MKCOL", parsed.target),
            self.params,
        )
        from repro.core.file import raise_for_status

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
        from repro.core.file import raise_for_status

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
        from repro.core.file import raise_for_status

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
        from repro.core.file import raise_for_status

        raise_for_status(response, parsed.path)
        base = final_url.path.rstrip("/")
        entries: List[FileStat] = []
        names: List[str] = []
        for res in parse_multistatus(response.body):
            href = res.href.rstrip("/")
            if href == base or not href:
                continue  # the collection itself
            names.append(res.name)
            entries.append(
                FileStat(
                    size=res.size,
                    mtime=res.mtime,
                    is_directory=res.is_collection,
                    etag=res.etag,
                )
            )
        return list(zip(names, entries))
