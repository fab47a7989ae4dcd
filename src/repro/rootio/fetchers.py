"""Remote fetchers: bind tree reading to davix or XRootD transports.

A *fetcher* exposes three effect sub-ops (``size``, ``fetch``,
``fetch_vec``); :class:`~repro.rootio.treefile.TreeFileReader` and
:class:`~repro.rootio.treecache.TTreeCache` consume whichever transport
is plugged in — exactly how ROOT's TFile plugs TDavixFile or TXNetFile
underneath the same analysis code.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.context import Context, RequestParams
from repro.core.file import DavFile
from repro.xrootd.client import XrdClient, XrdFile
from repro.xrootd.readahead import ReadAheadWindow

__all__ = ["DavixFetcher", "XrootdFetcher"]


class DavixFetcher:
    """Tree fetcher over the davix HTTP client (TDavixFile).

    With the transfer engine armed (``params.transfer.read_ahead``),
    feed the upcoming access sequence through :meth:`plan` and the
    file pipelines speculative multi-range fetches ahead of
    consumption — the HTTP counterpart of :class:`XrootdFetcher`'s
    sliding window.
    """

    def __init__(
        self,
        context: Context,
        url,
        params: Optional[RequestParams] = None,
    ):
        self.file = DavFile(context, url, params)
        self.reads = 0
        self.bytes_fetched = 0

    def plan(self, segments) -> None:
        """Announce the upcoming access sequence to the read-ahead.

        A no-op unless the transfer engine is armed, so callers can
        feed the plan unconditionally.
        """
        if self.file.read_ahead_enabled:
            self.file.prefetch(segments)

    def drain(self):
        """Effect sub-op: join outstanding speculative fetches."""
        yield from self.file.drain()

    def size(self):
        """Effect sub-op: remote file size (HEAD)."""
        stat = yield from self.file.stat()
        return stat.size

    def fetch(self, offset: int, length: int):
        """Effect sub-op: one HTTP range read."""
        self.reads += 1
        data = yield from self.file.pread(offset, length)
        self.bytes_fetched += len(data)
        return data

    def fetch_vec(self, reads: Sequence):
        """Effect sub-op: one (or few) HTTP multi-range reads."""
        self.reads += 1
        chunks = yield from self.file.pread_vec(list(reads))
        self.bytes_fetched += sum(len(chunk) for chunk in chunks)
        return chunks


class XrootdFetcher:
    """Tree fetcher over the XRootD client (TXNetFile).

    With ``window_bytes`` set, single fetches go through the
    sliding-window read-ahead; feed it the access plan with
    :meth:`plan`.
    """

    def __init__(
        self,
        client: XrdClient,
        file: XrdFile,
        window_bytes: Optional[int] = None,
        request_overhead: float = 0.0,
    ):
        self.client = client
        self.file = file
        self.window = (
            ReadAheadWindow(client, file, window_bytes)
            if window_bytes
            else None
        )
        #: Client-side scheduling cost charged per remote request.
        self.request_overhead = request_overhead
        self.reads = 0
        self.bytes_fetched = 0

    def plan(self, segments) -> None:
        """Announce the upcoming access sequence to the read-ahead."""
        if self.window is not None:
            self.window.extend_plan(segments)

    def size(self):
        """Effect sub-op: remote file size (from open)."""
        return self.file.size
        yield  # pragma: no cover - makes this a generator

    def fetch(self, offset: int, length: int):
        """Effect sub-op: one read (through the window when enabled)."""
        self.reads += 1
        if self.request_overhead > 0:
            from repro.concurrency import Sleep

            yield Sleep(self.request_overhead)
        if self.window is not None:
            data = yield from self.window.read(offset, length)
        else:
            data = yield from self.client.read(self.file, offset, length)
        self.bytes_fetched += len(data)
        return data

    def fetch_vec(self, reads: Sequence):
        """Effect sub-op: a vectored read.

        Without a read-ahead window this is one kXR_readv request. With
        the window enabled, each segment goes through the sliding
        window instead: planned segments are already in flight (issued
        asynchronously during earlier compute), so the vector resolves
        with few or no fresh round trips.
        """
        self.reads += 1
        if self.request_overhead > 0:
            from repro.concurrency import Sleep

            yield Sleep(self.request_overhead)
        if self.window is not None:
            chunks = []
            for offset, length in reads:
                chunk = yield from self.window.read(offset, length)
                chunks.append(chunk)
        else:
            chunks = yield from self.client.readv(self.file, list(reads))
        self.bytes_fetched += sum(len(chunk) for chunk in chunks)
        return chunks
