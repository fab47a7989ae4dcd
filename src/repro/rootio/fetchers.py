"""Remote fetchers: bind tree reading to davix or XRootD transports.

A *fetcher* exposes three effect sub-ops (``size``, ``fetch``,
``fetch_vec``); :class:`~repro.rootio.treefile.TreeFileReader` and
:class:`~repro.rootio.treecache.TTreeCache` consume whichever transport
is plugged in — exactly how ROOT's TFile plugs TDavixFile or TXNetFile
underneath the same analysis code. Both fetchers' read-ahead is the one
:class:`~repro.core.engine.TransferEngine` (``plan`` feeds it,
``drain`` joins it); only the batch it sends differs — an HTTP
multi-range GET or a ``kXR_readv``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.concurrency import Sleep
from repro.core.context import Context, RequestParams
from repro.core.engine import TransferEngine
from repro.core.file import DavFile
from repro.core.vectored import PartTable
from repro.xrootd.client import XrdClient, XrdFile

__all__ = ["DavixFetcher", "XrootdFetcher"]


class DavixFetcher:
    """Tree fetcher over the davix HTTP client (TDavixFile).

    With the transfer engine armed (``params.transfer.read_ahead``),
    feed the upcoming access sequence through :meth:`plan` and the
    file pipelines speculative multi-range fetches ahead of
    consumption — the engine :class:`XrootdFetcher` drives too.
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

    With ``window_bytes`` set, fetches go through the same
    :class:`~repro.core.engine.TransferEngine` as davix's, with one
    ``kXR_readv`` per speculative batch; feed it the access plan with
    :meth:`plan`. The engine reports to the client's context (a fresh
    one when the client has none).
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
        host, port = client.endpoint
        self.engine = (
            TransferEngine(
                client.context or Context(),
                self._fetch_batch,
                window_bytes,
                gap=0,  # a kXR_readv chunk never reads a hole
                url=f"root://{host}:{port}{file.path}",
            )
            if window_bytes
            else None
        )
        #: Client-side scheduling cost charged per remote request.
        self.request_overhead = request_overhead
        self.reads = 0
        self.bytes_fetched = 0

    def plan(self, segments) -> None:
        """Announce the upcoming access sequence to the read-ahead.

        A no-op without a window, so callers can feed the plan
        unconditionally.
        """
        if self.engine is not None:
            self.engine.prefetch(segments)

    def drain(self):
        """Effect sub-op: join outstanding speculative fetches."""
        if self.engine is not None:
            yield from self.engine.drain()

    def size(self):
        """Effect sub-op: remote file size (from open)."""
        return self.file.size
        yield  # pragma: no cover - makes this a generator

    def _fetch_batch(self, ranges, span):
        """Effect sub-op: one speculative batch as one kXR_readv."""
        pieces = yield from self.client.readv(
            self.file, [(rng.offset, rng.length) for rng in ranges]
        )
        return PartTable.from_parts(
            (
                (rng.offset, piece)
                for rng, piece in zip(ranges, pieces)
                if piece
            ),
            total=self.file.size,
        )

    def _read(self, reads, vector: bool):
        """Effect sub-op: the engine's plan hits, then one kXR_readv for
        its misses; without a window, one kXR_readv (``vector``) or one
        kXR_read."""
        self.reads += 1
        if self.request_overhead > 0:
            yield Sleep(self.request_overhead)
        if self.engine is None:
            if vector:
                chunks = yield from self.client.readv(self.file, reads)
            else:
                chunk = yield from self.client.read(self.file, *reads[0])
                chunks = [chunk]
        else:
            chunks = yield from self.engine.read_vec(reads)
            missed = [
                read for read, chunk in zip(reads, chunks) if chunk is None
            ]
            if missed:
                fetched = yield from self.client.readv(self.file, missed)
                fetched = iter(fetched)
                chunks = [
                    next(fetched) if chunk is None else chunk
                    for chunk in chunks
                ]
        self.bytes_fetched += sum(len(chunk) for chunk in chunks)
        return chunks

    def fetch(self, offset: int, length: int):
        """Effect sub-op: one read."""
        chunks = yield from self._read([(offset, length)], vector=False)
        return chunks[0]

    def fetch_vec(self, reads: Sequence):
        """Effect sub-op: a vectored read.

        Without a read-ahead window this is one kXR_readv request. With
        it, planned segments are already in flight (issued during
        earlier compute), so the vector resolves with few or no fresh
        round trips.
        """
        chunks = yield from self._read(list(reads), vector=True)
        return chunks
