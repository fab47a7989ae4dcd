"""DavixClient: the synchronous public facade.

Binds a :class:`~repro.core.context.Context` to a runtime (simulated or
real sockets) and exposes plain-call methods — what an application or
the CLI uses. Every method simply runs the corresponding effect op on
the runtime.

Observability is first-class on this surface: construct with
``DavixClient(runtime, params=…, metrics=…, tracer=…)`` (or hand in a
pre-composed :class:`Context`) and read back through
:meth:`DavixClient.metrics`, :meth:`DavixClient.tracer`,
:meth:`DavixClient.pool_stats` and :meth:`DavixClient.span`. Per-call
``params`` overrides all funnel through one ``_resolve_params`` helper,
so every method accepts either a full :class:`RequestParams` or keyword
overrides applied on top of the context default.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.concurrency import bounded_gather
from repro.concurrency.runtime import Runtime
from repro.core.context import Context, RequestParams, TransferConfig
from repro.core.failover import with_failover
from repro.core.file import DavFile, FileStat
from repro.core.multistream import MultistreamResult, multistream_download
from repro.core.pool import PoolStats
from repro.core.posix import DavPosix
from repro.metalink import Metalink
from repro.obs import MetricsRegistry, Span, Tracer
from repro.resilience import BreakerBoard, BreakerConfig

__all__ = ["DavixClient"]


class DavixClient:
    """High-level davix API over a runtime.

    Example::

        runtime = ThreadRuntime()
        client = DavixClient(runtime)
        client.put("http://127.0.0.1:8080/data/x", b"payload")
        assert client.get("http://127.0.0.1:8080/data/x") == b"payload"
        print(client.pool_stats().hit_rate)
    """

    def __init__(
        self,
        runtime: Runtime,
        context: Optional[Context] = None,
        params: Optional[RequestParams] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        breaker: Optional[BreakerConfig] = None,
    ):
        if context is not None and (
            metrics is not None or tracer is not None or breaker is not None
        ):
            raise ValueError(
                "pass metrics/tracer/breaker either to the Context or "
                "to the client, not both"
            )
        self.runtime = runtime
        self.context = context or Context(
            params=params, metrics=metrics, tracer=tracer, breaker=breaker
        )
        # The blacklist and session-age logic need the runtime's clock
        # (the tracer follows through context._now).
        self.context.clock = runtime.now

    # -- observability accessors ----------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """The metric registry every layer of this client records into."""
        return self.context.metrics

    def tracer(self) -> Tracer:
        """The tracer producing this client's request spans."""
        return self.context.tracer

    def pool_stats(self) -> PoolStats:
        """Typed snapshot of the session pool's usage counters."""
        return self.context.pool.stats()

    def breakers(self) -> BreakerBoard:
        """The per-endpoint circuit-breaker board this client consults."""
        return self.context.breakers

    def span(self, name: str, **attrs) -> Span:
        """Start an application-level span (context manager) so client
        calls made inside it nest under one trace."""
        return self.context.tracer.start(name, **attrs)

    # -- helpers -------------------------------------------------------------

    def _resolve_params(
        self, params: Optional[RequestParams] = None, **overrides
    ) -> RequestParams:
        """The effective params for one call: the given bundle or the
        context default, with keyword overrides applied on top."""
        base = params if params is not None else self.context.params
        return base.replace(**overrides) if overrides else base

    def _file(self, url, params: Optional[RequestParams]) -> DavFile:
        return DavFile(self.context, url, self._resolve_params(params))

    def _posix(self, params: Optional[RequestParams]) -> DavPosix:
        return DavPosix(self.context, self._resolve_params(params))

    # -- object operations ----------------------------------------------------

    def get(self, url, params: Optional[RequestParams] = None) -> bytes:
        """Download the full object."""
        return self.runtime.run(self._file(url, params).read_all())

    def get_to_sink(
        self,
        url,
        sink: Callable[[bytes], None],
        params: Optional[RequestParams] = None,
    ) -> int:
        """Stream the object into ``sink``; returns the byte count."""
        return self.runtime.run(self._file(url, params).read_all(sink))

    def put(
        self,
        url,
        data: bytes,
        content_type: str = "application/octet-stream",
        params: Optional[RequestParams] = None,
    ) -> int:
        """Upload (create or replace); returns the HTTP status."""
        return self.runtime.run(
            self._file(url, params).write_all(data, content_type)
        )

    def delete(self, url, params: Optional[RequestParams] = None) -> None:
        self.runtime.run(self._file(url, params).delete())

    def stat(self, url, params: Optional[RequestParams] = None) -> FileStat:
        return self.runtime.run(self._file(url, params).stat())

    def exists(self, url, params: Optional[RequestParams] = None) -> bool:
        return self.runtime.run(self._file(url, params).exists())

    def listdir(
        self, url, params: Optional[RequestParams] = None
    ) -> List[Tuple[str, FileStat]]:
        return self.runtime.run(self._posix(params).listdir(url))

    def mkdir(self, url, params: Optional[RequestParams] = None) -> None:
        self.runtime.run(self._posix(params).mkdir(url))

    def rename(
        self,
        source_url,
        destination_url,
        overwrite: bool = True,
        params: Optional[RequestParams] = None,
    ) -> None:
        """Server-side rename (WebDAV MOVE)."""
        self.runtime.run(
            self._posix(params).rename(
                source_url, destination_url, overwrite
            )
        )

    def copy(
        self,
        source_url,
        destination_url,
        overwrite: bool = True,
        params: Optional[RequestParams] = None,
    ) -> None:
        """Server-side copy (WebDAV COPY) — no data crosses the client."""
        self.runtime.run(
            self._posix(params).copy(
                source_url, destination_url, overwrite
            )
        )

    def third_party_copy(
        self,
        source_url,
        destination_url,
        mode: str = "pull",
        streams: Optional[int] = None,
        overwrite: bool = True,
        params: Optional[RequestParams] = None,
    ):
        """Third-party copy: the storage nodes move the object directly
        over their own link while this client only orchestrates.

        ``mode`` selects pull (COPY sent to the destination with a
        ``Source`` header) or push (COPY sent to the source with an
        absolute ``Destination``); ``streams`` requests a specific
        number of parallel chunk streams on the active server. Returns
        the :class:`~repro.core.tpc.TpcSummary` parsed from the
        ``Perf Marker`` stream.
        """
        return self.runtime.run(
            self._posix(params).third_party_copy(
                source_url,
                destination_url,
                mode=mode,
                streams=streams,
                overwrite=overwrite,
            )
        )

    # -- positional / vectored I/O ------------------------------------------------

    def pread(
        self,
        url,
        offset: int,
        length: int,
        params: Optional[RequestParams] = None,
    ) -> bytes:
        return self.runtime.run(
            self._file(url, params).pread(offset, length)
        )

    def pread_vec(
        self,
        url,
        reads: Sequence[Tuple[int, int]],
        params: Optional[RequestParams] = None,
        transfer: Optional[TransferConfig] = None,
    ) -> List[bytes]:
        """Vectored read: the paper's Section 2.3 in one call.

        ``transfer`` (when given) overrides ``params.transfer`` — the
        single bundle steering batch parallelism and the read-ahead
        engine.
        """
        overrides = {}
        if transfer is not None:
            overrides["transfer"] = transfer
        file = DavFile(
            self.context, url, self._resolve_params(params, **overrides)
        )

        def op():
            results = yield from file.pread_vec(reads)
            yield from file.drain()
            return results

        return self.runtime.run(op())

    # -- resilience (Section 2.4) ----------------------------------------------------

    def get_metalink(
        self, url, params: Optional[RequestParams] = None
    ) -> Metalink:
        return self.runtime.run(self._file(url, params).get_metalink())

    def get_with_failover(
        self,
        url,
        params: Optional[RequestParams] = None,
        metalink_url=None,
    ) -> bytes:
        """GET with transparent Metalink replica fail-over."""
        params = self._resolve_params(params)

        def attempt(target):
            data = yield from DavFile(
                self.context, target, params
            ).read_all()
            return data

        return self.runtime.run(
            with_failover(
                self.context,
                url,
                attempt,
                params,
                metalink_url=metalink_url,
            )
        )

    def get_multistream(
        self,
        url,
        params: Optional[RequestParams] = None,
        metalink_url=None,
    ) -> MultistreamResult:
        """Parallel multi-source download of every chunk."""
        return self.runtime.run(
            multistream_download(
                self.context,
                url,
                self._resolve_params(params),
                metalink_url=metalink_url,
            )
        )

    # -- parallel dispatch (Figure 2) ---------------------------------------------------

    def get_many(
        self,
        urls: Sequence[str],
        concurrency: int = 8,
        params: Optional[RequestParams] = None,
    ) -> List[bytes]:
        """Fetch many objects over the pool, ``concurrency`` at a time.

        The paper's answer to HTTP's missing multiplexing: neither
        pipelined on one connection (head-of-line blocking) nor one
        connection per request (slow start every time) — each lane of
        the gather takes a pooled session per object, so connections
        are recycled across objects and the pool grows no wider than
        ``concurrency``. The first failure, in ``urls`` order, is
        raised once every lane has drained.
        """
        params = self._resolve_params(params)

        def fetch(url):
            data = yield from DavFile(self.context, url, params).read_all()
            return data

        outcomes = self.runtime.run(
            bounded_gather(
                [partial(fetch, url) for url in urls],
                limit=concurrency,
                name="get-many",
            )
        )
        return [outcome.unwrap() for outcome in outcomes]
