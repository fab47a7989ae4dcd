"""The one request envelope every server app wears.

:meth:`Envelope.handle` maps one :class:`~repro.http.Request` to a
:class:`ServedResponse` without any I/O — the serve loops in
:mod:`repro.server.app` drive it over simulated or real transports.
Storage node and site proxy are subclasses that implement
:meth:`Envelope.route` only; everything around the route — telemetry
pushes, request/response counters, the fault policy, ``StoreError``
mapping and response stamping — happens here, once, so every tier
counts and fails the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.http import Headers, Request, Response, text_response
from repro.obs.metrics import MetricsRegistry
from repro.server.faults import FaultPolicy
from repro.server.objectstore import (
    DISK_BANDWIDTH,
    SERVICE_OVERHEAD,
    StoreError,
    service_time,
)

__all__ = ["ServerConfig", "ServedResponse", "Envelope"]


@dataclass
class ServerConfig:
    """Behavioural knobs of the storage server."""

    server_name: str = "repro-dpm/1.0"
    #: The store's service-time model
    #: (:func:`~repro.server.objectstore.service_time`), whose defaults
    #: the XRootD server charges too.
    service_overhead: float = SERVICE_OVERHEAD
    disk_bandwidth: float = DISK_BANDWIDTH
    #: A request resolving to more ranges than this is answered with
    #: the full object; 1 is a server without multi-range support.
    max_ranges: int = 256
    #: DPM head-node mode: redirect data requests to this base URL.
    redirect_base: Optional[str] = None
    #: Bytes the server sends per write call when streaming.
    send_chunk: int = 262144
    #: TLS cost model; None = plain http (see concurrency.tlsmodel).
    tls: Optional[object] = None
    #: ``Cache-Control`` header attached to 200/206/304 GET and HEAD
    #: responses (e.g. ``"max-age=120"``); None = no header.
    cache_control: Optional[str] = None
    #: Mounted :class:`~repro.obs.collector.TelemetryCollector`: every
    #: app served by this config — storage or proxy — ingests
    #: ``POST /v1/telemetry`` JSONL batches into it; None =
    #: telemetry ingest disabled.
    collector: Optional[object] = None
    #: Hard cap on client-requested TPC stream counts.
    tpc_max_streams: int = 16
    #: Chunk size of third-party-copy ranged transfers.
    tpc_chunk: int = 8 * 1024 * 1024


@dataclass
class ServedResponse:
    """A response plus serving directives for the connection loop."""

    response: Response
    #: Lazily generated body chunks (used instead of ``response.body``).
    stream: Optional[Iterator[bytes]] = None
    #: Total body size when streaming.
    stream_length: int = 0
    #: Simulated service time the loop must Sleep before replying.
    service_time: float = 0.0
    #: Reset the connection after sending ~half the body (fault).
    reset_midway: bool = False
    #: Deferred work: an effect sub-op the connection loop runs before
    #: replying; its return value (a Response) replaces ``response``.
    #: Used by operations that must do I/O of their own, e.g. HTTP
    #: third-party copy pulling from a remote source.
    deferred: Optional[Callable] = None

    @property
    def body_length(self) -> int:
        return (
            self.stream_length
            if self.stream is not None
            else self.response.body_length
        )


class Envelope:
    """Base class of every server app: owns ``handle``, apps route.

    A subclass implements :meth:`route` (and sets ``self.store`` when
    it owns an :class:`~repro.server.objectstore.ObjectStore`).
    """

    #: The object store of a storage tier. Responses of apps that own
    #: one carry ``Server``/``Cache-Control`` and are charged storage
    #: service time; a data-less tier (the proxy) leaves it None and
    #: answers unstamped in zero service time.
    store = None

    def __init__(
        self,
        config: ServerConfig,
        faults: Optional[FaultPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self.faults = faults
        #: The app's registry (a private one by default):
        #: ``server.requests_total{method}`` and
        #: ``server.responses_total{status}`` land here.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Requests routed so far (telemetry pushes excluded).
        self.requests_handled = 0
        #: Optional :class:`~repro.obs.Tracer`: the serve loop starts a
        #: ``server-request`` span per request, joined to the client's
        #: trace when a ``Traceparent`` header arrives. That span is the
        #: served request's one record: its access log is
        #: :func:`~repro.obs.events.common_log_format` over
        #: :func:`~repro.obs.events.request_events` of the finished spans.
        self.tracer = None
        #: The in-flight ``server-request`` span of the connection the
        #: current deferred belongs to (set by the connection loop just
        #: before it runs the deferred), so spans of the deferred's own
        #: I/O can parent to it.
        self.serving_span = None

    def route(self, request: Request):
        """The app itself: a :class:`ServedResponse` or bare
        :class:`~repro.http.Response` for ``request``."""
        raise NotImplementedError

    def is_observer(self, request: Request) -> bool:
        """Is ``request`` a telemetry push?

        Observers are answered before any counter, fault or stamp and
        get no span, so the series and traces they carry are never
        perturbed by the act of shipping them.
        """
        config = self.config
        if request.method != "POST" or config.collector is None:
            return False
        # Loaded already: a collector is mounted.
        from repro.obs.collector import TELEMETRY_PATH

        return request.path == TELEMETRY_PATH

    def handle(self, request: Request) -> ServedResponse:
        """Compute the response for ``request`` (no I/O, no blocking)."""
        if self.is_observer(request):
            return ServedResponse(self._ingest_telemetry(request))
        self.requests_handled += 1
        self._count("server.requests_total", method=request.method)

        fault = (
            self.faults.next_action(request.path) if self.faults else None
        )
        if fault is not None and fault.kind == "error":
            served = self._error(fault.status, "injected fault")
        else:
            try:
                served = self.route(request)
            except StoreError as exc:
                served = self._error(409, str(exc))
        if not isinstance(served, ServedResponse):
            served = ServedResponse(served)
        if fault is not None:
            if fault.kind == "slow":
                served.service_time += fault.delay
            elif fault.kind == "reset":
                served.reset_midway = True

        if served.deferred is None:
            self._count(
                "server.responses_total",
                status=str(served.response.status),
            )
        else:
            served.deferred = self._counted(served.deferred)
        if self.store is not None:
            self._stamp(request, served)
        return served

    def _error(self, status: int, message: str) -> Response:
        """An error response in this app's dialect (plain text)."""
        return text_response(status, message)

    def _count(self, name: str, **labels) -> None:
        self.metrics.counter(name, **labels).inc()

    def _counted(self, deferred: Callable) -> Callable:
        """``deferred``, counting the status it resolves to."""

        def run():
            response = yield from deferred()
            self._count(
                "server.responses_total", status=str(response.status)
            )
            return response

        return run

    def _stamp(self, request: Request, served: ServedResponse) -> None:
        headers = served.response.headers
        headers.setdefault("Server", self.config.server_name)
        if (
            self.config.cache_control is not None
            and request.method in ("GET", "HEAD")
            and served.response.status in (200, 206, 304)
        ):
            headers.setdefault("Cache-Control", self.config.cache_control)
        served.service_time = service_time(
            served.body_length,
            self.config.service_overhead,
            self.config.disk_bandwidth,
            after=served.service_time,
        )

    def _ingest_telemetry(self, request: Request) -> Response:
        """Store one ``POST /v1/telemetry`` JSONL batch in the
        mounted collector; malformed lines fail the whole batch (400)
        so a sink bug is loud instead of silently thinning the trace."""
        try:
            accepted = self.config.collector.ingest_lines(
                request.body.decode("utf-8", "strict")
            )
        except (ValueError, UnicodeDecodeError):
            return Response(400, reason="Bad Request")
        return Response(
            204, Headers([("X-Telemetry-Accepted", str(accepted))])
        )
