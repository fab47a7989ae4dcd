"""Transport-facing connection loop of the storage server.

Written as effect generators so the identical code serves simulated
connections (benchmarks) and real sockets (integration tests, CLI).
Requests on one connection are processed strictly in order — which is
exactly HTTP/1.1 semantics, and what gives pipelining its head-of-line
blocking in the FIG1-HOL experiment.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.concurrency import Abort, AcceptLoop, Close, Recv, Send, Sleep
from repro.concurrency.runtime import Runtime
from repro.errors import ConnectionClosed, HttpParseError, TransferTimeout
from repro.http import (
    HttpParser,
    gather_response,
    read_message,
    serialize_response_head,
)
from repro.obs.propagation import TRACEPARENT_HEADER, parse_traceparent
from repro.server.envelope import Envelope, ServedResponse

__all__ = ["handle_connection", "HttpServer"]

#: Honour HTTP keep-alive (off = HTTP/1.0-style close per request).
KEEPALIVE = True
#: Close the connection after this many requests (None = unlimited).
MAX_REQUESTS_PER_CONNECTION: Optional[int] = None
#: Close kept-alive connections idle for longer than this (seconds).
KEEPALIVE_IDLE = 30.0


def handle_connection(channel, app: Envelope):
    """Serve HTTP/1.x requests on one connection until close."""
    parser = HttpParser("server")
    receive = partial(Recv, channel, timeout=KEEPALIVE_IDLE)
    config = app.config
    served = 0
    aborted = False
    if config.tls is not None:
        from repro.concurrency.tlsmodel import server_handshake
        from repro.errors import HttpProtocolError

        try:
            yield from server_handshake(channel, config.tls)
        except (
            ConnectionClosed,
            HttpProtocolError,
            TransferTimeout,
        ):
            yield Close(channel)
            return
    try:
        while True:
            request = yield from read_message(parser, receive)
            if request is None:
                break
            served += 1
            keep = (
                KEEPALIVE
                and request.wants_keep_alive()
                and (
                    MAX_REQUESTS_PER_CONNECTION is None
                    or served < MAX_REQUESTS_PER_CONNECTION
                )
            )
            # Observers (telemetry pushes) get no span.
            observer = app.is_observer(request)
            trace_ctx = parse_traceparent(
                request.headers.get(TRACEPARENT_HEADER)
            )
            span = None
            if app.tracer is not None and not observer:
                # Joined to the client's trace when a Traceparent
                # header arrived; a fresh root trace otherwise.
                span = app.tracer.start(
                    "server-request",
                    root=trace_ctx is None,
                    remote=trace_ctx,
                    method=request.method,
                    path=request.path,
                )
            result = app.handle(request)
            if result.deferred is not None:
                # Deferred operations (e.g. third-party copy, proxy
                # gap fetches) do their own remote I/O before the
                # response exists. Apps that trace that I/O (the
                # proxy) read ``serving_span`` at the top of their
                # deferred — before its first effect yield — so the
                # hand-off is race-free on the cooperative runtime.
                app.serving_span = span
                result.response = yield from result.deferred()
                app.serving_span = None
            if config.tls is not None:
                # Record-layer crypto on the server's side.
                result.service_time += config.tls.record_cost(
                    result.body_length + len(request.body)
                )
            if result.service_time > 0:
                yield Sleep(result.service_time)
            if not keep:
                result.response.headers.set("Connection", "close")
            aborted = yield from _send_result(channel, result)
            if span is not None:
                # The one record of a served request: the access log
                # (obs.events.common_log_format) is a fold over these.
                span.end(
                    status=result.response.status,
                    client=str(getattr(channel, "remote", ("?",))[0]),
                    bytes_sent=result.body_length,
                )
            if aborted or not keep:
                break
            # Nothing of a request outlives its response: bound while
            # the connection idles for the next one, these would pin
            # its body and every response piece the peer already has.
            del request, result, span
    except (ConnectionClosed, HttpParseError, TransferTimeout):
        pass  # peer went away or spoke garbage: drop the connection
    if not aborted:
        yield Close(channel)


def _cut(pieces, limit: int):
    """The buffers that make up the first ``limit`` bytes of ``pieces``."""
    out = []
    for piece in pieces:
        if limit <= 0:
            break
        out.append(piece if len(piece) <= limit else piece[:limit])
        limit -= len(piece)
    return out


def _send_result(channel, result: ServedResponse):
    """Send a ServedResponse; returns True if the connection was reset."""
    response = result.response
    if result.stream is None:
        # One gather write: a multi-range body goes out piece by piece,
        # cut into the bursts its join would be.
        wire = gather_response(response)
        if result.reset_midway:
            size = sum(len(piece) for piece in wire)
            yield Send(channel, _cut(wire, max(1, size // 2)))
            yield Abort(channel)
            return True
        yield Send(channel, wire)
        return False

    head = serialize_response_head(
        response, content_length=result.stream_length
    )
    yield Send(channel, head)
    # A reset fault cuts the body at the halfway mark, whatever the
    # chunking.
    limit = (
        result.stream_length // 2 if result.reset_midway else None
    )
    sent = 0
    for piece in result.stream:
        if limit is not None and sent + len(piece) > limit:
            take = limit - sent
            if take > 0:
                yield Send(channel, piece[:take])
            yield Abort(channel)
            return True
        yield Send(channel, piece)
        sent += len(piece)
    if limit is not None:
        yield Abort(channel)
        return True
    return False


class HttpServer(AcceptLoop):
    """Bind a server app to a runtime and port; ``stop()`` ends it."""

    def __init__(
        self,
        runtime: Runtime,
        app: Envelope,
        port: int = 80,
        host: Optional[str] = None,
    ):
        handler = partial(handle_connection, app=app)
        super().__init__(runtime, handler, "http", port, host)
        self.app = app
