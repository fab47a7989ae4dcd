"""A Session: one persistent HTTP connection plus its parser state.

Sessions are produced by :func:`open_session` (an effect sub-op, so the
same code runs on the simulator and on sockets) and recycled through the
:class:`~repro.core.pool.SessionPool`. A session records enough state to
know whether it is safe to reuse: a half-read body, a parse error or a
``Connection: close`` makes it *dirty* and it will be discarded instead
of recycled.

Observability: the wire totals land in the context's
:class:`~repro.obs.MetricsRegistry` as ``session.bytes_sent_total`` /
``session.bytes_received_total``; :func:`open_session` wraps the
connect and TLS handshake in ``tcp-connect`` / ``tls-handshake`` spans,
and :meth:`Session.request` hangs ``send`` / ``recv`` spans off the
span it is given.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from repro.concurrency import Connect, Recv, Send, Sleep
from repro.concurrency.tlsmodel import TlsPolicy, client_handshake
from repro.errors import (
    ConnectionClosed,
    DeadlineExceeded,
    NetworkError,
    TransferTimeout,
)
from repro.http import HttpParser, Request, gather_request, read_message

__all__ = ["Session", "StaleSession", "open_session"]

#: Send a W3C-style ``Traceparent`` header on every traced request so
#: server-side spans join the client trace.
TRACE_PROPAGATION = True

#: The wire-total series' keys in ``MetricsRegistry.resolved``.
_SENT = ("counter", "session.bytes_sent_total")
_RECEIVED = ("counter", "session.bytes_received_total")


class StaleSession(NetworkError):
    """A recycled connection died before the response started.

    Safe to retry transparently on a fresh connection (the request was
    provably not processed) — the classic keep-alive race.
    """


class Session:
    """One keep-alive HTTP connection to an origin."""

    def __init__(
        self,
        channel,
        origin: Tuple,
        metrics,
        tls: Optional[TlsPolicy] = None,
    ):
        self.channel = channel
        self.origin = origin
        #: The :class:`~repro.obs.MetricsRegistry` for byte totals.
        self.metrics = metrics
        #: TLS record-layer cost model (None for plain http).
        self.tls = tls
        self.requests_sent = 0
        self.reusable = True
        self._closed = False

    @property
    def host(self) -> str:
        return self.origin[1]

    def mark_dirty(self) -> None:
        """Prevent this session from being recycled."""
        self.reusable = False

    def discard(self) -> None:
        """Close the underlying connection (idempotent, non-blocking)."""
        self.reusable = False
        if not self._closed:
            self._closed = True
            try:
                self.channel.close()
            except Exception:  # noqa: BLE001 - best effort teardown
                pass

    # -- protocol ------------------------------------------------------------

    def request(
        self,
        request: Request,
        sink_factory=None,
        timeout: Optional[float] = None,
        span=None,
        deadline=None,
        recorder=None,
    ):
        """Effect sub-op: send ``request``, read the full response.

        ``sink_factory`` decides *after the head arrives* whether to
        stream the body (it receives the head and returns a sink or
        ``None``; a streamed body leaves the returned response's body
        empty) — so redirect/error bodies are buffered, not streamed.
        ``span`` (when given) becomes the parent of ``send``/``recv``
        child spans covering the two wire phases, and — with
        :data:`TRACE_PROPAGATION` — its trace/span IDs ride to the
        server in a ``Traceparent`` header, so server-side spans join
        the client's trace. ``recorder`` (a
        :class:`~repro.obs.PhaseRecorder`) receives the wire phase
        marks: ``request-write`` when the request is on the wire,
        ``ttfb`` at the first response byte, ``body-transfer`` when the
        body completes. ``deadline`` (a
        :class:`~repro.resilience.Deadline`) bounds every read: each
        ``Recv`` timeout is clamped to the remaining budget and expiry
        raises :class:`~repro.errors.DeadlineExceeded`.
        Raises :class:`StaleSession` when a *reused* connection turns
        out dead before the status line arrives.
        """
        if TRACE_PROPAGATION and span is not None:
            from repro.obs.propagation import inject_traceparent

            inject_traceparent(request.headers, span)
        parser = HttpParser("client")
        parser.expect_response_to(request.method)
        # One gather write: a PUT body is never copied behind its head.
        wire = gather_request(request)
        size = sum(map(len, wire))
        reused = self.requests_sent > 0
        self.requests_sent += 1
        self.metrics.resolved[_SENT].inc(size)
        if deadline is not None:
            deadline.check()
        send_span = span.child("send", bytes=size) if span else None
        try:
            if self.tls is not None:
                yield Sleep(self.tls.record_cost(size))
            yield Send(self.channel, wire)
        except ConnectionClosed as exc:
            self.mark_dirty()
            if reused:
                raise StaleSession(str(exc)) from exc
            raise
        finally:
            if send_span:
                send_span.end()
        if recorder is not None:
            recorder.mark("request-write")

        receive = partial(Recv, self.channel, timeout=timeout)
        if deadline is not None:

            def receive(exactly=None, until=None):
                return Recv(
                    self.channel,
                    timeout=deadline.clamp(timeout),
                    exactly=exactly,
                    until=until,
                )

        charge = first_byte = None
        if self.tls is not None:

            def charge(count):
                return Sleep(self.tls.record_cost(count))

        if recorder is not None:
            first_byte = partial(recorder.mark, "ttfb")
        recv_span = span.child("recv") if span else None
        try:
            head = yield from read_message(
                parser, receive, sink_factory, charge, first_byte
            )
        except ConnectionClosed as exc:
            self.mark_dirty()
            if reused and parser.idle:
                raise StaleSession(str(exc)) from exc
            raise
        except TransferTimeout as exc:
            self.mark_dirty()
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(deadline.budget) from exc
            raise
        except DeadlineExceeded:
            # The exchange is abandoned mid-response.
            self.mark_dirty()
            raise
        finally:
            received = parser.received
            if received:
                self.metrics.resolved[_RECEIVED].inc(received)
            if recv_span:
                recv_span.end(bytes=received)

        if head is None:
            self.mark_dirty()
            if reused:
                raise StaleSession("connection closed by peer")
            raise ConnectionClosed(f"{self.host}: closed before a response")
        if recorder is not None:
            recorder.mark("body-transfer")
        if not head.keep_alive():
            self.mark_dirty()
        return head


def open_session(
    url_origin: Tuple,
    endpoint: Tuple[str, int],
    metrics,
    tcp_options=None,
    tls: Optional[TlsPolicy] = None,
    tracer=None,
    parent=None,
    recorder=None,
):
    """Effect sub-op: connect (and TLS-handshake) into a Session.

    With a ``tracer``, the TCP connect and the TLS handshake each get
    their own span under ``parent`` — the two setup costs the paper's
    keep-alive argument is about. A ``recorder`` gets the matching
    ``connect`` / ``tls`` phase marks.
    """
    span = (
        tracer.start("tcp-connect", parent=parent)
        if tracer is not None
        else None
    )
    try:
        channel = yield Connect(endpoint, tcp_options)
    finally:
        if span:
            span.end()
    if recorder is not None:
        recorder.mark("connect")
    if tls is not None:
        handshake_span = (
            tracer.start("tls-handshake", parent=parent)
            if tracer is not None
            else None
        )
        try:
            yield from client_handshake(channel, tls)
        finally:
            if handshake_span:
                handshake_span.end()
        if recorder is not None:
            recorder.mark("tls")
    return Session(channel, url_origin, metrics, tls=tls)
