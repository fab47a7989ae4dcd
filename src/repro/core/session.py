"""A Session: one persistent HTTP connection plus its parser state.

Sessions are produced by :func:`open_session` (an effect sub-op, so the
same code runs on the simulator and on sockets) and recycled through the
:class:`~repro.core.pool.SessionPool`. A session records enough state to
know whether it is safe to reuse: a half-read body, a parse error or a
``Connection: close`` makes it *dirty* and it will be discarded instead
of recycled.

Observability: with a :class:`~repro.obs.MetricsRegistry` attached the
wire totals land in ``session.bytes_sent_total`` /
``session.bytes_received_total``; :func:`open_session` wraps the
connect and TLS handshake in ``tcp-connect`` / ``tls-handshake`` spans,
and :meth:`Session.request` hangs ``send`` / ``recv`` spans off the
span it is given.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.concurrency import Connect, Recv, Send, Sleep
from repro.concurrency.tlsmodel import TlsPolicy, client_handshake
from repro.errors import (
    ConnectionClosed,
    DeadlineExceeded,
    NetworkError,
    TransferTimeout,
)
from repro.http import (
    CONNECTION_CLOSED,
    NEED_DATA,
    BodyCollector,
    Data,
    EndOfMessage,
    HttpParser,
    Request,
    Response,
    gather_request,
)

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
        tls: Optional[TlsPolicy] = None,
        metrics=None,
    ):
        self.channel = channel
        self.origin = origin
        #: TLS record-layer cost model (None for plain http).
        self.tls = tls
        #: Optional :class:`~repro.obs.MetricsRegistry` for byte totals.
        self.metrics = metrics
        self.requests_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
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
        sink: Optional[Callable[[bytes], None]] = None,
        sink_factory=None,
        timeout: Optional[float] = None,
        span=None,
        deadline=None,
        recorder=None,
    ):
        """Effect sub-op: send ``request``, read the full response.

        With ``sink`` the body is streamed into the callable and the
        returned :class:`Response` has an empty body (used for large
        GETs). ``sink_factory`` decides *after the head arrives* whether
        to stream (it receives the head and returns a sink or ``None``)
        — needed so redirect/error bodies are buffered, not streamed.
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
        self.bytes_sent += size
        if self.metrics is not None:
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

        recv_span = span.child("recv") if span else None
        received = 0
        first_byte = False
        head: Optional[Response] = None
        body = None
        try:
            while True:
                event = parser.next_event()
                if event == NEED_DATA:
                    # A sized body's rest is one receive; a head, no more.
                    owed = parser.body_owed if body is not None else 0
                    wait = timeout
                    if deadline is not None:
                        try:
                            wait = deadline.clamp(timeout)
                        except DeadlineExceeded:
                            # The exchange is abandoned mid-response.
                            self.mark_dirty()
                            raise
                    try:
                        data = yield Recv(
                            self.channel,
                            timeout=wait,
                            exactly=owed or None,
                            until=parser.head_owed if head is None else None,
                        )
                    except ConnectionClosed as exc:
                        self.mark_dirty()
                        if reused and head is None:
                            raise StaleSession(str(exc)) from exc
                        raise
                    except TransferTimeout as exc:
                        self.mark_dirty()
                        if deadline is not None and deadline.expired:
                            raise DeadlineExceeded(
                                deadline.budget
                            ) from exc
                        raise
                    count = len(data)
                    self.bytes_received += count
                    received += count
                    if count and not first_byte:
                        first_byte = True
                        if recorder is not None:
                            recorder.mark("ttfb")
                    if self.tls is not None and count:
                        yield Sleep(self.tls.record_cost(count))
                    if not owed:
                        parser.receive_data(data)
                        continue
                    parser.body_filled(count)
                    if count:  # 0 is an EOF mid-body
                        body.add(data)
                    continue
                if event == CONNECTION_CLOSED:
                    self.mark_dirty()
                    if reused and head is None:
                        raise StaleSession("connection closed by peer")
                    raise ConnectionClosed(
                        f"{self.host}: closed before a response"
                    )
                if isinstance(event, Response):
                    head = event
                    if sink_factory is not None:
                        sink = sink_factory(head)
                    if sink is None:
                        body = BodyCollector(parser.body_length)
                elif isinstance(event, Data):
                    if sink is not None:
                        sink(event.data)
                    else:
                        body.add(event.data)
                elif isinstance(event, EndOfMessage):
                    if recorder is not None:
                        recorder.mark("body-transfer")
                    break
        finally:
            if self.metrics is not None and received:
                self.metrics.resolved[_RECEIVED].inc(received)
            if recv_span:
                recv_span.end(bytes=received)

        assert head is not None
        if body is not None:
            head.body = body.body()
        if not head.keep_alive():
            self.mark_dirty()
        return head


def open_session(
    url_origin: Tuple,
    endpoint: Tuple[str, int],
    tcp_options=None,
    tls: Optional[TlsPolicy] = None,
    tracer=None,
    parent=None,
    metrics=None,
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
    return Session(channel, url_origin, tls=tls, metrics=metrics)
