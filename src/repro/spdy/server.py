"""SPDY-like server: multiplexes a StorageApp over one connection.

TLS is mandatory (the property the paper objects to); request streams
are processed concurrently and response bodies are chunked into DATA
frames so large responses interleave with small ones.
"""

from __future__ import annotations

from typing import Optional

from repro.concurrency import (
    Accept,
    Close,
    EffectLock,
    Recv,
    Send,
    Sleep,
    Spawn,
)
from repro.concurrency.runtime import Runtime
from repro.concurrency.tlsmodel import TlsPolicy, server_handshake
from repro.errors import (
    ConnectionClosed,
    HttpProtocolError,
    NetworkError,
    TransferTimeout,
)
from repro.http import Request, plan_chunks
from repro.server.handlers import StorageApp
from repro.spdy import protocol as sp

__all__ = ["SpdyServer", "serve_spdy"]


class SpdyServer:
    """Wraps a :class:`StorageApp` behind SPDY-like framing + TLS."""

    def __init__(
        self,
        app: StorageApp,
        tls: Optional[TlsPolicy] = None,
    ):
        self.app = app
        self.tls = tls or TlsPolicy()  # mandatory in SPDY
        self.connections_handled = 0

    def serve_forever(self, listener):
        """Effect op: accept loop."""
        while True:
            try:
                channel = yield Accept(listener)
            except (NetworkError, ConnectionClosed):
                return
            yield Spawn(
                self.handle_connection(channel), name="spdy-conn"
            )

    def handle_connection(self, channel):
        """Effect op: TLS, then demultiplex request streams."""
        self.connections_handled += 1
        try:
            yield from server_handshake(channel, self.tls)
        except (ConnectionClosed, HttpProtocolError, TransferTimeout):
            yield Close(channel)
            return

        reader = sp.FrameReader()
        send_lock = EffectLock()
        bodies = {}
        heads = {}
        try:
            while True:
                frame = reader.next_frame()
                if frame is None:
                    data = yield Recv(channel)
                    if not data:
                        break
                    yield Sleep(self.tls.record_cost(len(data)))
                    reader.feed(data)
                    continue
                if frame.type == sp.TYPE_HEADERS:
                    heads[frame.streamid] = sp.decode_request_head(
                        frame.payload
                    )
                    bodies[frame.streamid] = bytearray()
                elif frame.type == sp.TYPE_DATA:
                    bodies.setdefault(frame.streamid, bytearray()).extend(
                        frame.payload
                    )
                if frame.fin and frame.streamid in heads:
                    method, target, headers = heads.pop(frame.streamid)
                    body = bytes(bodies.pop(frame.streamid, b""))
                    request = Request(
                        method=method,
                        target=target,
                        headers=headers,
                        body=body or b"",
                    )
                    yield Spawn(
                        self._process(
                            channel, send_lock, frame.streamid, request
                        ),
                        name=f"spdy-stream-{frame.streamid}",
                    )
        except (ConnectionClosed, HttpProtocolError, TransferTimeout):
            pass
        yield Close(channel)

    def _process(self, channel, send_lock, streamid, request):
        """Effect op: serve one stream."""
        result = self.app.handle(request)
        if result.deferred is not None:
            result.response = yield from result.deferred()
        service = result.service_time + self.tls.record_cost(
            result.body_length
        )
        if service > 0:
            yield Sleep(service)

        response = result.response
        head = sp.encode_response_head(response.status, response.headers)
        if result.stream is not None:
            chunks = result.stream
        elif response.pieces is not None:
            chunks = iter(response.pieces)
        elif response.body:
            chunks = iter([response.body])
        else:
            chunks = iter(())

        try:
            yield from self._send_frame(
                channel, send_lock,
                sp.encode_frame(streamid, sp.TYPE_HEADERS, head),
            )
            pending = None
            for chunk in chunks:
                frames = plan_chunks(len(chunk), sp.MAX_FRAME_PAYLOAD)
                for start, length in frames:
                    piece = chunk[start : start + length]
                    if pending is not None:
                        yield from self._send_frame(
                            channel, send_lock,
                            sp.encode_frame(
                                streamid, sp.TYPE_DATA, pending
                            ),
                        )
                    pending = piece
            yield from self._send_frame(
                channel, send_lock,
                sp.encode_frame(
                    streamid,
                    sp.TYPE_DATA,
                    pending if pending is not None else b"",
                    flags=sp.FLAG_FIN,
                ),
            )
        except ConnectionClosed:
            pass

    def _send_frame(self, channel, send_lock, wire: bytes):
        ticket = yield from send_lock.acquire()
        try:
            yield Send(channel, wire)
        finally:
            send_lock.release(ticket)


def serve_spdy(
    runtime: Runtime,
    server: SpdyServer,
    port: int = 443,
    host: Optional[str] = None,
):
    """Open a listener and spawn the accept loop."""
    listener = runtime.listen(port, host)
    runtime.spawn(server.serve_forever(listener), name="spdy-server")
    return listener
