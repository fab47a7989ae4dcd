"""SPDY-like client: many concurrent HTTP exchanges, one connection.

The comparator for davix's pool: a single TLS connection carrying all
streams. A reader task demultiplexes frames to per-stream promises.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.concurrency import (
    Await,
    Close,
    Connect,
    MakePromise,
    Recv,
    Send,
    Sleep,
    Spawn,
)
from repro.concurrency.tlsmodel import TlsPolicy, client_handshake
from repro.errors import ConnectionClosed, HttpProtocolError
from repro.http import Request, Response, plan_chunks
from repro.spdy import protocol as sp

__all__ = ["SpdyClient"]


class _Stream:
    __slots__ = ("promise", "status", "headers", "body")

    def __init__(self, promise):
        self.promise = promise
        self.status = None
        self.headers = None
        self.body = bytearray()


class SpdyClient:
    """One multiplexed TLS connection to a SPDY-like server."""

    def __init__(self, channel, tls: TlsPolicy):
        self.channel = channel
        self.tls = tls
        self._next_streamid = 1
        self._streams: Dict[int, _Stream] = {}
        self._closed = False
        self.requests_sent = 0

    @classmethod
    def connect(
        cls,
        endpoint: Tuple[str, int],
        tls: Optional[TlsPolicy] = None,
        tcp_options=None,
    ):
        """Effect sub-op: connect, TLS-handshake, start the demux."""
        tls = tls or TlsPolicy()
        channel = yield Connect(endpoint, tcp_options)
        yield from client_handshake(channel, tls)
        client = cls(channel, tls)
        yield Spawn(client._reader(), name="spdy-demux")
        return client

    def _reader(self):
        reader = sp.FrameReader()
        try:
            while True:
                frame = reader.next_frame()
                if frame is None:
                    data = yield Recv(self.channel)
                    if not data:
                        raise ConnectionClosed("spdy server closed")
                    yield Sleep(self.tls.record_cost(len(data)))
                    reader.feed(data)
                    continue
                stream = self._streams.get(frame.streamid)
                if stream is None:
                    continue  # abandoned stream
                if frame.type == sp.TYPE_HEADERS:
                    stream.status, stream.headers = (
                        sp.decode_response_head(frame.payload)
                    )
                elif frame.type == sp.TYPE_DATA:
                    stream.body.extend(frame.payload)
                if frame.fin:
                    del self._streams[frame.streamid]
                    if stream.status is None:
                        stream.promise.reject(
                            HttpProtocolError("stream closed headerless")
                        )
                    else:
                        stream.promise.resolve(
                            Response(
                                stream.status,
                                stream.headers,
                                bytes(stream.body),
                            )
                        )
        except (ConnectionClosed, HttpProtocolError) as exc:
            self._closed = True
            for stream in list(self._streams.values()):
                stream.promise.reject(
                    ConnectionClosed(f"spdy connection lost: {exc}")
                )
            self._streams.clear()

    def request_nowait(self, request: Request):
        """Effect sub-op: open a stream; returns a promise(Response)."""
        if self._closed:
            raise ConnectionClosed("spdy client closed")
        streamid = self._next_streamid
        self._next_streamid += 2  # odd ids, like the real protocol
        promise = yield MakePromise()
        self._streams[streamid] = _Stream(promise)
        self.requests_sent += 1
        head = sp.encode_request_head(
            request.method, request.target, request.headers
        )
        wire = bytearray(
            sp.encode_frame(
                streamid,
                sp.TYPE_HEADERS,
                head,
                flags=0 if request.body else sp.FLAG_FIN,
            )
        )
        body = request.body
        for start, length in plan_chunks(len(body), sp.MAX_FRAME_PAYLOAD):
            piece = body[start : start + length]
            last = start + length == len(body)
            wire += sp.encode_frame(
                streamid,
                sp.TYPE_DATA,
                piece,
                flags=sp.FLAG_FIN if last else 0,
            )
        yield Sleep(self.tls.record_cost(len(wire)))
        yield Send(self.channel, bytes(wire))
        return promise

    def request(self, request: Request, timeout=None):
        """Effect sub-op: one full exchange on its own stream."""
        promise = yield from self.request_nowait(request)
        response = yield Await(promise, timeout=timeout)
        return response

    def disconnect(self):
        """Effect sub-op: close the connection."""
        self._closed = True
        yield Close(self.channel)
