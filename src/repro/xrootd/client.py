"""XRootD client with stream multiplexing and async reads.

One reader task per connection demultiplexes response frames to the
promise of the request that carries the same stream id — so any number
of reads can be outstanding at once. This is the capability the paper
credits for XRootD's WAN advantage (its sliding-window read-ahead sits
on top, in :mod:`repro.xrootd.readahead`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.concurrency import (
    Await,
    Close,
    Connect,
    MakePromise,
    Recv,
    Send,
    Spawn,
)
from repro.errors import ConnectionClosed, XrootdError
from repro.xrootd import protocol as proto

__all__ = ["XrdFile", "XrdClient"]


class XrdFile:
    """An open remote file: handle + size."""

    def __init__(self, client: "XrdClient", handle: int, size: int, path: str):
        self.client = client
        self.handle = handle
        self.size = size
        self.path = path

    def __repr__(self) -> str:
        return f"<XrdFile {self.path} size={self.size}>"


class XrdClient:
    """A multiplexed connection to one XRootD server.

    Build with :meth:`XrdClient.connect` (an effect sub-op)::

        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/data/f.root")
        data = yield from client.read(f, 0, 4096)
    """

    def __init__(self, channel, endpoint: Tuple[str, int]):
        self.channel = channel
        self.endpoint = endpoint
        self._next_streamid = 1
        self._pending: Dict[int, object] = {}
        #: oksofar payloads of pending streams, as the buffers received.
        self._partials: Dict[int, list] = {}
        self._closed = False
        self.requests_sent = 0
        self.bytes_read = 0

    @classmethod
    def connect(cls, endpoint: Tuple[str, int], tcp_options=None):
        """Effect sub-op: connect and start the demultiplexer."""
        channel = yield Connect(endpoint, tcp_options)
        client = cls(channel, endpoint)
        yield Spawn(client._reader(), name=f"xrootd-demux-{endpoint[0]}")
        return client

    # -- demultiplexer -----------------------------------------------------------

    def _reader(self):
        reader = proto.FrameReader()
        try:
            while True:
                # No local here may pin a delivered frame across ``Recv``.
                frame = reader.next_pieces()
                if frame is not None:
                    self._dispatch(*frame)
                    continue
                data = yield Recv(self.channel)
                if not data:
                    raise ConnectionClosed(
                        f"{self.endpoint[0]}: server closed"
                    )
                reader.feed(data)
        except (ConnectionClosed, XrootdError) as exc:
            self._closed = True
            self._partials.clear()
            for promise in list(self._pending.values()):
                promise.reject(
                    ConnectionClosed(f"xrootd connection lost: {exc}")
                )
            self._pending.clear()

    def _dispatch(self, streamid: int, status: int, pieces: list) -> None:
        """Hand one frame to the promise awaiting its stream."""
        if status == proto.STATUS_OKSOFAR:
            # Partial response: accumulate until the final OK, unless
            # nobody awaits this stream.
            if streamid in self._pending:
                self._partials.setdefault(streamid, []).extend(pieces)
            return
        promise = self._pending.pop(streamid, None)
        partial = self._partials.pop(streamid, None)
        if promise is None:
            return  # response to an abandoned request
        if partial is not None:
            partial.extend(pieces)
            pieces = partial
        promise.resolve(proto.ResponseFrame(streamid, status, pieces))

    # -- plumbing -------------------------------------------------------------------

    def request_nowait(self, reqid: int, payload: bytes):
        """Effect sub-op: send a request; returns a promise of the
        response frame. This is the async primitive read-ahead uses."""
        if self._closed:
            raise ConnectionClosed(f"{self.endpoint[0]}: client closed")
        streamid = self._next_streamid
        self._next_streamid = (self._next_streamid % 65535) + 1
        promise = yield MakePromise()
        self._pending[streamid] = promise
        self.requests_sent += 1
        yield Send(self.channel, proto.encode_request(streamid, reqid, payload))
        return promise

    def request(self, reqid: int, payload: bytes, timeout=None):
        """Effect sub-op: send a request and wait for its response."""
        promise = yield from self.request_nowait(reqid, payload)
        frame = yield Await(promise, timeout=timeout)
        if not frame.ok:
            code, message = proto.decode_error(frame.payload)
            raise XrootdError(message, code=code)
        return frame

    # -- file operations ---------------------------------------------------------------

    def open(self, path: str):
        """Effect sub-op: open a remote file."""
        frame = yield from self.request(proto.KXR_OPEN, proto.encode_open(path))
        handle, size = proto.decode_open_reply(frame.payload)
        return XrdFile(self, handle, size, path)

    def close_file(self, file: XrdFile):
        """Effect sub-op: release a remote file handle."""
        yield from self.request(
            proto.KXR_CLOSE, proto.encode_close(file.handle)
        )

    def stat(self, path: str):
        """Effect sub-op: (size, is_directory) of a remote path."""
        frame = yield from self.request(proto.KXR_STAT, proto.encode_stat(path))
        return proto.decode_stat_reply(frame.payload)

    def ping(self):
        """Effect sub-op: round trip to the server."""
        yield from self.request(proto.KXR_PING, b"")

    def read(self, file: XrdFile, offset: int, length: int):
        """Effect sub-op: synchronous positional read."""
        promise = yield from self.read_nowait(file, offset, length)
        data = yield from self.read_result(promise)
        return data

    def read_nowait(self, file: XrdFile, offset: int, length: int):
        """Effect sub-op: issue an async read; promise of the frame."""
        promise = yield from self.request_nowait(
            proto.KXR_READ, proto.encode_read(file.handle, offset, length)
        )
        return promise

    def read_result(self, promise, timeout=None):
        """Effect sub-op: await an async read's data."""
        frame = yield Await(promise, timeout=timeout)
        if not frame.ok:
            code, message = proto.decode_error(frame.payload)
            raise XrootdError(message, code=code)
        data = frame.payload
        self.bytes_read += len(data)
        return data

    def readv(self, file: XrdFile, chunks: List[Tuple[int, int]]):
        """Effect sub-op: vectored read -> list of bytes, input order."""
        entries = [
            (file.handle, offset, length) for offset, length in chunks
        ]
        frame = yield from self.request(
            proto.KXR_READV, proto.encode_readv(entries)
        )
        pieces = proto.decode_readv_reply(frame.pieces)
        self.bytes_read += sum(len(piece) for piece in pieces)
        return pieces

    def disconnect(self):
        """Effect sub-op: close the connection."""
        self._closed = True
        yield Close(self.channel)
