"""XRootD-style data server over the effect runtimes.

Serves the same :class:`~repro.server.objectstore.ObjectStore` as the
HTTP storage server, with the same service-time model, so protocol
comparisons are apples-to-apples. Requests on one connection are
processed **concurrently** (one spawned processor each) and responses
return out of order — the server half of XRootD's multiplexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.concurrency import (
    AcceptLoop,
    Close,
    EffectLock,
    Join,
    Recv,
    Send,
    Sleep,
    Spawn,
)
from repro.concurrency.runtime import Runtime, TaskHandle
from repro.errors import ConnectionClosed, TransferTimeout, XrootdError
from repro.server.objectstore import ObjectStore, StoreError
from repro.xrootd import protocol as proto

__all__ = ["XrdServerConfig", "XrdServer", "serve_xrootd"]


@dataclass
class XrdServerConfig:
    """Service-time model matching the HTTP ServerConfig defaults."""

    service_overhead: float = 0.0005
    disk_bandwidth: float = 400e6
    #: Maximum chunks accepted in one readv request.
    max_readv_chunks: int = 1024
    #: Responses above this size are streamed as kXR_oksofar partials,
    #: releasing the connection between frames so other streams
    #: interleave (the multiplexing that big monolithic responses
    #: would otherwise defeat).
    response_chunk: int = 262_144

    def __post_init__(self):
        if not 1 <= self.response_chunk <= proto.MAX_DLEN:
            raise ValueError("response_chunk must be 1..MAX_DLEN bytes")


class _ConnState:
    """Per-connection open-file table, send serialisation and the
    request processors still running."""

    def __init__(self):
        self.files: Dict[int, str] = {}
        self.next_handle = 1
        self.send_lock = EffectLock()
        self.tasks: List[TaskHandle] = []


class XrdServer:
    """The XRootD data server bound to an object store."""

    def __init__(
        self,
        store: ObjectStore,
        config: Optional[XrdServerConfig] = None,
    ):
        self.store = store
        self.config = config or XrdServerConfig()
        self.requests_handled = 0
        self.bytes_served = 0

    # -- serving loop -------------------------------------------------------

    def handle_connection(self, channel):
        """Effect op: deframe requests, spawn one processor each."""
        reader = proto.FrameReader()
        state = _ConnState()
        try:
            while True:
                frame = reader.next_frame()
                if frame is None:
                    data = yield Recv(channel)
                    if not data:
                        break
                    reader.feed(data)
                    continue
                streamid, reqid, payload = frame
                state.tasks = [task for task in state.tasks if task.alive]
                task = yield Spawn(
                    self._process(channel, state, streamid, reqid, payload),
                    name=f"xrootd-req-{streamid}",
                )
                state.tasks.append(task)
        except (ConnectionClosed, XrootdError, TransferTimeout):
            pass
        # Replies still being sent go out before the FIN, and no
        # processor outlives its connection's task.
        for task in state.tasks:
            if task.alive:
                yield Join(task)
        yield Close(channel)

    # -- request processing ------------------------------------------------------

    def _process(self, channel, state, streamid, reqid, payload):
        self.requests_handled += 1
        status = proto.STATUS_OK
        try:
            plan, service = self._dispatch(state, reqid, payload)
            frames = self._materialise(plan)
        except (XrootdError, StoreError) as exc:
            status = proto.STATUS_ERROR
            frames = [[proto.encode_error(1, str(exc))]]
            service = self.config.service_overhead
        if service > 0:
            yield Sleep(service)
        # Every frame but the last is an oksofar partial; the send lock
        # is released between frames so other responses interleave on
        # the connection.
        codes = [proto.STATUS_OKSOFAR] * (len(frames) - 1) + [status]
        try:
            for code, pieces in zip(codes, frames):
                ticket = yield from state.send_lock.acquire()
                try:
                    yield Send(
                        channel, proto.gather_frame(streamid, code, pieces)
                    )
                finally:
                    state.send_lock.release(ticket)
        except ConnectionClosed:
            pass

    def _dispatch(self, state, reqid, payload):
        """(reply_plan, service_time) for one request.

        The plan is the reply payload in order: ``bytes`` literals, and
        ``(path, offset, length)`` spans of stored objects that
        :meth:`_materialise` reads.
        """
        overhead = self.config.service_overhead
        if reqid == proto.KXR_PING:
            return [], overhead

        if reqid == proto.KXR_OPEN:
            path = proto.decode_open(payload)
            obj = self.store.get(path)  # raises StoreError if missing
            handle = state.next_handle
            state.next_handle += 1
            state.files[handle] = path
            return [proto.encode_open_reply(handle, obj.size)], overhead

        if reqid == proto.KXR_CLOSE:
            handle = proto.decode_close(payload)
            state.files.pop(handle, None)
            return [], overhead

        if reqid == proto.KXR_STAT:
            path = proto.decode_open(payload)
            size, _mtime, is_dir = self.store.stat(path)
            return [proto.encode_stat_reply(size, is_dir)], overhead

        if reqid == proto.KXR_READ:
            span = self._span(state, *proto.decode_read(payload))
            return [span], overhead + span[2] / self.config.disk_bandwidth

        if reqid == proto.KXR_READV:
            chunks = proto.decode_readv(payload)
            if len(chunks) > self.config.max_readv_chunks:
                raise XrootdError(
                    f"readv with {len(chunks)} chunks exceeds limit"
                )
            spans = [self._span(state, *chunk) for chunk in chunks]
            lengths = [length for _path, _offset, length in spans]
            service = overhead + sum(lengths) / self.config.disk_bandwidth
            return proto.gather_readv_reply(lengths, spans), service

        raise XrootdError(f"unknown request id {reqid}")

    def _span(self, state, handle, offset, length):
        """``(path, offset, length)`` of a read, clamped to the object."""
        path = state.files.get(handle)
        if path is None:
            raise XrootdError(f"bad file handle {handle}")
        size = self.store.get(path).size
        return path, offset, max(0, min(length, size - offset))

    def _materialise(self, plan):
        """Read a reply plan into frames of at most ``response_chunk``
        bytes, each a list of buffers for one gather ``Send``.

        A span is read in pieces that end where a frame ends, so no
        reply is ever joined and re-sliced: what ``store.read`` returns
        is what goes on the wire. A reply that is an exact multiple of
        the frame size gets no empty trailing frame.
        """
        chunk = self.config.response_chunk
        frames = [[]]
        room = chunk
        for item in plan:
            if isinstance(item, bytes):
                path, offset, length = None, 0, len(item)
            else:
                path, offset, length = item
            while length:
                if not room:
                    frames.append([])
                    room = chunk
                take = min(length, room)
                if path is None:
                    piece = item[offset : offset + take]
                else:
                    piece = self.store.read(path, offset, take)
                    self.bytes_served += take
                frames[-1].append(piece)
                offset += take
                length -= take
                room -= take
        return frames


def serve_xrootd(
    runtime: Runtime,
    server: XrdServer,
    port: int = 1094,
    host: Optional[str] = None,
) -> AcceptLoop:
    """Open a listener and spawn the accept loop; returns the running
    loop, whose ``port`` is the bound port and ``stop()`` ends it."""
    return AcceptLoop(
        runtime, server.handle_connection, "xrootd", port, host
    ).start()
