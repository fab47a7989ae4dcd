"""GridFTP-like server: control channel + striped data channels.

``RETR`` stripes the file round-robin over however many data channels
the preceding ``PASV`` opened: each channel carries mode-E blocks for
its share of the extents, so the aggregate throughput is the sum of the
per-connection TCP windows — GridFTP's answer to long fat pipes.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.concurrency import Accept, Close, Recv, Send, Sleep, Spawn
from repro.concurrency.runtime import Runtime
from repro.concurrency.structures import bounded_gather
from repro.errors import (
    ConnectionClosed,
    HttpProtocolError,
    NetworkError,
    TransferTimeout,
)
from repro.gridftp import protocol as gp
from repro.http import plan_chunks
from repro.server.objectstore import ObjectStore, StoreError

__all__ = ["GridFtpServer", "serve_gridftp"]

#: Base port for passive data listeners.
DATA_PORT_BASE = 20_000


class GridFtpServer:
    """Striped file server over an ObjectStore."""

    def __init__(
        self,
        store: ObjectStore,
        runtime: Runtime,
        block_size: int = 262_144,
        service_overhead: float = 0.0005,
        disk_bandwidth: float = 400e6,
    ):
        self.store = store
        self.runtime = runtime
        self.block_size = block_size
        self.service_overhead = service_overhead
        self.disk_bandwidth = disk_bandwidth
        self._next_data_port = DATA_PORT_BASE
        self.transfers = 0

    def serve_forever(self, listener):
        """Effect op: control-channel accept loop."""
        while True:
            try:
                channel = yield Accept(listener)
            except (NetworkError, ConnectionClosed):
                return
            yield Spawn(
                self.handle_control(channel), name="gridftp-control"
            )

    def handle_control(self, channel):
        """Effect op: one control session."""
        yield Send(channel, gp.format_reply(220, "repro-gridftp ready"))
        buffer = bytearray()
        data_listeners: List = []
        try:
            while True:
                line, buffer = yield from _read_line(channel, buffer)
                if line is None:
                    break
                verb, args = gp.parse_command(line)
                if verb == "QUIT":
                    yield Send(channel, gp.format_reply(221, "goodbye"))
                    break
                if verb == "SIZE":
                    yield from self._cmd_size(channel, args)
                elif verb == "PASV":
                    data_listeners = yield from self._cmd_pasv(
                        channel, args
                    )
                elif verb == "RETR":
                    yield from self._cmd_retr(
                        channel, args, data_listeners
                    )
                    data_listeners = []
                else:
                    yield Send(
                        channel,
                        gp.format_reply(500, f"unknown command {verb}"),
                    )
        except (ConnectionClosed, HttpProtocolError, TransferTimeout):
            pass
        for listener in data_listeners:
            listener.close()
        yield Close(channel)

    # -- commands -----------------------------------------------------------

    def _cmd_size(self, channel, args):
        if not args:
            yield Send(channel, gp.format_reply(501, "SIZE needs a path"))
            return
        try:
            size, _mtime, is_dir = self.store.stat(args[0])
        except StoreError:
            yield Send(channel, gp.format_reply(550, "no such file"))
            return
        if is_dir:
            yield Send(channel, gp.format_reply(550, "is a directory"))
            return
        yield Send(channel, gp.format_reply(213, str(size)))

    def _cmd_pasv(self, channel, args):
        streams = int(args[0]) if args else 1
        if not 1 <= streams <= 32:
            yield Send(
                channel, gp.format_reply(501, "1..32 streams supported")
            )
            return []
        listeners = []
        ports = []
        for _ in range(streams):
            port = self._next_data_port
            self._next_data_port += 1
            listeners.append(self.runtime.listen(port))
            ports.append(port)
        yield Send(
            channel,
            gp.format_reply(
                227, "entering passive mode " + ",".join(map(str, ports))
            ),
        )
        return listeners

    def _cmd_retr(self, channel, args, data_listeners):
        if not args:
            yield Send(channel, gp.format_reply(501, "RETR needs a path"))
            return
        if not data_listeners:
            yield Send(channel, gp.format_reply(425, "use PASV first"))
            return
        try:
            obj = self.store.get(args[0])
        except StoreError:
            yield Send(channel, gp.format_reply(550, "no such file"))
            return
        yield Send(
            channel,
            gp.format_reply(150, f"opening {len(data_listeners)} streams"),
        )
        self.transfers += 1

        # Accept every data connection, then stripe blocks round-robin.
        data_channels = []
        for listener in data_listeners:
            data_channel = yield Accept(listener)
            data_channels.append(data_channel)
            listener.close()

        extents = plan_chunks(obj.size, self.block_size)
        stripes = len(data_channels)
        outcomes = yield from bounded_gather(
            [
                partial(
                    self._send_stripe, data_channel, obj, extents[lane::stripes]
                )
                for lane, data_channel in enumerate(data_channels)
            ],
            limit=stripes,
            name="gridftp-stripe",
        )
        for outcome in outcomes:
            outcome.unwrap()
        yield Send(channel, gp.format_reply(226, "transfer complete"))

    def _send_stripe(self, channel, obj, extents):
        """Effect op: one data channel's share of the file."""
        try:
            for offset, length in extents:
                data = obj.content.read(offset, length)
                service = (
                    self.service_overhead
                    + length / self.disk_bandwidth
                )
                yield Sleep(service)
                yield Send(channel, gp.encode_block(offset, data))
            yield Send(channel, gp.encode_eof())
        except ConnectionClosed:
            pass
        yield Close(channel)


def _read_line(channel, buffer: bytearray):
    """Effect sub-op: one CRLF line; (None, buffer) on clean EOF."""
    while b"\r\n" not in buffer:
        data = yield Recv(channel)
        if not data:
            return None, buffer
        buffer.extend(data)
    line, _, rest = bytes(buffer).partition(b"\r\n")
    return line, bytearray(rest)


def serve_gridftp(
    runtime: Runtime,
    server: GridFtpServer,
    port: int = 2811,
    host: Optional[str] = None,
):
    """Open the control listener and spawn the accept loop."""
    listener = runtime.listen(port, host)
    runtime.spawn(server.serve_forever(listener), name="gridftp-server")
    return listener
