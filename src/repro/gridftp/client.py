"""GridFTP-like client: parallel striped downloads.

``retrieve`` opens the control channel, negotiates N passive data
ports, connects one TCP stream to each, and reassembles the mode-E
blocks arriving out of order across the streams.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from repro.concurrency import Close, Connect, Recv, Send, bounded_gather
from repro.errors import ConnectionClosed, HttpProtocolError, RequestError
from repro.gridftp import protocol as gp
from repro.gridftp.server import _read_line

__all__ = ["GridFtpClient"]


class GridFtpClient:
    """One control session to a GridFTP-like server."""

    def __init__(self, channel, endpoint: Tuple[str, int]):
        self.channel = channel
        self.endpoint = endpoint
        self._buffer = bytearray()
        self.bytes_received = 0

    @classmethod
    def connect(cls, endpoint: Tuple[str, int], tcp_options=None):
        """Effect sub-op: open the control channel."""
        channel = yield Connect(endpoint, tcp_options)
        client = cls(channel, endpoint)
        code, message = yield from client._reply()
        if code != 220:
            raise RequestError(f"gridftp greeting failed: {message}")
        return client

    def _reply(self):
        line, self._buffer = yield from _read_line(
            self.channel, self._buffer
        )
        if line is None:
            raise ConnectionClosed("gridftp control channel closed")
        return gp.parse_reply(line)

    def _command(self, line: str, expect: int):
        yield Send(self.channel, line.encode("utf-8") + b"\r\n")
        code, message = yield from self._reply()
        if code != expect:
            raise RequestError(
                f"gridftp {line.split()[0]} failed: {code} {message}"
            )
        return message

    # -- operations ---------------------------------------------------------

    def size(self, path: str):
        """Effect sub-op: remote file size."""
        message = yield from self._command(f"SIZE {path}", expect=213)
        return int(message)

    def retrieve(self, path: str, streams: int = 4, tcp_options=None):
        """Effect sub-op: striped download -> the file's bytes."""
        size = yield from self.size(path)
        message = yield from self._command(f"PASV {streams}", expect=227)
        ports = [int(p) for p in message.rsplit(" ", 1)[-1].split(",")]

        yield Send(self.channel, f"RETR {path}".encode() + b"\r\n")
        channels = []
        for port in ports:
            data_channel = yield Connect(
                (self.endpoint[0], port), tcp_options
            )
            channels.append(data_channel)
        code, message = yield from self._reply()
        if code != 150:
            raise RequestError(f"gridftp RETR refused: {code} {message}")

        assembly = bytearray(size)

        def drain(data_channel):
            """One data channel's blocks -> the bytes it delivered."""
            reader = gp.BlockReader()
            received = 0
            while True:
                block = reader.next_block()
                if block is None:
                    data = yield Recv(data_channel)
                    if not data:
                        return received
                    reader.feed(data)
                    continue
                if block.eof:
                    yield Close(data_channel)
                    return received
                end = block.offset + len(block.payload)
                if end > size:
                    raise HttpProtocolError(
                        f"block beyond EOF ({end} > {size})"
                    )
                assembly[block.offset : end] = block.payload
                received += len(block.payload)

        outcomes = yield from bounded_gather(
            [partial(drain, data_channel) for data_channel in channels],
            limit=len(channels),
            name="gridftp-drain",
        )
        received = sum(outcome.unwrap() for outcome in outcomes)

        code, message = yield from self._reply()
        if code != 226:
            raise RequestError(
                f"gridftp transfer incomplete: {code} {message}"
            )
        if received != size:
            raise RequestError(
                f"gridftp short transfer: {received} of {size}"
            )
        self.bytes_received += size
        return bytes(assembly)

    def quit(self):
        """Effect sub-op: close the control session."""
        try:
            yield from self._command("QUIT", expect=221)
        except (RequestError, ConnectionClosed):
            pass
        yield Close(self.channel)
