"""Effect interpreter over blocking sockets and OS threads.

This is the "real world" runtime: the same davix/server operations that
run inside the simulator execute here against actual TCP sockets —
used by the integration tests, the CLI tools and the real-server
example. ``TCP_NODELAY`` is set on every connection, matching davix.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Generator, Optional, Tuple

from repro.concurrency import effects as fx
from repro.concurrency.runtime import Runtime, TaskHandle
from repro.errors import ConnectError, ConnectionClosed, TransferTimeout
from repro.net.options import TcpOptions

__all__ = ["ThreadRuntime", "SocketChannel", "SocketListener"]


class SocketChannel:
    """A connected TCP socket with the channel surface effects expect."""

    def __init__(self, sock: socket.socket, local: str, remote: Tuple):
        self.sock = sock
        self.local = local
        self.remote = remote
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        # The FIN trails whatever is queued; the fd is released at once
        # and the kernel still delivers the queued bytes (no linger).
        try:
            self.sock.close()
        except OSError:
            pass

    def shutdown_read(self) -> None:
        """Stop receiving: a blocked or later recv reads EOF; sending
        still works. ``close`` alone would not wake a blocked recv."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # closed already

    def abort(self) -> None:
        self._closed = True
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                # l_onoff=1, l_linger=0 -> RST on close
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketListener:
    """A listening socket; produces :class:`SocketChannel` on accept."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.closed = False

    @property
    def port(self) -> int:
        return self.sock.getsockname()[1]

    def close(self) -> None:
        self.closed = True
        # On Linux close() alone neither wakes a thread blocked in
        # accept() nor, while it holds the socket, stops the port.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not every platform shuts down a listening socket
        try:
            self.sock.close()
        except OSError:
            pass


try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, ValueError, OSError):
    _IOV_MAX = -1
if _IOV_MAX < 1:
    _IOV_MAX = 16  # the POSIX minimum, where the host will not say


def _send_gather(sock: socket.socket, pieces) -> None:
    """``sendall`` for a sequence of buffers, without joining them."""
    views = [memoryview(piece) for piece in pieces if len(piece)]
    index = 0
    while index < len(views):
        sent = sock.sendmsg(views[index : index + _IOV_MAX])
        # A short write stops inside some buffer: skip the buffers
        # that went out whole, keep the tail of the one that did not.
        while sent and sent >= len(views[index]):
            sent -= len(views[index])
            index += 1
        if sent:
            views[index] = views[index][sent:]


class _Task:
    """Thread + result slot backing a spawned operation."""

    def __init__(self, runtime: "ThreadRuntime", op: Generator, name: str):
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._main, args=(runtime, op), name=name or None,
            daemon=True,
        )
        self.thread.start()

    def _main(self, runtime: "ThreadRuntime", op: Generator) -> None:
        try:
            self.result = runtime.run(op)
        except BaseException as exc:  # stored, re-raised at join
            self.failure = exc

    @property
    def is_alive(self) -> bool:
        return self.thread.is_alive()

    def join(self) -> Any:
        self.thread.join()
        if self.failure is not None:
            raise self.failure
        return self.result


class ThreadRuntime(Runtime):
    """Run effect generators on the calling OS thread with real sockets."""

    # -- Runtime interface ----------------------------------------------------

    def run(self, op: Generator) -> Any:
        result: Any = None
        failure: Optional[BaseException] = None
        while True:
            try:
                if failure is not None:
                    step = op.throw(failure)
                else:
                    step = op.send(result)
            except StopIteration as stop:
                return stop.value
            result, failure = None, None
            try:
                result = self._perform(step)
            except Exception as exc:
                failure = exc

    def spawn(self, op: Generator, name: str = "") -> TaskHandle:
        return TaskHandle(_Task(self, op, name), name)

    def join(self, task: TaskHandle) -> Any:
        return task.impl.join()

    def settle(self, task: TaskHandle) -> None:
        task.impl.thread.join()

    def listen(self, port: int = 0, host: Optional[str] = None) -> Any:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host or "127.0.0.1", port))
        sock.listen(64)
        return SocketListener(sock)

    def now(self) -> float:
        return time.monotonic()

    # -- effect execution -------------------------------------------------------

    def _perform(self, step: fx.Effect) -> Any:
        if isinstance(step, fx.Sleep):
            if step.seconds > 0:
                time.sleep(step.seconds)
            return None
        if isinstance(step, fx.Now):
            return time.monotonic()
        if isinstance(step, fx.Connect):
            return self._connect(step.endpoint, step.options or TcpOptions())
        if isinstance(step, fx.Send):
            try:
                if isinstance(step.data, (bytes, bytearray, memoryview)):
                    step.channel.sock.sendall(step.data)
                else:
                    _send_gather(step.channel.sock, step.data)
            except OSError as exc:
                raise ConnectionClosed(f"send failed: {exc}") from exc
            return None
        if isinstance(step, fx.Recv):
            return self._recv(step)
        if isinstance(step, fx.Close):
            step.channel.close()
            return None
        if isinstance(step, fx.Abort):
            step.channel.abort()
            return None
        if isinstance(step, fx.Spawn):
            return self.spawn(step.op, step.name)
        if isinstance(step, fx.Join):
            return step.task.impl.join()
        if isinstance(step, fx.Accept):
            return self._accept(step.listener)
        if isinstance(step, fx.MakePromise):
            from repro.concurrency.promise import ThreadPromise

            return ThreadPromise()
        if isinstance(step, fx.Await):
            try:
                return step.promise._wait(step.timeout)
            except TimeoutError:
                raise TransferTimeout(
                    f"promise await timed out after {step.timeout}s"
                ) from None
        raise TypeError(f"unknown effect {step!r}")

    def _connect(
        self, endpoint: Tuple[str, int], options: TcpOptions
    ) -> SocketChannel:
        try:
            sock = socket.create_connection(
                endpoint, timeout=options.connect_timeout
            )
        except OSError as exc:
            raise ConnectError(
                f"connect to {endpoint[0]}:{endpoint[1]} failed: {exc}"
            ) from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketChannel(
            sock, local=sock.getsockname()[0], remote=endpoint
        )

    def _recv(self, step: fx.Recv) -> bytes:
        sock = step.channel.sock
        sock.settimeout(step.timeout)
        try:
            return sock.recv(step.max_bytes)
        except socket.timeout as exc:
            raise TransferTimeout(
                f"recv timed out after {step.timeout}s"
            ) from exc
        except OSError as exc:
            raise ConnectionClosed(f"recv failed: {exc}") from exc
        finally:
            try:
                sock.settimeout(None)
            except OSError:
                pass

    def _accept(self, listener: SocketListener) -> SocketChannel:
        try:
            sock, addr = listener.sock.accept()
        except OSError as exc:
            raise ConnectionClosed(f"accept failed: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketChannel(sock, local="server", remote=addr)
