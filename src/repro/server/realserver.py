"""Run the storage server on real sockets (integration tests, CLI)."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.concurrency import ThreadRuntime
from repro.server.app import HttpServer
from repro.server.envelope import ServerConfig
from repro.server.handlers import StorageApp
from repro.server.objectstore import ObjectStore

__all__ = ["real_server"]


@contextmanager
def real_server(
    app: Optional[StorageApp] = None,
    port: int = 0,
    config: Optional[ServerConfig] = None,
) -> Iterator[HttpServer]:
    """Context manager: a live localhost storage server.

    Yields the started :class:`HttpServer`; ``server.port`` holds the
    ephemeral port. On exit ``stop()`` closes the port and every
    connection and returns once each server thread has ended.
    """
    if app is None:
        app = StorageApp(ObjectStore(), config=config)
    runtime = ThreadRuntime()
    server = HttpServer(runtime, app, port=port, host="127.0.0.1")
    server.start()
    try:
        yield server
    finally:
        server.stop()
