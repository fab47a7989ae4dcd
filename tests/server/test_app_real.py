"""The same storage server over real localhost sockets."""

import gc
import threading
import time
import weakref

import pytest

from repro.concurrency import Recv, ThreadRuntime
from repro.errors import ConnectError
from repro.http import Headers, Request, decode_byteranges
from repro.http.multipart import content_type_boundary
from repro.server import ObjectStore, StorageApp, real_server

from tests.helpers import get, http_exchange, left_idle, one_request, put


def server_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name in ("http-server", "http-conn")
    ]


def read_once(channel):
    return (yield Recv(channel, timeout=1.0))


def test_real_get_put_delete_cycle():
    store = ObjectStore()
    app = StorageApp(store)
    runtime = ThreadRuntime()
    with real_server(app) as server:
        endpoint = ("127.0.0.1", server.port)
        created = runtime.run(one_request(endpoint, put("/x", b"hello")))
        assert created.status == 201
        got = runtime.run(one_request(endpoint, get("/x")))
        assert got.status == 200
        assert got.body == b"hello"
        gone = runtime.run(
            one_request(endpoint, Request("DELETE", "/x"))
        )
        assert gone.status == 204
        missing = runtime.run(one_request(endpoint, get("/x")))
        assert missing.status == 404


def test_real_multirange_over_sockets():
    store = ObjectStore()
    store.put("/x", bytes(range(200)))
    app = StorageApp(store)
    runtime = ThreadRuntime()
    with real_server(app) as server:
        endpoint = ("127.0.0.1", server.port)
        response = runtime.run(
            one_request(
                endpoint,
                get("/x", Headers([("Range", "bytes=0-1,100-101")])),
            )
        )
        assert response.status == 206
        boundary = content_type_boundary(response.content_type)
        parts = decode_byteranges(response.body, boundary)
        assert [(p.offset, p.data) for p in parts] == [
            (0, bytes([0, 1])),
            (100, bytes([100, 101])),
        ]


def test_real_keepalive_multiple_requests():
    store = ObjectStore()
    store.put("/x", b"abc" * 1000)
    app = StorageApp(store)
    runtime = ThreadRuntime()
    with real_server(app) as server:
        endpoint = ("127.0.0.1", server.port)
        responses = runtime.run(
            http_exchange(endpoint, [get("/x") for _ in range(5)])
        )
        assert [r.status for r in responses] == [200] * 5
        assert all(r.body == b"abc" * 1000 for r in responses)
        assert app.requests_handled == 5


def test_real_large_streamed_body():
    store = ObjectStore()
    payload = bytes(range(256)) * 8192  # 2 MiB
    store.put("/big", payload)
    app = StorageApp(store)
    runtime = ThreadRuntime()
    with real_server(app) as server:
        endpoint = ("127.0.0.1", server.port)
        response = runtime.run(one_request(endpoint, get("/big")))
        assert response.status == 200
        assert response.body == payload


# -- stop() means stopped ------------------------------------------------------


def test_a_stopped_server_refuses_connections():
    store = ObjectStore()
    store.put("/x", b"old bytes")
    runtime = ThreadRuntime()
    with real_server(StorageApp(store)) as server:
        endpoint = ("127.0.0.1", server.port)
        assert runtime.run(one_request(endpoint, get("/x"))).status == 200
    with pytest.raises(ConnectError):
        runtime.run(one_request(endpoint, get("/x")))


def test_a_stopped_server_ends_its_threads_and_lets_go_of_its_app():
    store = ObjectStore()
    store.put("/x", b"abc")
    app = StorageApp(store)
    runtime = ThreadRuntime()
    with real_server(app) as server:
        endpoint = ("127.0.0.1", server.port)
        channel, response = runtime.run(left_idle(endpoint, get("/x")))
        assert response.status == 200
        assert runtime.run(one_request(endpoint, get("/x"))).status == 200
    assert server_threads() == []
    collected = weakref.ref(app)
    del app, server
    gc.collect()
    assert collected() is None
    channel.close()


def test_stop_ends_an_idle_keepalive_session_within_a_second():
    store = ObjectStore()
    store.put("/x", b"abc")
    runtime = ThreadRuntime()
    with real_server(StorageApp(store)) as server:
        endpoint = ("127.0.0.1", server.port)
        channel, response = runtime.run(left_idle(endpoint, get("/x")))
        assert response.status == 200
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert server_threads() == []
    # The server closed its side: the idle session reads EOF at once.
    assert runtime.run(read_once(channel)) == b""
    channel.close()


def test_stop_is_idempotent():
    runtime = ThreadRuntime()
    with real_server() as server:
        endpoint = ("127.0.0.1", server.port)
        assert runtime.run(one_request(endpoint, get("/none"))).status == 404
        server.stop()
        server.stop()
    server.stop()
