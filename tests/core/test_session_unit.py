"""Direct unit tests of Session behaviour, on the simulator and, where
the runtime matters, on sockets."""

from functools import partial

import pytest

from repro.concurrency import (
    Abort,
    Accept,
    Recv,
    Send,
    SimRuntime,
    Sleep,
    ThreadRuntime,
)
from repro.core import Session, StaleSession, open_session
from repro.errors import ConnectionClosed
from repro.http import (
    HttpParser,
    Request,
    Response,
    read_message,
    serialize_response,
)
from repro.obs import MetricsRegistry
from repro.server import HttpServer, ObjectStore, StorageApp
from repro.server import app as server_app

from tests.helpers import sim_world


def session_world():
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/x", b"session-test")
    HttpServer(server_rt, StorageApp(store), port=80).start()
    return client_rt, store


def open_to_server(client_rt, metrics=None):
    if metrics is None:
        metrics = MetricsRegistry()

    def op():
        session = yield from open_session(
            ("http", "server", 80), ("server", 80), metrics=metrics
        )
        return session

    return client_rt.run(op())


def test_fresh_session_state():
    client_rt, _ = session_world()
    session = open_to_server(client_rt)
    assert session.reusable
    assert session.requests_sent == 0
    assert session.host == "server"
    assert session.origin == ("http", "server", 80)


def test_request_updates_counters_and_stays_reusable():
    client_rt, _ = session_world()
    registry = MetricsRegistry()
    session = open_to_server(client_rt, metrics=registry)

    def op():
        response = yield from session.request(
            Request("GET", "/x", {"Host": "server"})
        )
        return response

    response = client_rt.run(op())
    assert response.status == 200
    assert response.body == b"session-test"
    assert session.requests_sent == 1
    assert registry.value("session.bytes_sent_total") > 0
    assert registry.value("session.bytes_received_total") > len(
        b"session-test"
    )
    assert session.reusable


def test_connection_close_response_dirties_session(monkeypatch):
    monkeypatch.setattr(server_app, "KEEPALIVE", False)
    client_rt, _ = session_world()
    session = open_to_server(client_rt)

    def op():
        response = yield from session.request(
            Request("GET", "/x", {"Host": "server"})
        )
        return response

    response = client_rt.run(op())
    assert response.status == 200
    assert not session.reusable  # Connection: close seen


def test_discard_is_idempotent():
    client_rt, _ = session_world()
    session = open_to_server(client_rt)
    session.discard()
    session.discard()
    assert not session.reusable


def test_first_use_eof_raises_connection_closed_not_stale():
    # A *fresh* session hitting a dead peer is a hard error (no silent
    # retry: the request may not be idempotent).
    client_rt, _ = session_world()
    session = open_to_server(client_rt)
    client_rt.network.host("server").fail()

    def op():
        try:
            yield from session.request(
                Request("GET", "/x", {"Host": "server"})
            )
        except StaleSession:
            return "stale"
        except ConnectionClosed:
            return "closed"

    assert client_rt.run(op()) == "closed"


def test_reused_session_eof_raises_stale():
    client_rt, _ = session_world()
    session = open_to_server(client_rt)

    def one(label):
        def op():
            try:
                response = yield from session.request(
                    Request("GET", "/x", {"Host": "server"})
                )
                return response.status
            except StaleSession:
                return "stale"

        return client_rt.run(op())

    assert one("first") == 200
    client_rt.network.host("server").fail()
    assert one("second") == "stale"
    assert not session.reusable


def test_sink_receives_streamed_body():
    client_rt, store = session_world()
    store.put("/big", bytes(range(256)) * 1024)
    session = open_to_server(client_rt)
    pieces = []

    def op():
        response = yield from session.request(
            Request("GET", "/big", {"Host": "server"}),
            sink_factory=lambda head: pieces.append,
        )
        return response

    response = client_rt.run(op())
    assert response.body == b""  # streamed away
    assert b"".join(pieces) == bytes(range(256)) * 1024


def test_sink_factory_skips_error_bodies():
    client_rt, _ = session_world()
    session = open_to_server(client_rt)
    pieces = []

    def op():
        response = yield from session.request(
            Request("GET", "/missing", {"Host": "server"}),
            sink_factory=lambda head: (
                pieces.append if head.ok else None
            ),
        )
        return response

    response = client_rt.run(op())
    assert response.status == 404
    assert pieces == []  # the 404 body was buffered, not streamed
    assert response.body != b""


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_reused_session_reset_inside_the_head_raises_stale(kind):
    """Bytes of a head arrived, but no head was parsed, before the peer
    reset a reused connection: the request was provably not answered,
    so the session is stale and the request safe to retry."""
    if kind == "sim":
        client_rt, server_rt = sim_world()
        listener, endpoint = server_rt.listen(80), ("server", 80)
    else:
        client_rt = server_rt = ThreadRuntime()
        listener = server_rt.listen(0)
        endpoint = ("127.0.0.1", listener.port)
    partial_head = b"HTTP/1.1 200 OK\r\nContent-Len"

    def server():
        channel = yield Accept(listener)
        parser = HttpParser("server")
        receive = partial(Recv, channel, timeout=5.0)
        yield from read_message(parser, receive)
        yield Send(channel, serialize_response(Response(200, body=b"ok")))
        yield from read_message(parser, receive)
        yield Send(channel, partial_head)
        yield Sleep(0.2)  # the client holds the bytes before the reset
        yield Abort(channel)

    registry = MetricsRegistry()

    def client():
        session = yield from open_session(
            ("http", "h", 80), endpoint, metrics=registry
        )
        request = Request("GET", "/x", {"Host": "h"})
        first = yield from session.request(request, timeout=5.0)
        before = registry.value("session.bytes_received_total")
        try:
            yield from session.request(request, timeout=5.0)
        except StaleSession:
            received = registry.value("session.bytes_received_total")
            return first.body, received - before, session.reusable
        return first.body, None, session.reusable

    try:
        task = server_rt.spawn(server())
        outcome = client_rt.run(client())
        server_rt.join(task)
    finally:
        if kind == "sockets":
            listener.close()
    assert outcome == (b"ok", len(partial_head), False)
