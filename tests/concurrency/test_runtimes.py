"""The same effect-generator protocol must behave identically on the
simulated runtime and on the real-socket runtime."""

import random
import socket
import threading
import time

import pytest

from repro.concurrency import (
    Accept,
    Close,
    Connect,
    Join,
    Now,
    Recv,
    Send,
    SimRuntime,
    Sleep,
    Spawn,
    ThreadRuntime,
)
from repro.core import DavixClient, RequestParams
from repro.errors import (
    ConnectError,
    NetworkError,
    RequestError,
    TransferTimeout,
)
from repro.net import LinkSpec, Network, TcpOptions
from repro.sim import Environment

from tests.helpers import NO_RETRY


# -- a protocol written once -------------------------------------------------


def echo_server(listener, rounds=1):
    """Accept `rounds` connections; echo one message each, then EOF."""
    for _ in range(rounds):
        channel = yield Accept(listener)
        yield Spawn(echo_one(channel))


def echo_one(channel):
    buf = bytearray()
    while b"\n" not in buf:
        data = yield Recv(channel)
        if not data:
            break
        buf.extend(data)
    yield Send(channel, bytes(buf).upper())
    yield Close(channel)


def echo_client(endpoint, message):
    channel = yield Connect(endpoint)
    yield Send(channel, message + b"\n")
    out = bytearray()
    while True:
        data = yield Recv(channel)
        if not data:
            break
        out.extend(data)
    return bytes(out)


# -- fixtures ----------------------------------------------------------------


def sim_world():
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("client")
    net.add_host("server")
    net.set_route("client", "server", LinkSpec(latency=0.005, bandwidth=1e8))
    return SimRuntime(net, "client"), SimRuntime(net, "server")


# -- cross-runtime behaviour ---------------------------------------------------


def test_echo_on_sim_runtime():
    client_rt, server_rt = sim_world()
    listener = server_rt.listen(80)
    server_rt.spawn(echo_server(listener))
    result = client_rt.run(echo_client(("server", 80), b"hello sim"))
    assert result == b"HELLO SIM\n"


def test_echo_on_thread_runtime():
    runtime = ThreadRuntime()
    listener = runtime.listen(0)
    server = runtime.spawn(echo_server(listener))
    result = runtime.run(
        echo_client(("127.0.0.1", listener.port), b"hello sockets")
    )
    assert result == b"HELLO SOCKETS\n"
    runtime.join(server)
    listener.close()


def test_multiple_clients_both_runtimes():
    # sim
    client_rt, server_rt = sim_world()
    listener = server_rt.listen(80)
    server_rt.spawn(echo_server(listener, rounds=3))
    tasks = [
        client_rt.spawn(echo_client(("server", 80), b"msg%d" % i))
        for i in range(3)
    ]
    results = {client_rt.join(task) for task in tasks}
    assert results == {b"MSG0\n", b"MSG1\n", b"MSG2\n"}

    # threads
    runtime = ThreadRuntime()
    listener = runtime.listen(0)
    runtime.spawn(echo_server(listener, rounds=3))
    tasks = [
        runtime.spawn(
            echo_client(("127.0.0.1", listener.port), b"msg%d" % i)
        )
        for i in range(3)
    ]
    results = {runtime.join(task) for task in tasks}
    assert results == {b"MSG0\n", b"MSG1\n", b"MSG2\n"}
    listener.close()


def accept_once(listener):
    """The type of the error a pending ``Accept`` is woken with."""
    try:
        yield Accept(listener)
    except NetworkError as exc:
        return type(exc)


def test_closing_a_listener_wakes_a_pending_accept_on_both_runtimes():
    _client_rt, server_rt = sim_world()
    listener = server_rt.listen(80)
    task = server_rt.spawn(accept_once(listener))
    listener.close()
    assert issubclass(server_rt.join(task), NetworkError)

    # Run in a plain thread with a join timeout: an accept that is never
    # woken fails the test instead of hanging it.
    runtime = ThreadRuntime()
    listener = runtime.listen(0)
    woken = []
    thread = threading.Thread(
        target=lambda: woken.append(runtime.run(accept_once(listener))),
        daemon=True,
    )
    thread.start()
    time.sleep(0.2)  # let it block in accept()
    listener.close()
    thread.join(timeout=5)
    assert not thread.is_alive(), "accept() was not woken by close()"
    assert len(woken) == 1 and issubclass(woken[0], NetworkError)


def test_connect_error_raised_inside_operation():
    def op():
        try:
            yield Connect(("server", 9999))
        except ConnectError:
            return "refused"

    client_rt, _server_rt = sim_world()
    assert client_rt.run(op()) == "refused"

    runtime = ThreadRuntime()
    # Port 1 on localhost is almost certainly closed.
    def op_real():
        try:
            yield Connect(("127.0.0.1", 1), TcpOptions(connect_timeout=0.5))
        except ConnectError:
            return "refused"

    assert runtime.run(op_real()) == "refused"


@pytest.fixture()
def connect_timeouts(monkeypatch):
    """The ``timeout`` of every ``socket.create_connection``; each
    connect is refused without touching the network."""
    seen = []

    def refuse(endpoint, timeout=None, *args, **kwargs):
        seen.append(timeout)
        raise ConnectionRefusedError(f"refused {endpoint}")

    monkeypatch.setattr(socket, "create_connection", refuse)
    return seen


def test_thread_runtime_connects_with_the_effects_timeout(connect_timeouts):
    def op(options):
        try:
            yield Connect(("127.0.0.1", 1), options)
        except ConnectError:
            return "refused"

    runtime = ThreadRuntime()
    assert runtime.run(op(TcpOptions(connect_timeout=0.25))) == "refused"
    assert runtime.run(op(None)) == "refused"
    assert connect_timeouts == [0.25, TcpOptions().connect_timeout]


def test_thread_runtime_connect_is_bounded_by_the_deadline(connect_timeouts):
    client = DavixClient(
        ThreadRuntime(),
        params=RequestParams(deadline=0.3, retry_policy=NO_RETRY),
    )
    with pytest.raises(RequestError):
        client.get("http://127.0.0.1:1/x")
    assert len(connect_timeouts) == 1
    assert 0 < connect_timeouts[0] <= 0.3


def test_sleep_and_now_in_sim_are_virtual():
    client_rt, _ = sim_world()

    def op():
        start = yield Now()
        yield Sleep(120.0)  # two simulated minutes, instant wall time
        end = yield Now()
        return end - start

    assert client_rt.run(op()) == pytest.approx(120.0)


def test_spawn_join_returns_value_and_propagates_failure():
    def child_ok():
        yield Sleep(0.001)
        return 7

    def child_boom():
        yield Sleep(0.001)
        raise RuntimeError("boom")

    def parent():
        ok = yield Spawn(child_ok())
        bad = yield Spawn(child_boom())
        value = yield Join(ok)
        try:
            yield Join(bad)
        except RuntimeError:
            return value, "caught"

    client_rt, _ = sim_world()
    assert client_rt.run(parent()) == (7, "caught")
    assert ThreadRuntime().run(parent()) == (7, "caught")


def test_recv_timeout_sim():
    client_rt, server_rt = sim_world()
    listener = server_rt.listen(80)

    def silent_server():
        channel = yield Accept(listener)
        yield Sleep(100)
        yield Close(channel)

    def op():
        channel = yield Connect(("server", 80))
        try:
            yield Recv(channel, timeout=0.5)
        except TransferTimeout:
            return "timed out"

    server_rt.spawn(silent_server())
    assert client_rt.run(op()) == "timed out"


def test_recv_timeout_threads():
    runtime = ThreadRuntime()
    listener = runtime.listen(0)

    def silent_server():
        channel = yield Accept(listener)
        yield Sleep(5)
        yield Close(channel)

    def op():
        channel = yield Connect(("127.0.0.1", listener.port))
        try:
            yield Recv(channel, timeout=0.2)
        except TransferTimeout:
            return "timed out"

    runtime.spawn(silent_server())
    assert runtime.run(op()) == "timed out"
    listener.close()


def test_unknown_effect_rejected():
    class Weird:
        pass

    def op():
        yield Weird()

    client_rt, _ = sim_world()
    with pytest.raises(TypeError):
        client_rt.run(op())
    with pytest.raises(TypeError):
        ThreadRuntime().run(op())


def test_sim_runtime_validates_host():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        SimRuntime(net, "nope")


# -- gather writes on real sockets --------------------------------------------


def _gather_pieces(count):
    """``count`` buffers mixing bytes, memoryview and empty items."""
    rng = random.Random(5)
    pieces = []
    for index in range(count):
        data = rng.randbytes(rng.choice([0, 1, 7, 300, 1500, 4000]))
        pieces.append(memoryview(data) if index % 3 == 0 else data)
    return pieces


def test_gather_send_on_thread_runtime_delivers_the_join():
    """3 000 pieces through a 4 KiB send buffer: more buffers than one
    sendmsg takes (IOV_MAX) and far more bytes than the kernel holds,
    so the loop must resume mid-list; the peer reads exactly the join."""
    from repro.concurrency.thread_runtime import SocketChannel

    pieces = _gather_pieces(3000)
    expected = b"".join(pieces)
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    received = bytearray()

    def drain():
        while True:
            data = right.recv(65536)
            if not data:
                return
            received.extend(data)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    channel = SocketChannel(left, "left", ("right", 0))

    def op():
        yield Send(channel, pieces)
        yield Close(channel)

    ThreadRuntime().run(op())
    reader.join(timeout=30)
    assert not reader.is_alive()
    right.close()
    assert bytes(received) == expected


def test_gather_send_resumes_after_short_writes():
    """A sendmsg that stops mid-buffer (a socket with a timeout, a
    signal) must resume at that byte: never resend, never skip."""
    from repro.concurrency.thread_runtime import _send_gather

    class ShortSocket:
        def __init__(self):
            self.sent = bytearray()
            self.calls = 0

        def sendmsg(self, buffers):
            self.calls += 1
            data = b"".join(buffers)[: 1 + self.calls % 5000]
            self.sent.extend(data)
            return len(data)

    pieces = _gather_pieces(400)
    sock = ShortSocket()
    _send_gather(sock, pieces)
    assert bytes(sock.sent) == b"".join(pieces)
    assert sock.calls > 100
