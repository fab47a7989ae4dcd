"""End-to-end DavixClient tests over the simulated network."""

import pytest

from repro.core import RequestParams
from repro.core import request as request_module
from repro.core import vectored
from repro.errors import DeadlineExceeded, FileNotFound, RequestError
from repro.net import TcpOptions
from repro.server import ServerConfig
from repro.server import app as server_app
from repro.workloads.analysis import DAVIX_TCP

from tests.helpers import NO_RETRY, davix_world, immediate, retries


def test_put_get_roundtrip():
    client, app, store, _ = davix_world()
    url = "http://server/data/x.bin"
    assert client.put(url, b"payload") == 201
    assert client.get(url) == b"payload"
    assert store.read("/data/x.bin") == b"payload"


def test_get_missing_raises_file_not_found():
    client, app, store, _ = davix_world()
    with pytest.raises(FileNotFound):
        client.get("http://server/missing")


def test_stat():
    client, app, store, _ = davix_world()
    store.put("/f.root", b"x" * 12345)
    stat = client.stat("http://server/f.root")
    assert stat.size == 12345
    assert not stat.is_directory
    assert stat.etag


def test_exists():
    client, app, store, _ = davix_world()
    store.put("/x", b"1")
    assert client.exists("http://server/x") is True
    assert client.exists("http://server/y") is False


def test_delete():
    client, app, store, _ = davix_world()
    store.put("/x", b"1")
    client.delete("http://server/x")
    assert not store.exists("/x")
    with pytest.raises(FileNotFound):
        client.delete("http://server/x")


def test_mkdir_and_listdir():
    client, app, store, _ = davix_world()
    client.mkdir("http://server/newdir")
    store.put("/newdir/a.root", b"aa")
    store.put("/newdir/b.root", b"bbbb")
    listing = dict(client.listdir("http://server/newdir"))
    assert set(listing) == {"a.root", "b.root"}
    assert listing["a.root"].size == 2
    assert listing["b.root"].size == 4


def test_pread():
    client, app, store, _ = davix_world()
    store.put("/x", b"0123456789")
    assert client.pread("http://server/x", 2, 4) == b"2345"
    assert client.pread("http://server/x", 8, 10) == b"89"
    assert client.pread("http://server/x", 100, 5) == b""  # past EOF
    assert client.pread("http://server/x", 0, 0) == b""


def test_pread_vec_roundtrip():
    client, app, store, _ = davix_world()
    content = bytes(i % 251 for i in range(100_000))
    store.put("/x", content)
    reads = [(0, 10), (50_000, 100), (99_990, 10), (10, 10)]
    chunks = client.pread_vec("http://server/x", reads)
    assert chunks == [
        content[offset : offset + length] for offset, length in reads
    ]


def test_pread_vec_coalesces_into_one_request():
    params = RequestParams(vector_gap=1024)
    client, app, store, _ = davix_world(params=params)
    content = bytes(i % 251 for i in range(10_000))
    store.put("/x", content)
    before = app.requests_handled
    reads = [(i * 200, 100) for i in range(40)]  # gaps of 100 bytes
    chunks = client.pread_vec("http://server/x", reads)
    assert app.requests_handled - before == 1  # one coalesced GET
    assert chunks == [content[o : o + n] for o, n in reads]
    assert client.context.metrics.value("vector.round_trips_total") == 1
    assert client.context.metrics.value("vector.fragments_total") == 40


def test_pread_vec_batches_when_over_max_ranges(monkeypatch):
    monkeypatch.setattr(vectored, "MAX_VECTOR_RANGES", 8)
    client, app, store, _ = davix_world(params=RequestParams(vector_gap=0))
    content = bytes(i % 251 for i in range(200_000))
    store.put("/x", content)
    before = app.requests_handled
    reads = [(i * 10_000, 16) for i in range(20)]
    chunks = client.pread_vec("http://server/x", reads)
    assert app.requests_handled - before == 3  # ceil(20/8)
    assert chunks == [content[o : o + n] for o, n in reads]


def test_pread_vec_against_server_without_multirange():
    config = ServerConfig(max_ranges=1)
    client, app, store, _ = davix_world(config=config)
    content = bytes(i % 251 for i in range(50_000))
    store.put("/x", content)
    reads = [(100, 10), (40_000, 20)]
    chunks = client.pread_vec("http://server/x", reads)
    # Server replied 200 with the whole object; client sliced locally.
    assert chunks == [content[o : o + n] for o, n in reads]


def test_get_to_sink_streams():
    client, app, store, _ = davix_world()
    payload = bytes(range(256)) * 2000
    store.put("/big", payload)
    pieces = []
    total = client.get_to_sink("http://server/big", pieces.append)
    assert total == len(payload)
    assert b"".join(pieces) == payload


def test_sessions_are_recycled_across_operations():
    client, app, store, _ = davix_world()
    store.put("/x", b"abc")
    for _ in range(5):
        client.get("http://server/x")
    pool = client.context.pool
    assert pool.stats().hits == 4
    assert pool.stats().misses == 1
    # Only one TCP connection was ever made.
    assert app.requests_handled == 5


def test_keep_alive_disabled_opens_new_connections():
    params = RequestParams(keep_alive=False)
    client, app, store, server_rt = davix_world(params=params)
    store.put("/x", b"abc")
    for _ in range(3):
        client.get("http://server/x")
    server = server_rt.network.host("server")
    assert server.counters["connections_accepted"] == 3


def test_redirect_followed_transparently():
    # DPM head-node mode: the server redirects to itself with ?direct=1.
    config = ServerConfig(redirect_base="http://server")
    client, app, store, _ = davix_world(config=config)
    store.put("/data/x", b"redirected-content")
    assert client.get("http://server/data/x") == b"redirected-content"
    assert client.context.metrics.value("client.redirects_followed_total") == 1


def test_bearer_token_is_not_sent_to_another_origin_on_redirect():
    """As curl on a cross-host redirect: the token goes to the
    operation's own origin on every hop, and to no other origin."""
    from repro.concurrency import SimRuntime
    from repro.core import DavixClient
    from repro.net import LinkSpec, Network
    from repro.server import HttpServer, ObjectStore, StorageApp
    from repro.sim import Environment

    net = Network(Environment())
    net.add_host("client")
    seen = []

    def node(host, redirect_base=None):
        net.add_host(host)
        net.set_route("client", host, LinkSpec(latency=0.001, bandwidth=1e8))
        store = ObjectStore()
        store.put("/f", b"payload")
        app = StorageApp(store, ServerConfig(redirect_base=redirect_base))
        handle = app.handle

        def spy(request):
            seen.append((host, request.headers.get("Authorization")))
            return handle(request)

        app.handle = spy
        HttpServer(SimRuntime(net, host), app, port=80).start()

    node("head", redirect_base="http://disk")
    node("disk")
    node("self", redirect_base="http://self")
    client = DavixClient(
        SimRuntime(net, "client"), params=RequestParams(auth_token="t0k")
    )
    assert client.get("http://head/f") == b"payload"
    assert client.get("http://self/f") == b"payload"
    assert seen == [
        ("head", "Bearer t0k"),
        ("disk", None),
        ("self", "Bearer t0k"),
        ("self", "Bearer t0k"),
    ]


def test_redirect_loop_detected():
    from repro.core import DavixClient
    from repro.errors import RedirectLoopError
    from repro.http import Headers, Response
    from repro.server import Envelope, HttpServer, ServerConfig
    from tests.helpers import sim_world

    class SelfRedirect(Envelope):
        def route(self, request):
            return Response(302, Headers([("Location", "http://server/loop")]))

    client_rt, server_rt = sim_world()
    app = SelfRedirect(ServerConfig())
    HttpServer(server_rt, app, port=80).start()
    client = DavixClient(client_rt)
    with pytest.raises(RedirectLoopError):
        client.get("http://server/loop")
    assert app.requests_handled > 1


def test_retry_on_503_then_success():
    # Deterministically fail the first attempt with 503, then serve.
    params = RequestParams(retry_policy=immediate(3))
    client, app, store, _ = davix_world(params=params)
    store.put("/x", b"eventually")
    original = app.handle
    failures = {"left": 1}

    def flaky(request):
        if failures["left"] > 0:
            failures["left"] -= 1
            from repro.http import Response
            from repro.server import ServedResponse

            return ServedResponse(Response(503))
        return original(request)

    app.handle = flaky
    assert client.get("http://server/x") == b"eventually"
    assert retries(client.context.metrics) == 1


def test_error_status_maps_to_request_error():
    from repro.server import FaultPolicy

    faults = FaultPolicy()
    faults.break_path("/x")
    params = RequestParams(retry_policy=NO_RETRY)
    client, app, store, _ = davix_world(faults=faults, params=params)
    store.put("/x", b"data")
    with pytest.raises(RequestError) as info:
        client.get("http://server/x")
    assert info.value.status == 503


def test_stale_session_is_retried_transparently(monkeypatch):
    # The server drops idle keep-alive connections after 1 s; the second
    # GET (after a 5 s pause) finds a dead pooled session, gets EOF
    # instead of a status line, and must retry on a fresh connection.
    monkeypatch.setattr(server_app, "KEEPALIVE_IDLE", 1.0)
    client, app, store, _ = davix_world()
    store.put("/x", b"abc")
    assert client.get("http://server/x") == b"abc"
    env = client.runtime.env
    env.run(until=env.now + 5.0)  # let the server's idle timer fire
    assert client.get("http://server/x") == b"abc"
    assert retries(client.context.metrics) == 1
    assert client.context.pool.stats().hits == 1  # reuse was attempted


def test_server_connection_close_header_prevents_bad_recycling(
    monkeypatch,
):
    # MAX_REQUESTS_PER_CONNECTION makes the server announce the close;
    # the client must not recycle that session (no stale retry needed).
    monkeypatch.setattr(server_app, "MAX_REQUESTS_PER_CONNECTION", 2)
    client, app, store, _ = davix_world()
    store.put("/x", b"abc")
    for _ in range(6):
        assert client.get("http://server/x") == b"abc"
    assert retries(client.context.metrics) is None


def test_custom_tcp_options_passed_to_transport():
    params = RequestParams(
        tcp_options=TcpOptions(initial_window_segments=2, idle_reset=False)
    )
    client, app, store, _ = davix_world(params=params)
    store.put("/x", b"abc")
    assert client.get("http://server/x") == b"abc"


@pytest.mark.parametrize(
    "tcp_options", [TcpOptions(), DAVIX_TCP], ids=["default", "davix_tcp"]
)
def test_deadline_bounds_the_connect_to_a_down_host(tcp_options):
    """The deadline clamps ``tcp_options.connect_timeout`` (5 s in both
    bundles): a down host fails the operation when the budget ends."""
    client, _, _, server_rt = davix_world(
        params=RequestParams(deadline=0.5, tcp_options=tcp_options)
    )
    server_rt.network.host("server").fail()
    with pytest.raises(DeadlineExceeded):
        client.get("http://server/x")
    assert client.runtime.now() <= 0.5


def test_user_agent_sent(monkeypatch):
    monkeypatch.setattr(request_module, "USER_AGENT", "custom-agent/2")
    client, app, store, _ = davix_world()
    seen = {}
    original = app.handle

    def spy(request):
        seen["ua"] = request.headers.get("User-Agent")
        return original(request)

    app.handle = spy
    store.put("/x", b"abc")
    client.get("http://server/x")
    assert seen == {"ua": "custom-agent/2"}
