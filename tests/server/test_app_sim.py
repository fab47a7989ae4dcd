"""End-to-end storage-server tests over the simulated network."""

import pytest

from repro.concurrency import Connect, Recv
from repro.errors import ConnectError, ConnectionClosed
from repro.http import Headers, Request, decode_byteranges
from repro.http.multipart import content_type_boundary
from repro.metalink import parse_metalink
from repro.server import (
    FaultPolicy,
    FederationApp,
    HttpServer,
    ObjectStore,
    ServerConfig,
    StorageApp,
    SyntheticContent,
    parse_multistatus,
)

from tests.helpers import (
    get,
    http_exchange,
    left_idle,
    one_request,
    put,
    sim_world,
)


def start_server(server_rt, app, port=80):
    return HttpServer(server_rt, app, port=port).start()


def make_world(config=None, faults=None, replicas=None):
    client_rt, server_rt = sim_world()
    store = ObjectStore(clock=server_rt.now)
    app = StorageApp(
        store, config=config, faults=faults, replicas=replicas
    )
    start_server(server_rt, app)
    return client_rt, app, store


def test_get_full_object():
    client_rt, app, store = make_world()
    store.put("/data/a.bin", b"payload-bytes", content_type="text/plain")
    response = client_rt.run(one_request(("server", 80), get("/data/a.bin")))
    assert response.status == 200
    assert response.body == b"payload-bytes"
    assert response.content_type == "text/plain"
    assert response.headers.get("Accept-Ranges") == "bytes"
    assert response.headers.get("Server") == "repro-dpm/1.0"


def test_get_missing_is_404():
    client_rt, app, store = make_world()
    response = client_rt.run(one_request(("server", 80), get("/none")))
    assert response.status == 404


def test_head_reports_length_without_body():
    client_rt, app, store = make_world()
    store.put("/x", b"0123456789")
    response = client_rt.run(
        one_request(("server", 80), Request("HEAD", "/x"))
    )
    assert response.status == 200
    assert response.headers.get_int("Content-Length") == 10
    assert response.body == b""


def test_put_creates_then_updates():
    client_rt, app, store = make_world()
    created = client_rt.run(one_request(("server", 80), put("/new", b"v1")))
    assert created.status == 201
    updated = client_rt.run(one_request(("server", 80), put("/new", b"v2")))
    assert updated.status == 204
    assert store.read("/new") == b"v2"


def test_put_if_match_precondition():
    client_rt, app, store = make_world()
    obj = store.put("/x", b"original")
    bad = client_rt.run(
        one_request(
            ("server", 80),
            put("/x", b"clobber", Headers([("If-Match", '"wrong"')])),
        )
    )
    assert bad.status == 412
    good = client_rt.run(
        one_request(
            ("server", 80),
            put("/x", b"update", Headers([("If-Match", obj.etag)])),
        )
    )
    assert good.status == 204
    assert store.read("/x") == b"update"


def test_delete():
    client_rt, app, store = make_world()
    store.put("/x", b"data")
    response = client_rt.run(
        one_request(("server", 80), Request("DELETE", "/x"))
    )
    assert response.status == 204
    assert not store.exists("/x")
    again = client_rt.run(
        one_request(("server", 80), Request("DELETE", "/x"))
    )
    assert again.status == 404


def test_options_advertises_dav():
    client_rt, app, store = make_world()
    response = client_rt.run(
        one_request(("server", 80), Request("OPTIONS", "/"))
    )
    assert response.status == 200
    assert "PROPFIND" in response.headers.get("Allow")
    assert response.headers.get("DAV") == "1"


def test_single_range_get():
    client_rt, app, store = make_world()
    store.put("/x", b"0123456789")
    response = client_rt.run(
        one_request(
            ("server", 80),
            get("/x", Headers([("Range", "bytes=2-5")])),
        )
    )
    assert response.status == 206
    assert response.body == b"2345"
    assert response.headers.get("Content-Range") == "bytes 2-5/10"


def test_multirange_get_roundtrip():
    client_rt, app, store = make_world()
    store.put("/x", bytes(range(256)))
    response = client_rt.run(
        one_request(
            ("server", 80),
            get("/x", Headers([("Range", "bytes=0-3,100-103,250-")])),
        )
    )
    assert response.status == 206
    boundary = content_type_boundary(response.content_type)
    parts = decode_byteranges(response.body, boundary)
    assert [(p.offset, p.data) for p in parts] == [
        (0, bytes([0, 1, 2, 3])),
        (100, bytes([100, 101, 102, 103])),
        (250, bytes([250, 251, 252, 253, 254, 255])),
    ]


def test_range_416():
    client_rt, app, store = make_world()
    store.put("/x", b"tiny")
    response = client_rt.run(
        one_request(
            ("server", 80), get("/x", Headers([("Range", "bytes=100-")]))
        )
    )
    assert response.status == 416
    assert response.headers.get("Content-Range") == "bytes */4"


def test_keepalive_serves_multiple_requests_on_one_connection():
    client_rt, app, store = make_world()
    store.put("/x", b"abc")
    responses = client_rt.run(
        http_exchange(("server", 80), [get("/x"), get("/x"), get("/x")])
    )
    assert [r.status for r in responses] == [200, 200, 200]
    assert app.requests_handled == 3


def test_keepalive_disabled_closes_after_first_response():
    config = ServerConfig(keepalive=False)
    client_rt, app, store = make_world(config=config)
    store.put("/x", b"abc")

    def op():
        try:
            yield from http_exchange(("server", 80), [get("/x"), get("/x")])
        except ConnectionClosed:
            return "closed"

    assert client_rt.run(op()) == "closed"


def test_max_requests_per_connection():
    config = ServerConfig(max_requests_per_connection=2)
    client_rt, app, store = make_world(config=config)
    store.put("/x", b"abc")

    def op():
        try:
            yield from http_exchange(
                ("server", 80), [get("/x")] * 4
            )
        except ConnectionClosed:
            return "closed"

    assert client_rt.run(op()) == "closed"
    assert app.requests_handled == 2


def test_connection_close_header_honoured():
    client_rt, app, store = make_world()
    store.put("/x", b"abc")
    response = client_rt.run(
        one_request(
            ("server", 80),
            get("/x", Headers([("Connection", "close")])),
        )
    )
    assert response.status == 200
    assert response.keep_alive() is False


def test_propfind_depth0_and_depth1():
    client_rt, app, store = make_world()
    store.put("/dir/a.bin", b"aa")
    store.put("/dir/b.bin", b"bbb")

    response = client_rt.run(
        one_request(
            ("server", 80),
            Request("PROPFIND", "/dir", Headers([("Depth", "0")])),
        )
    )
    assert response.status == 207
    resources = parse_multistatus(response.body)
    assert len(resources) == 1
    assert resources[0].is_collection

    response = client_rt.run(
        one_request(
            ("server", 80),
            Request("PROPFIND", "/dir", Headers([("Depth", "1")])),
        )
    )
    listing = parse_multistatus(response.body)
    names = sorted(r.name for r in listing if not r.is_collection)
    assert names == ["a.bin", "b.bin"]
    sizes = {r.name: r.size for r in listing}
    assert sizes["a.bin"] == 2
    assert sizes["b.bin"] == 3


def test_propfind_infinity_rejected():
    client_rt, app, store = make_world()
    response = client_rt.run(
        one_request(("server", 80), Request("PROPFIND", "/"))
    )
    assert response.status == 403


def test_mkcol():
    client_rt, app, store = make_world()
    response = client_rt.run(
        one_request(("server", 80), Request("MKCOL", "/newdir"))
    )
    assert response.status == 201
    assert store.is_collection("/newdir")


def test_unknown_method_405():
    client_rt, app, store = make_world()
    response = client_rt.run(
        one_request(("server", 80), Request("PATCH", "/x"))
    )
    assert response.status == 405


def test_conditional_get_304():
    client_rt, app, store = make_world()
    obj = store.put("/x", b"abc")
    response = client_rt.run(
        one_request(
            ("server", 80),
            get("/x", Headers([("If-None-Match", obj.etag)])),
        )
    )
    assert response.status == 304
    assert response.body == b""


def test_metalink_negotiation():
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/data/f.root", b"content!")
    app = StorageApp(
        store,
        replicas={
            "/data/f.root": [
                "http://server/data/f.root",
                "http://mirror/data/f.root",
            ]
        },
    )
    HttpServer(server_rt, app, port=80).start()
    response = client_rt.run(
        one_request(
            ("server", 80),
            get(
                "/data/f.root",
                Headers([("Accept", "application/metalink4+xml")]),
            ),
        )
    )
    assert response.status == 200
    doc = parse_metalink(response.body)
    entry = doc.single()
    assert entry.size == 8
    assert [u.url for u in entry.ordered_urls()] == [
        "http://server/data/f.root",
        "http://mirror/data/f.root",
    ]
    assert entry.checksum("adler32") is not None


def test_redirect_mode():
    config = ServerConfig(redirect_base="http://disknode:8080")
    client_rt, app, store = make_world(config=config)
    store.put("/data/x", b"abc")
    response = client_rt.run(one_request(("server", 80), get("/data/x")))
    assert response.status == 302
    assert response.headers.get("Location") == (
        "http://disknode:8080/data/x?direct=1"
    )
    # ?direct bypasses the redirect
    direct = client_rt.run(
        one_request(("server", 80), get("/data/x?direct=1"))
    )
    assert direct.status == 200
    assert direct.body == b"abc"


def test_injected_error_fault():
    faults = FaultPolicy()
    faults.break_path("/broken")
    client_rt, app, store = make_world(faults=faults)
    store.put("/broken", b"data")
    response = client_rt.run(one_request(("server", 80), get("/broken")))
    assert response.status == 503


def test_injected_reset_fault():
    faults = FaultPolicy(reset_rate=1.0, seed=1)
    client_rt, app, store = make_world(faults=faults)
    store.put("/x", b"D" * 100_000)

    def op():
        try:
            yield from one_request(("server", 80), get("/x"))
        except ConnectionClosed:
            return "reset"

    assert client_rt.run(op()) == "reset"


def test_slow_fault_adds_latency():
    def elapsed(faults):
        client_rt, app, store = make_world(faults=faults)
        store.put("/x", b"abc")

        def op():
            yield from one_request(("server", 80), get("/x"))
            from repro.concurrency import Now

            return (yield Now())

        return client_rt.run(op())

    fast = elapsed(None)
    slow = elapsed(FaultPolicy(slow_rate=1.0, slow_delay=3.0, seed=0))
    assert slow == pytest.approx(fast + 3.0, rel=0.01)


def test_large_synthetic_object_streams():
    client_rt, app, store = make_world()
    size = 3_000_000
    store.put("/big", SyntheticContent(size, seed=11))
    response = client_rt.run(one_request(("server", 80), get("/big")))
    assert response.status == 200
    assert len(response.body) == size
    assert response.body[:4096] == SyntheticContent(size, seed=11).read(
        0, 4096
    )


def test_federation_redirect_and_metalink():
    client_rt, server_rt = sim_world()
    fed = FederationApp()
    fed.register(
        "/fed/data.root",
        ["http://site-a/data.root", "http://site-b/data.root"],
        size=1234,
        adler32="deadbeef",
    )
    HttpServer(server_rt, fed, port=80).start()

    first = client_rt.run(one_request(("server", 80), get("/fed/data.root")))
    second = client_rt.run(one_request(("server", 80), get("/fed/data.root")))
    assert first.status == second.status == 302
    assert first.headers.get("Location") == "http://site-a/data.root"
    assert second.headers.get("Location") == "http://site-b/data.root"

    meta = client_rt.run(
        one_request(("server", 80), get("/fed/data.root?metalink"))
    )
    entry = parse_metalink(meta.body).single()
    assert entry.size == 1234
    assert entry.checksum("adler32") == "deadbeef"

    missing = client_rt.run(one_request(("server", 80), get("/unknown")))
    assert missing.status == 404


def test_stop_on_the_simulator_moves_no_clock_and_ends_connections_next_run():
    client_rt, server_rt = sim_world()
    store = ObjectStore(clock=server_rt.now)
    store.put("/x", b"abc")
    server = start_server(server_rt, StorageApp(store))
    channel, response = client_rt.run(left_idle(("server", 80), get("/x")))
    assert response.status == 200
    before = client_rt.now()
    server.stop()
    assert client_rt.now() == before

    def after_stop():
        # The idle session reads the server's FIN; the port refuses.
        eof = yield Recv(channel, timeout=1.0)
        try:
            yield Connect(("server", 80))
        except ConnectError:
            return eof, "refused"

    assert client_rt.run(after_stop()) == (b"", "refused")
