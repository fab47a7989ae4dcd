"""Tests for the pipelining baseline and its head-of-line blocking."""

import pytest

from repro.concurrency import ThreadRuntime
from repro.core import pipeline_requests
from repro.core.file import DavFile
from repro.errors import ConnectionClosed
from repro.http import Request
from repro.server import HttpServer, ObjectStore, StorageApp, real_server
from repro.server import app as server_app

from tests.helpers import davix_world, get, sim_world


def pipelined_world(latency=0.02, bandwidth=1e7):
    client_rt, server_rt = sim_world(latency=latency, bandwidth=bandwidth)
    store = ObjectStore()
    app = StorageApp(store)
    HttpServer(server_rt, app, port=80).start()
    return client_rt, store, app


def test_pipelined_responses_arrive_in_order():
    client_rt, store, app = pipelined_world()
    for i in range(5):
        store.put(f"/f{i}", f"resp-{i}".encode())
    requests = [get(f"/f{i}") for i in range(5)]
    responses, completions = client_rt.run(
        pipeline_requests(("server", 80), requests)
    )
    assert [r.body for r in responses] == [
        f"resp-{i}".encode() for i in range(5)
    ]
    assert completions == sorted(completions)
    assert app.requests_handled == 5


def test_pipelining_uses_single_connection():
    client_rt, store, app = pipelined_world()
    store.put("/x", b"data")
    client_rt.run(
        pipeline_requests(("server", 80), [get("/x") for _ in range(10)])
    )
    server = client_rt.network.host("server")
    assert server.counters["connections_accepted"] == 1


def test_head_of_line_blocking_delays_small_responses():
    """A large response queued first delays every small one behind it —
    the paper's Section 2.2 argument against pipelining."""
    client_rt, store, app = pipelined_world(latency=0.01, bandwidth=2e6)
    store.put("/big", b"B" * 2_000_000)  # ~1 s of transfer
    store.put("/small", b"s")

    requests = [get("/big")] + [get("/small") for _ in range(4)]
    responses, completions = client_rt.run(
        pipeline_requests(("server", 80), requests)
    )
    big_done = completions[0]
    # Every small response finished *after* the big one.
    assert all(t >= big_done for t in completions[1:])
    assert big_done > 0.9  # the big body really took ~1 s

    # Reference: on a fresh run, a small GET alone is milliseconds.
    client_rt2, store2, app2 = pipelined_world(latency=0.01, bandwidth=2e6)
    store2.put("/small", b"s")
    _, lone = client_rt2.run(
        pipeline_requests(("server", 80), [get("/small")])
    )
    assert lone[0] < 0.1


def test_pool_dispatch_avoids_hol_blocking():
    """The same mixed workload through davix's pool dispatch: small
    requests do not wait for the large one."""
    from repro.concurrency import bounded_gather
    from repro.core import DavixClient

    client_rt, store, app = pipelined_world(latency=0.01, bandwidth=2e6)
    store.put("/big", b"B" * 2_000_000)
    store.put("/small", b"s")
    client = DavixClient(client_rt)

    times = {}

    def job(path):
        def thunk():
            data = yield from DavFile(
                client.context, f"http://server{path}"
            ).read_all()
            times.setdefault(path, client_rt.now())
            return data

        return thunk

    jobs = [job("/big")] + [job("/small")] * 4
    client_rt.run(bounded_gather(jobs, limit=5))
    assert times["/small"] < 0.2  # finished long before the big one
    assert times["/big"] > 0.9


def test_pipeline_against_closing_server_raises(monkeypatch):
    monkeypatch.setattr(server_app, "MAX_REQUESTS_PER_CONNECTION", 2)
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/x", b"d")
    HttpServer(server_rt, StorageApp(store), port=80).start()
    with pytest.raises(ConnectionClosed):
        client_rt.run(
            pipeline_requests(
                ("server", 80), [get("/x") for _ in range(5)]
            )
        )


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_pipelined_uploads_and_reads_on_both_runtimes(kind):
    """PUTs and GETs of sized bodies pipelined on one connection: the
    server receives each request body in place and no further, so the
    request behind it is parsed intact, and every response comes back
    in order as it was sent."""
    sizes = [70_000, 5, 300_000]
    bodies = [bytes([i]) * size for i, size in enumerate(sizes)]
    requests = []
    for i, body in enumerate(bodies):
        requests += [Request("PUT", f"/p{i}", body=body), get(f"/p{i}")]
    if kind == "sim":
        client_rt, store, _ = pipelined_world(latency=0.001, bandwidth=1e9)
        responses, _ = client_rt.run(
            pipeline_requests(("server", 80), requests)
        )
    else:
        store = ObjectStore()
        with real_server(StorageApp(store)) as server:
            responses, _ = ThreadRuntime().run(
                pipeline_requests(("127.0.0.1", server.port), requests)
            )
    assert [r.status for r in responses] == [201, 200] * len(bodies)
    assert [r.body for r in responses[1::2]] == bodies
    assert [store.read(f"/p{i}") for i in range(len(bodies))] == bodies
