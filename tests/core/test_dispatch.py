"""Tests for the pool-based parallel dispatcher (paper Figure 2):
``DavixClient.get_many``. What ``bounded_gather`` itself guarantees is
checked in ``tests/concurrency/test_structures.py``."""

import pytest

from repro.errors import FileNotFound

from tests.helpers import davix_world


def test_get_many_returns_in_order():
    client, app, store, _ = davix_world()
    for i in range(10):
        store.put(f"/f{i}", f"content-{i}".encode())
    urls = [f"http://server/f{i}" for i in range(10)]
    results = client.get_many(urls, concurrency=4)
    assert results == [f"content-{i}".encode() for i in range(10)]


def test_concurrency_bounds_parallel_connections():
    client, app, store, server_rt = davix_world()
    for i in range(12):
        store.put(f"/f{i}", b"x" * 10_000)
    urls = [f"http://server/f{i}" for i in range(12)]
    client.get_many(urls, concurrency=3)
    server = server_rt.network.host("server")
    # The pool never needs more connections than the dispatch width.
    assert server.counters["connections_accepted"] <= 3


def test_pool_recycles_across_dispatched_jobs():
    client, app, store, _ = davix_world()
    for i in range(9):
        store.put(f"/f{i}", b"data")
    urls = [f"http://server/f{i}" for i in range(9)]
    client.get_many(urls, concurrency=3)
    stats = client.context.pool.stats()
    assert stats.misses <= 3
    assert stats.hits >= 6


def test_parallel_is_faster_than_serial_on_latency_bound_jobs():
    client, app, store, _ = davix_world(latency=0.05)
    for i in range(8):
        store.put(f"/f{i}", b"tiny")
    urls = [f"http://server/f{i}" for i in range(8)]

    start = client.runtime.now()
    for url in urls:
        client.get(url)
    serial = client.runtime.now() - start

    client2, app2, store2, _ = davix_world(latency=0.05)
    for i in range(8):
        store2.put(f"/f{i}", b"tiny")
    start = client2.runtime.now()
    client2.get_many(urls, concurrency=8)
    parallel = client2.runtime.now() - start
    assert parallel < serial / 3


def test_job_errors_captured_per_job():
    # One missing object fails its own job only: the lanes drain every
    # URL before the first failure, in URL order, is raised.
    client, app, store, _ = davix_world()
    store.put("/good", b"ok")
    urls = [f"http://server{path}" for path in ("/good", "/bad", "/good")]
    with pytest.raises(FileNotFound):
        client.get_many(urls, concurrency=2)
    assert app.requests_handled == 3


def test_raise_first_propagates():
    client, app, store, _ = davix_world()
    with pytest.raises(FileNotFound):
        client.get_many(["http://server/missing"], concurrency=1)


def test_zero_jobs():
    client, app, store, _ = davix_world()
    assert client.get_many([], concurrency=4) == []


def test_bad_concurrency_rejected():
    client, app, store, _ = davix_world()
    with pytest.raises(ValueError):
        client.get_many(["http://server/x"], concurrency=0)
