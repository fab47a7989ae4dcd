"""DavixClient against a real localhost server (socket runtime)."""

import pytest

from repro.concurrency import ThreadRuntime
from repro.core import DavixClient, RequestParams
from repro.errors import FileNotFound
from repro.server import ObjectStore, StorageApp, real_server

from tests.helpers import NO_RETRY


@pytest.fixture()
def live():
    store = ObjectStore()
    app = StorageApp(store)
    with real_server(app) as server:
        client = DavixClient(ThreadRuntime())
        yield client, f"http://127.0.0.1:{server.port}", store, app


def test_real_put_get_stat_delete(live):
    client, base, store, app = live
    url = f"{base}/data/x.bin"
    assert client.put(url, b"real-socket-bytes") == 201
    assert client.get(url) == b"real-socket-bytes"
    assert client.stat(url).size == 17
    client.delete(url)
    with pytest.raises(FileNotFound):
        client.get(url)


def test_real_pread_and_vectored(live):
    client, base, store, app = live
    content = bytes(i % 251 for i in range(60_000))
    store.put("/x", content)
    url = f"{base}/x"
    assert client.pread(url, 1000, 50) == content[1000:1050]
    reads = [(0, 16), (30_000, 64), (59_990, 10)]
    assert client.pread_vec(url, reads) == [
        content[o : o + n] for o, n in reads
    ]


def test_real_listdir(live):
    client, base, store, app = live
    store.put("/dir/a", b"1")
    store.put("/dir/b", b"22")
    names = sorted(name for name, _ in client.listdir(f"{base}/dir"))
    assert names == ["a", "b"]


def test_real_parallel_get_many(live):
    client, base, store, app = live
    for i in range(8):
        store.put(f"/f{i}", f"v{i}".encode())
    urls = [f"{base}/f{i}" for i in range(8)]
    assert client.get_many(urls, concurrency=4) == [
        f"v{i}".encode() for i in range(8)
    ]


def test_real_session_reuse(live):
    client, base, store, app = live
    store.put("/x", b"abc")
    for _ in range(4):
        client.get(f"{base}/x")
    assert client.context.pool.stats().hits == 3


def test_real_metalink_and_failover():
    store = ObjectStore()
    store.put("/f", b"replica-content")
    with real_server(StorageApp(store)) as backend:
        backend_url = f"http://127.0.0.1:{backend.port}/f"
        # A front server that lost the file but serves a metalink
        # pointing at the live backend.
        front_store = ObjectStore()
        front_app = StorageApp(front_store)
        with real_server(front_app) as front:
            front_url = f"http://127.0.0.1:{front.port}/f"
            front_app.replicas["/f"] = [front_url, backend_url]
            client = DavixClient(
                ThreadRuntime(), params=RequestParams(retry_policy=NO_RETRY)
            )
            data = client.get_with_failover(front_url)
            assert data == b"replica-content"
            assert client.context.metrics.value("client.failovers_total") == 1
