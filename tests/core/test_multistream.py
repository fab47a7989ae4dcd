"""Tests for multi-stream (multi-source) downloads."""

import zlib

import pytest

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.errors import (
    AllReplicasFailed,
    ChecksumMismatch,
    PermissionDenied,
    RequestError,
)
from repro.net import LinkSpec, Network, TcpOptions
from repro.server import FaultPolicy, HttpServer, ObjectStore, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY


def multistream_world(
    n_replicas=3, size=1_000_000, params=None, corrupt_site=None,
    site_faults=None,
):
    env = Environment()
    net = Network(env, seed=3)
    net.add_host("client", access_bandwidth=1.25e8)
    names = [f"site{i}" for i in range(n_replicas)]
    spec = LinkSpec(latency=0.005, bandwidth=2e7)  # per-path bottleneck
    for name in names:
        net.add_host(name, access_bandwidth=2e7)
        net.set_route("client", name, spec)

    path = "/data/big.bin"
    content = bytes(i % 251 for i in range(size))
    urls = [f"http://{name}{path}" for name in names]
    apps = []
    for index, name in enumerate(names):
        runtime = SimRuntime(net, name)
        store = ObjectStore()
        payload = content
        if corrupt_site == index:
            payload = b"X" + content[1:]
        store.put(path, payload)
        app = StorageApp(
            store,
            replicas={path: urls},
            faults=(site_faults or {}).get(index),
        )
        HttpServer(runtime, app, port=80).start()
        apps.append(app)

    client = DavixClient(
        SimRuntime(net, "client"), params=params
    )
    return client, net, apps, urls, content


def test_multistream_assembles_correct_content():
    params = RequestParams(multistream_chunk=100_000)
    client, net, apps, urls, content = multistream_world(params=params)
    result = client.get_multistream(urls[0])
    assert result.data == content
    assert result.size == len(content)


def test_multistream_uses_all_replicas():
    params = RequestParams(multistream_chunk=50_000)
    client, net, apps, urls, content = multistream_world(params=params)
    result = client.get_multistream(urls[0])
    by_host = result.bytes_by_host()
    assert len(by_host) == 3
    assert all(count > 0 for count in by_host.values())
    assert sum(by_host.values()) == len(content)


def test_multistream_faster_than_single_stream_when_path_limited():
    # Three 20 MB/s paths vs one: wall-clock (simulated) speedup.
    # Chunks must be large enough that transfer, not per-chunk RTT,
    # dominates.
    params = RequestParams(multistream_chunk=1_000_000)
    client, net, apps, urls, content = multistream_world(
        size=12_000_000, params=params
    )
    start = client.runtime.now()
    client.get_multistream(urls[0])
    multi = client.runtime.now() - start

    client2, net2, apps2, urls2, content2 = multistream_world(
        size=12_000_000, params=params
    )
    start = client2.runtime.now()
    client2.get(urls2[0])
    single = client2.runtime.now() - start
    assert multi < single * 0.6


def test_multistream_survives_replica_death_midway():
    params = RequestParams(multistream_chunk=50_000, retry_policy=NO_RETRY)
    client, net, apps, urls, content = multistream_world(params=params)

    # Take down one site while the download runs.
    def killer():
        yield client.runtime.env.timeout(0.05)
        net.host("site2").fail()

    client.runtime.env.process(killer())
    result = client.get_multistream(urls[0])
    assert result.data == content
    failed = [s for s in result.streams if s.failed]
    assert len(failed) <= 1  # at most the killed stream


@pytest.mark.parametrize("error_status", [503, 403])
def test_multistream_survives_a_replica_answering_errors(error_status):
    # Whatever a replica answers — unavailable (a fail-over error) or
    # forbidden (not one) — its stream hands the chunk back and retires;
    # the two healthy replicas hold the whole object.
    broken = FaultPolicy(
        error_status=error_status, broken_paths={"/data/big.bin"}
    )
    params = RequestParams(multistream_chunk=50_000, retry_policy=NO_RETRY)
    client, net, apps, urls, content = multistream_world(
        params=params, site_faults={1: broken}
    )
    result = client.get_multistream(urls[0])
    assert result.data == content
    assert [stream.failed for stream in result.streams] == [False, True, False]
    assert result.bytes_by_host()["site1"] == 0
    assert client.metrics().value("multistream.stream_failures_total") == 1


def test_all_replicas_failed_carries_each_streams_error():
    broken = {
        index: FaultPolicy(error_status=status, broken_paths={"/data/big.bin"})
        for index, status in enumerate((403, 503, 403))
    }
    params = RequestParams(multistream_chunk=50_000, retry_policy=NO_RETRY)
    client, net, apps, urls, content = multistream_world(params=params)
    metalink = client.get_metalink(urls[0])
    for index, app in enumerate(apps):
        app.faults = broken[index]

    from repro.core.multistream import multistream_download

    with pytest.raises(AllReplicasFailed) as info:
        client.runtime.run(
            multistream_download(
                client.context, urls[0], params, metalink=metalink
            )
        )
    assert [url for url, _ in info.value.attempts] == urls
    assert [type(error) for _, error in info.value.attempts] == [
        PermissionDenied, RequestError, PermissionDenied,
    ]


def test_multistream_all_dead_raises():
    params = RequestParams(
        multistream_chunk=50_000,
        retry_policy=NO_RETRY,
        tcp_options=TcpOptions(connect_timeout=0.2),
    )
    client, net, apps, urls, content = multistream_world(params=params)
    metalink = client.get_metalink(urls[0])
    for i in range(3):
        net.host(f"site{i}").fail()

    from repro.core.multistream import multistream_download

    with pytest.raises(AllReplicasFailed):
        client.runtime.run(
            multistream_download(
                client.context, urls[0], params, metalink=metalink
            )
        )


def test_checksum_mismatch_detected():
    # All chunks come from a corrupted mirror when it is the only one.
    params = RequestParams(
        multistream_chunk=100_000, multistream_max_streams=1,
        verify_checksum=True,
    )
    client, net, apps, urls, content = multistream_world(
        n_replicas=2, params=params, corrupt_site=0
    )
    # The metalink checksum is computed by site1 (clean copy): fetch it
    # there, then force all traffic to the corrupted site0.
    metalink = client.get_metalink(urls[1])
    # Rewrite replica order so the corrupt site is the only stream.
    entry = metalink.single()
    entry.urls = [u for u in entry.urls if "site0" in u.url]

    from repro.core.multistream import multistream_download

    with pytest.raises(ChecksumMismatch):
        client.runtime.run(
            multistream_download(
                client.context, urls[0], params, metalink=metalink
            )
        )


def test_metalink_without_size_rejected():
    client, net, apps, urls, content = multistream_world()
    metalink = client.get_metalink(urls[0])
    metalink.single().size = None

    from repro.core.multistream import multistream_download

    with pytest.raises(RequestError):
        client.runtime.run(
            multistream_download(
                client.context, urls[0], client.context.params,
                metalink=metalink,
            )
        )


def test_max_streams_respected():
    params = RequestParams(
        multistream_chunk=50_000, multistream_max_streams=2
    )
    client, net, apps, urls, content = multistream_world(params=params)
    result = client.get_multistream(urls[0])
    assert len(result.streams) == 2
    assert result.data == content


def test_empty_file_multistream():
    env = Environment()
    net = Network(env, seed=0)
    net.add_host("client")
    net.add_host("site0")
    net.set_route("client", "site0", LinkSpec(latency=0.001, bandwidth=1e8))
    store = ObjectStore()
    store.put("/empty", b"")
    app = StorageApp(store, replicas={"/empty": ["http://site0/empty"]})
    HttpServer(SimRuntime(net, "site0"), app, port=80).start()
    client = DavixClient(SimRuntime(net, "client"))
    result = client.get_multistream("http://site0/empty")
    assert result.data == b""
