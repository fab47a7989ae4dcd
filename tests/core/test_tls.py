"""Tests for the TLS cost model (handshake + record-layer CPU)."""

import pytest

from repro.concurrency import SimRuntime
from repro.concurrency.tlsmodel import TlsPolicy
from repro.core import DavixClient, RequestParams
from repro.errors import RequestError
from repro.net import LinkSpec, Network
from repro.server import HttpServer, ObjectStore, ServerConfig, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY


def tls_world(tls_server=True, latency=0.01, policy=None):
    env = Environment()
    net = Network(env, seed=8)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client", "server", LinkSpec(latency=latency, bandwidth=1e8)
    )
    store = ObjectStore()
    config = ServerConfig(
        tls=(policy or TlsPolicy()) if tls_server else None
    )
    HttpServer(
        SimRuntime(net, "server"), StorageApp(store, config=config),
        port=443 if tls_server else 80,
    ).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(retry_policy=NO_RETRY, tls=policy),
    )
    return client, store


def test_https_roundtrip_works():
    client, store = tls_world()
    store.put("/x", b"encrypted-ish payload")
    assert client.get("https://server/x") == b"encrypted-ish payload"
    assert client.put("https://server/y", b"up") == 201
    assert store.read("/y") == b"up"


def test_handshake_costs_two_extra_rtts():
    def first_get_time(scheme, tls_server, port_latency=0.05):
        client, store = tls_world(
            tls_server=tls_server, latency=port_latency
        )
        store.put("/x", b"tiny")
        start = client.runtime.now()
        client.get(f"{scheme}://server/x")
        return client.runtime.now() - start

    plain = first_get_time("http", tls_server=False)
    tls = first_get_time("https", tls_server=True)
    # Two extra round trips at 100 ms RTT, plus ~4 ms handshake CPU.
    assert tls - plain == pytest.approx(0.204, rel=0.15)


def test_keepalive_amortises_the_handshake():
    client, store = tls_world(latency=0.05)
    store.put("/x", b"tiny")
    start = client.runtime.now()
    client.get("https://server/x")
    first = client.runtime.now() - start
    start = client.runtime.now()
    client.get("https://server/x")
    second = client.runtime.now() - start
    assert second < first / 2  # no second handshake
    assert client.context.pool.stats().hits == 1


def test_record_layer_slows_bulk_transfer():
    policy = TlsPolicy(crypto_bandwidth=20e6)  # deliberately slow crypto
    size = 10_000_000

    def transfer_time(scheme, tls_server, tls_policy):
        client, store = tls_world(
            tls_server=tls_server, latency=0.001, policy=tls_policy
        )
        store.put("/big", b"x" * size)
        start = client.runtime.now()
        client.get(f"{scheme}://server/big")
        return client.runtime.now() - start

    plain = transfer_time("http", False, None)
    tls = transfer_time("https", True, policy)
    # Crypto at 20 MB/s on each side adds ~2 x 0.5 s for 10 MB.
    assert tls > plain + 0.8


def test_https_against_plain_port_fails_cleanly():
    client, store = tls_world(tls_server=False)  # plain server on :80
    store.put("/x", b"data")
    with pytest.raises(RequestError):
        client.get("https://server:80/x")


def test_policy_record_cost():
    policy = TlsPolicy(crypto_bandwidth=100e6)
    assert policy.record_cost(100_000_000) == pytest.approx(1.0)
    assert policy.record_cost(0) == 0.0
