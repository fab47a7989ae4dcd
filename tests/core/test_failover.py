"""Tests for Metalink replica fail-over (paper Section 2.4)."""

import pytest

from repro.concurrency import SimRuntime
from repro.core import Context, DavixClient, MetalinkMode, RequestParams
from repro.errors import AllReplicasFailed, FileNotFound
from repro.net import LinkSpec, Network, TcpOptions
from repro.obs import MetricsRegistry
from repro.server import HttpServer, ObjectStore, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY


def replica_world(n_replicas=3, latency=0.001):
    """A client plus n storage sites each holding the same file; every
    site serves the Metalink listing all replicas."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client")
    names = [f"site{i}" for i in range(n_replicas)]
    spec = LinkSpec(latency=latency, bandwidth=1e8)
    for name in names:
        net.add_host(name)
        net.set_route("client", name, spec)

    path = "/data/f.root"
    urls = [f"http://{name}{path}" for name in names]
    apps = []
    for name in names:
        runtime = SimRuntime(net, name)
        store = ObjectStore()
        store.put(path, b"replicated-content")
        app = StorageApp(
            store, replicas={path: urls}, metrics=MetricsRegistry()
        )
        HttpServer(runtime, app, port=80).start()
        apps.append(app)

    client = DavixClient(SimRuntime(net, "client"))
    return client, net, apps, urls


def test_primary_success_needs_no_failover():
    client, net, apps, urls = replica_world()
    data = client.get_with_failover(urls[0])
    assert data == b"replicated-content"
    assert client.context.metrics.value("client.failovers_total") is None
    assert apps[1].requests_handled == 0


def test_failover_to_second_replica_when_primary_down():
    client, net, apps, urls = replica_world()
    net.host("site0").fail()
    # The metalink must come from a live site (the federation case).
    data = client.get_with_failover(urls[0], metalink_url=urls[1])
    assert data == b"replicated-content"
    assert client.context.metrics.value("client.failovers_total") == 1


def test_failover_skips_dead_replicas_until_one_works():
    client, net, apps, urls = replica_world(n_replicas=4)
    net.host("site0").fail()
    net.host("site1").fail()
    net.host("site2").fail()
    data = client.get_with_failover(urls[0], metalink_url=urls[3])
    assert data == b"replicated-content"
    assert apps[3].requests_handled >= 1


def test_all_replicas_dead_raises_all_failed():
    client, net, apps, urls = replica_world(n_replicas=2)
    # Fetch the metalink first (all alive), then take everything down.
    metalink = client.get_metalink(urls[0])
    net.host("site0").fail()
    net.host("site1").fail()

    from repro.core.failover import with_failover
    from repro.core.file import DavFile

    params = client.context.params.replace(
        retry_policy=NO_RETRY, tcp_options=TcpOptions(connect_timeout=0.5)
    )

    def attempt(target):
        data = yield from DavFile(
            client.context, target, params
        ).read_all()
        return data

    # Inject the metalink via a stub DavFile.get_metalink through the
    # federation URL of a dead host -> primary error must surface as
    # AllReplicasFailed is unreachable; instead test the inner loop by
    # resolving replicas manually.
    from repro.core.failover import resolve_replicas
    from repro.http import Url

    replicas = resolve_replicas(metalink, Url.parse(urls[0]))
    assert len(replicas) == 2

    def op():
        result = yield from with_failover(
            client.context, urls[0], attempt, params,
            metalink_url=urls[1],
        )
        return result

    from repro.errors import DavixError, RequestError

    with pytest.raises((RequestError, DavixError)):
        client.runtime.run(op())


def test_404_on_primary_triggers_failover():
    # Primary lost its copy (404) but still serves the metalink; the
    # replica has the data.
    client, net, apps, urls = replica_world(n_replicas=2)
    apps[0].store.delete("/data/f.root")
    data = client.get_with_failover(urls[0])
    assert data == b"replicated-content"
    assert client.context.metrics.value("client.failovers_total") == 1


def test_metalink_mode_disabled_raises_primary_error():
    client, net, apps, urls = replica_world(n_replicas=2)
    apps[0].store.delete("/data/f.root")
    params = client.context.params.replace(
        metalink_mode=MetalinkMode.DISABLED
    )
    with pytest.raises(FileNotFound):
        client.get_with_failover(urls[0], params=params)


def test_blacklisted_replica_is_skipped():
    client, net, apps, urls = replica_world(n_replicas=3)
    apps[0].store.delete("/data/f.root")
    # Blacklist site1 manually: failover should go straight to site2.
    from repro.http import Url

    client.context.blacklist(Url.parse(urls[1]).origin)
    data = client.get_with_failover(urls[0])
    assert data == b"replicated-content"
    gets = [
        app.metrics.counter("server.requests_total", method="GET").value
        for app in apps
    ]
    assert gets[1] == 0
    assert gets[2] >= 1


def test_blacklist_expires_with_ttl():
    context = Context(params=RequestParams(blacklist_ttl=10.0))
    now = {"t": 0.0}
    context.clock = lambda: now["t"]
    origin = ("http", "site1", 80)
    context.blacklist(origin)
    assert context.is_blacklisted(origin)
    now["t"] = 10.5
    assert not context.is_blacklisted(origin)


def test_failover_counts_attempts_in_error():
    client, net, apps, urls = replica_world(n_replicas=3)
    for app in apps:
        app.store.delete("/data/f.root")
    params = client.context.params.replace(retry_policy=NO_RETRY)
    with pytest.raises(AllReplicasFailed) as info:
        client.get_with_failover(urls[0], params=params)
    # primary + 2 distinct replicas were tried
    assert len(info.value.attempts) == 3
