"""Failover edge cases: dead federations, degenerate metalinks, and
faulty replicas interacting with retries and circuit breakers."""

import pytest

from repro.concurrency import SimRuntime
from repro.core import (
    BreakerConfig,
    Context,
    DavixClient,
    RequestParams,
    RetryPolicy,
)
from repro.core.failover import resolve_replicas, with_failover
from repro.core.file import DavFile
from repro.errors import AllReplicasFailed
from repro.http import Url
from repro.net import LinkSpec, Network, TcpOptions
from repro.metalink import Metalink, MetalinkFile, MetalinkUrl
from repro.obs import MetricsRegistry
from repro.server import FaultPolicy, HttpServer, ObjectStore, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY

PATH = "/data/f.root"
CONTENT = bytes(i % 249 for i in range(80_000))


def gets(app):
    return app.metrics.counter("server.requests_total", method="GET").value


def federation_world(n_replicas=3, site_faults=None, breaker=None):
    """n storage sites plus a separate federation endpoint serving the
    Metalink; ``site_faults`` maps site index -> FaultPolicy."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client")
    names = [f"site{i}" for i in range(n_replicas)] + ["fed"]
    spec = LinkSpec(latency=0.001, bandwidth=1e8)
    for name in names:
        net.add_host(name)
        net.set_route("client", name, spec)

    urls = [f"http://site{i}{PATH}" for i in range(n_replicas)]
    apps = []
    for index, name in enumerate(names):
        runtime = SimRuntime(net, name)
        store = ObjectStore()
        store.put(PATH, CONTENT)
        faults = (site_faults or {}).get(index)
        app = StorageApp(
            store,
            replicas={PATH: urls},
            faults=faults,
            metrics=MetricsRegistry(),
        )
        HttpServer(runtime, app, port=80).start()
        apps.append(app)

    context = Context(breaker=breaker)
    client = DavixClient(SimRuntime(net, "client"), context=context)
    return client, net, apps, urls


FAST = RequestParams(
    retry_policy=NO_RETRY, tcp_options=TcpOptions(connect_timeout=0.5)
)


def test_all_replicas_down_lists_every_attempt():
    client, net, apps, urls = federation_world(n_replicas=3)
    for i in range(3):
        net.host(f"site{i}").fail()
    with pytest.raises(AllReplicasFailed) as info:
        client.get_with_failover(
            urls[0], params=FAST, metalink_url=f"http://fed{PATH}"
        )
    # Primary plus both other replicas were tried and recorded.
    tried = [url for url, _ in info.value.attempts]
    assert tried == urls
    assert (
        client.metrics().counter("failover.exhausted_total").value == 1
    )
    assert client.context.metrics.value("client.failovers_total") is None


def test_metalink_with_only_the_primary_replica():
    """A degenerate Metalink that lists just the origin that already
    failed gives up immediately instead of retrying the same origin."""
    client, net, apps, urls = federation_world(n_replicas=1)
    apps[0].store.delete(PATH)
    with pytest.raises(AllReplicasFailed) as info:
        client.get_with_failover(urls[0], params=FAST)
    assert [url for url, _ in info.value.attempts] == [urls[0]]
    # One data GET plus one metalink GET -- but no second data attempt.
    assert gets(apps[0]) == 2


def test_reset_storm_mid_vectored_read_fails_over():
    """The primary resets every response mid-body; once local retries
    are exhausted the vectored read completes from a clean replica."""
    client, net, apps, urls = federation_world(
        n_replicas=2,
        site_faults={0: FaultPolicy(reset_rate=1.0, seed=0)},
    )
    params = RequestParams(
        retry_policy=RetryPolicy(
            max_attempts=2, base_delay=0.01, jitter="none"
        )
    )
    reads = [(0, 500), (30_000, 500), (79_000, 500)]

    def attempt(target):
        chunks = yield from DavFile(
            client.context, target, params
        ).pread_vec(reads)
        return chunks

    # The metalink must come from the federation: the primary resets
    # that fetch too.
    chunks = client.runtime.run(
        with_failover(
            client.context, urls[0], attempt, params,
            metalink_url=f"http://fed{PATH}",
        )
    )
    assert chunks == [CONTENT[o : o + n] for o, n in reads]
    assert client.context.metrics.value("client.failovers_total") == 1
    assert client.context.metrics.value("client.retries_total") >= 1
    assert gets(apps[1]) >= 1


def test_open_breaker_skips_replica_without_touching_it():
    client, net, apps, urls = federation_world(
        n_replicas=3, breaker=BreakerConfig(threshold=1, cooldown=60.0)
    )
    apps[0].store.delete(PATH)
    apps[2].store.delete(PATH)
    # site1's circuit is already open from earlier failures.
    origin = ("http", "site1", 80)
    client.context.breakers.record(origin, ok=False)
    assert client.context.breakers.state(origin) == "open"

    with pytest.raises(AllReplicasFailed) as info:
        client.get_with_failover(urls[0], params=FAST)

    assert info.value.attempts[1] == (urls[1], "circuit open")
    assert apps[1].requests_handled == 0
    assert (
        client.metrics().counter("failover.breaker_skips_total").value
        == 1
    )


def test_breaker_disabled_still_attempts_open_replica():
    client, net, apps, urls = federation_world(
        n_replicas=2, breaker=BreakerConfig(threshold=1, cooldown=60.0)
    )
    apps[0].store.delete(PATH)
    origin = ("http", "site1", 80)
    client.context.breakers.record(origin, ok=False)

    params = FAST.replace(breaker_enabled=False)
    assert client.get_with_failover(urls[0], params=params) == CONTENT
    assert apps[1].requests_handled >= 1


def _metalink(*urls):
    return Metalink(
        [MetalinkFile("f.root", urls=[MetalinkUrl(url) for url in urls])]
    )


def test_an_unparsable_replica_is_skipped():
    base = Url.parse(f"http://fed{PATH}")
    replicas = resolve_replicas(
        _metalink("http://[::1/x", f"http://site1{PATH}"), base
    )
    assert replicas == [Url.parse(f"http://site1{PATH}")]


def test_a_bug_while_resolving_a_replica_is_not_swallowed(monkeypatch):
    def broken(self, location):
        raise RuntimeError("bug")

    monkeypatch.setattr(Url, "resolve", broken)
    with pytest.raises(RuntimeError):
        resolve_replicas(
            _metalink(f"http://site1{PATH}"), Url.parse(f"http://fed{PATH}")
        )
