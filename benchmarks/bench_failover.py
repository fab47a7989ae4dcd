"""ML-FAIL — Metalink fail-over resiliency (Section 2.4, default mode).

"This approach improves drastically the resiliency of the data access
layer and has the advantage to be without compromise or impact on the
performances."

Workload: a 64 MB file replicated on 4 sites; k of them are down. A
plain GET fails whenever the primary is dead; the fail-over GET
succeeds as long as one replica lives. Metric: success rate and time
overhead vs the all-alive baseline.
"""

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, RetryPolicy
from repro.errors import DavixError, NetworkError
from repro.net import LinkSpec, Network, TcpOptions
from repro.server import HttpServer, ObjectStore, StorageApp, ZeroContent
from repro.sim import Environment

from _util import emit

NO_RETRY = RetryPolicy(max_attempts=1)

N_REPLICAS = 4
FILE_SIZE = 64_000_000
PATH = "/data/f.root"


def build_world(dead_sites):
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("client")
    names = [f"site{i}" for i in range(N_REPLICAS)]
    urls = [f"http://{name}{PATH}" for name in names]
    for name in names:
        net.add_host(name)
        net.set_route(
            "client", name, LinkSpec(latency=0.02, bandwidth=62_500_000)
        )
        store = ObjectStore()
        store.put(PATH, ZeroContent(FILE_SIZE))
        app = StorageApp(store, replicas={PATH: urls})
        HttpServer(SimRuntime(net, name), app, port=80).start()
    for index in dead_sites:
        net.host(f"site{index}").fail()
    params = RequestParams(
        retry_policy=NO_RETRY, tcp_options=TcpOptions(connect_timeout=1.0)
    )
    client = DavixClient(SimRuntime(net, "client"), params=params)
    return client, urls, net


def run_case(dead_sites, strategy):
    client, urls, net = build_world(dead_sites)
    start = client.runtime.now()
    # The metalink comes from the last (always alive) site, playing the
    # federation-endpoint role.
    try:
        if strategy == "plain":
            data = client.get(urls[0])
        else:
            data = client.get_with_failover(
                urls[0], metalink_url=urls[-1]
            )
    except (DavixError, NetworkError):
        return (False, client.runtime.now() - start)
    return (len(data) == FILE_SIZE, client.runtime.now() - start)


def test_failover(benchmark):
    cases = [  # (dead site indices, label)
        ((), "all alive"),
        ((0,), "primary dead"),
        ((0, 1), "2 of 4 dead"),
        ((0, 1, 2), "3 of 4 dead"),
    ]

    def run():
        out = {}
        for dead, label in cases:
            out[(label, "plain")] = run_case(dead, "plain")
            out[(label, "failover")] = run_case(dead, "failover")
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = results[("all alive", "failover")][1]
    rows = []
    for _dead, label in cases:
        plain_ok, plain_time = results[(label, "plain")]
        fo_ok, fo_time = results[(label, "failover")]
        rows.append(
            [
                label,
                "yes" if plain_ok else "FAIL",
                "yes" if fo_ok else "FAIL",
                fo_time,
                fo_time / baseline,
            ]
        )
    emit(
        "failover",
        "ML-FAIL: 64 MB GET, 4 replicas, k sites down",
        ["scenario", "plain ok", "failover ok", "failover time",
         "vs baseline"],
        rows,
        note=(
            "failover succeeds while any replica lives; overhead = "
            "connect timeout on dead hosts + metalink fetch"
        ),
    )

    # Plain GET dies with the primary; failover survives to the last
    # replica.
    assert results[("primary dead", "plain")][0] is False
    for _dead, label in cases:
        assert results[(label, "failover")][0] is True
    # No-failure fast path: zero overhead vs plain.
    assert results[("all alive", "failover")][1] == (
        results[("all alive", "plain")][1]
    )
