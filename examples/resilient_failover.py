"""Metalink resiliency (paper Section 2.4): fail-over & multi-stream.

Builds a grid of four storage sites replicating one 32 MB file, then:

1. downloads it while sites die one by one — the Metalink fail-over
   strategy keeps succeeding until the last replica is gone;
2. restores the grid and downloads with the multi-stream strategy,
   showing the client-side bandwidth aggregation (and the server load
   it costs).

Run: ``python examples/resilient_failover.py``
"""

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, RetryPolicy
from repro.errors import AllReplicasFailed
from repro.net import LinkSpec, Network, TcpOptions
from repro.server import HttpServer, ObjectStore, StorageApp, SyntheticContent
from repro.sim import Environment

NO_RETRY = RetryPolicy(max_attempts=1)

N_SITES = 4
PATH = "/grid/dataset.root"
SIZE = 32_000_000


def build_grid():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client", access_bandwidth=125_000_000)
    names = [f"site{i}" for i in range(N_SITES)]
    urls = [f"http://{name}{PATH}" for name in names]
    apps = []
    for name in names:
        net.add_host(name, access_bandwidth=25_000_000)
        net.set_route(
            "client", name, LinkSpec(latency=0.015, bandwidth=25_000_000)
        )
        store = ObjectStore()
        store.put(PATH, SyntheticContent(SIZE, seed=99))
        app = StorageApp(store, replicas={PATH: urls})
        HttpServer(SimRuntime(net, name), app, port=80).start()
        apps.append(app)
    params = RequestParams(
        retry_policy=NO_RETRY, tcp_options=TcpOptions(connect_timeout=0.5)
    )
    client = DavixClient(SimRuntime(net, "client"), params=params)
    return client, net, urls, apps


def main() -> None:
    # -- 1. fail-over under progressive site loss -------------------------
    client, net, urls, apps = build_grid()
    print(f"grid: {N_SITES} sites replicating {PATH} ({SIZE / 1e6:.0f} MB)")
    for dead in range(N_SITES):
        if dead:
            net.host(f"site{dead - 1}").fail()
        # Reset the blacklist between attempts: sites "recovered" as
        # far as the client knows.
        client.context._blacklist.clear()
        try:
            data = client.get_with_failover(
                urls[0], metalink_url=urls[-1]
            )
            failovers = client.metrics().value("client.failovers_total")
            print(
                f"  {dead} site(s) down -> fail-over GET ok "
                f"({len(data) / 1e6:.0f} MB, "
                f"{int(failovers or 0)} failovers so far)"
            )
        except AllReplicasFailed as exc:
            print(f"  {dead} site(s) down -> {exc}")

    net.host(f"site{N_SITES - 1}").fail()
    client.context._blacklist.clear()
    try:
        client.get_with_failover(urls[0], metalink_url=urls[-1])
    except Exception as exc:
        print(f"  all sites down -> {type(exc).__name__} (as expected)")

    # -- 2. multi-stream download on a healthy grid ------------------------
    client, net, urls, apps = build_grid()
    params = RequestParams(multistream_chunk=2_000_000)

    start = client.runtime.now()
    single = client.get(urls[0])
    single_time = client.runtime.now() - start

    start = client.runtime.now()
    result = client.get_multistream(urls[0], params=params)
    multi_time = client.runtime.now() - start

    assert result.data == single
    print(
        f"\nsingle stream : {SIZE / single_time / 1e6:6.1f} MB/s "
        f"({single_time:.2f}s simulated)"
    )
    print(
        f"multi-stream  : {SIZE / multi_time / 1e6:6.1f} MB/s "
        f"({multi_time:.2f}s simulated), checksum verified"
    )
    for stream in result.streams:
        print(
            f"    {stream.url.host}: {stream.chunks} chunks, "
            f"{stream.bytes / 1e6:.0f} MB"
        )
    print(
        "server requests handled per site:",
        [app.requests_handled for app in apps],
        "(the paper's noted drawback: multi-stream multiplies server load)",
    )


if __name__ == "__main__":
    main()
