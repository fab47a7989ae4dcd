"""TPC-STREAMS — third-party COPY stream count vs RTT on fat pipes.

The tentpole question for server-to-server replication: how many
concurrent ranged streams does a 100 Gb/s-class site link need before
the copy saturates it, and how does the answer move with RTT? One
384 MB replica is pulled site-to-site while the orchestrating client
sits on a thin 1 Gb/s control link and sees only COPY + perf markers.

Gates (the paper's Section 3.2 scaling argument, ported to TPC):

* at the optimal stream count the 100 Gb/s link runs >= 80% full;
* at 100 ms RTT multi-stream is >= 3x a single stream;
* zero object bytes cross the orchestrating client's link.
"""

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, RetryPolicy
from repro.net import LinkSpec, Network, TcpOptions
from repro.obs import MetricsRegistry
from repro.server import (
    HttpServer,
    ObjectStore,
    ServerConfig,
    StorageApp,
    ZeroContent,
)
from repro.sim import Environment

from _util import emit

NO_RETRY = RetryPolicy(max_attempts=1)

GBIT = 125_000_000
FILE_SIZE = 384 * 1024 * 1024
CHUNK = 24 * 1024 * 1024  # 16 chunks: enough grains for 16 streams
SOURCE = "/data/src.root"

# ~4 MB initial congestion window, no slow-start ramp: the bench
# isolates the window-per-stream limit, not the ramp to it.
WINDOW = TcpOptions(initial_window_segments=2874, idle_reset=False)

GRID = [
    (100 * GBIT, rtt, streams)
    for rtt in (0.001, 0.01, 0.1)
    for streams in (1, 2, 4, 8, 16)
] + [(10 * GBIT, 0.02, streams) for streams in (1, 8)]


def tpc_world(link_bandwidth, rtt):
    env = Environment()
    net = Network(env, seed=17)
    net.add_host("client")
    for name in ("site-a", "site-b"):
        # 400 Gb/s NICs: the site-to-site path, not the access wire,
        # is the binding constraint.
        net.add_host(name, access_bandwidth=4 * link_bandwidth)
    control = LinkSpec(latency=0.0002, bandwidth=GBIT)
    net.set_route("client", "site-a", control)
    net.set_route("client", "site-b", control)
    net.set_route(
        "site-a",
        "site-b",
        LinkSpec(latency=rtt / 2, bandwidth=link_bandwidth),
    )
    config = ServerConfig(
        disk_bandwidth=64e9,
        send_chunk=4 * 1024 * 1024,
        tpc_chunk=CHUNK,
        tpc_max_streams=64,
    )
    apps = {}
    for name in ("site-a", "site-b"):
        app = StorageApp(ObjectStore(), config=config)
        app.tpc_params = RequestParams(
            tcp_options=WINDOW, retry_policy=NO_RETRY
        )
        app.metrics = MetricsRegistry()
        HttpServer(SimRuntime(net, name), app, port=80).start()
        apps[name] = app
    apps["site-a"].store.put(SOURCE, ZeroContent(FILE_SIZE))
    client = DavixClient(
        SimRuntime(net, "client"), params=RequestParams(retry_policy=NO_RETRY)
    )
    return client, net, apps


def run_copy(link_bandwidth, rtt, streams):
    client, net, apps = tpc_world(link_bandwidth, rtt)
    start = client.runtime.now()
    summary = client.third_party_copy(
        f"http://site-a{SOURCE}",
        "http://site-b/data/dst.root",
        streams=streams,
    )
    elapsed = client.runtime.now() - start
    assert summary.ok and summary.bytes_transferred == FILE_SIZE

    # The destination committed every byte...
    moved = apps["site-b"].metrics.counter(
        "tpc.bytes_total", mode="pull"
    ).value
    assert moved == FILE_SIZE
    # ...and none of them crossed the orchestrating client's link.
    client_bytes = (
        net.host("client").uplink.bytes_carried
        + net.host("client").downlink.bytes_carried
    )
    assert client_bytes < 20_000, client_bytes
    return elapsed


def test_tpc_streams(benchmark):
    def run():
        return {cell: run_copy(*cell) for cell in GRID}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (link, rtt, streams), elapsed in results.items():
        throughput = FILE_SIZE / elapsed
        rows.append(
            [
                f"{link // GBIT}G rtt={rtt * 1000:g}ms x{streams}",
                elapsed,
                throughput / 1e9,
                100.0 * throughput / link,
            ]
        )
    emit(
        "tpc_streams",
        "TPC-STREAMS: 384 MB site-to-site COPY, streams x RTT x link",
        ["configuration", "time (s)", "GB/s", "% of link"],
        rows,
        note=(
            "multi-stream third-party copy aggregates per-stream TCP "
            "windows; the client only orchestrates (zero object bytes "
            "on its link)"
        ),
        params={
            "file_size": FILE_SIZE,
            "chunk": CHUNK,
            "initial_window_segments": WINDOW.initial_window_segments,
            "grid": [list(cell) for cell in GRID],
        },
    )

    def best(link, rtt):
        return min(
            elapsed
            for (cell_link, cell_rtt, _), elapsed in results.items()
            if cell_link == link and cell_rtt == rtt
        )

    # >= 80% of the 100 Gb/s link at the optimal stream count (1 ms RTT).
    peak = FILE_SIZE / best(100 * GBIT, 0.001)
    assert peak >= 0.8 * 100 * GBIT, peak
    # >= 3x single-stream at 100 ms RTT.
    single = results[(100 * GBIT, 0.1, 1)]
    assert single / best(100 * GBIT, 0.1) >= 3.0
    # More streams never lose at the highest RTT.
    assert results[(100 * GBIT, 0.1, 16)] < results[(100 * GBIT, 0.1, 4)]
    # The 10 Gb/s sanity row scales too.
    assert results[(10 * GBIT, 0.02, 8)] < results[(10 * GBIT, 0.02, 1)]
