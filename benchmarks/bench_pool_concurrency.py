"""POOL-C — pool size vs concurrency (Section 2.2 discussion).

"our approach uses a connection pool whose size is proportional to the
level of concurrency. Consequently, an important degree of concurrency
can result in a more important server load compared to a multi-plexed
solution like spdy."

Workload: C concurrent readers each fetching 50 x 512 KiB objects over
GEANT, dispatched through the davix pool vs multiplexed on a single
XRootD connection. Metrics: wall time (scaling) and server connection
count (the paper's honest trade-off).
"""

from repro.concurrency import SimRuntime, bounded_gather
from repro.core import DavixClient
from repro.core.file import DavFile
from repro.net.profiles import GEANT, build_network
from repro.server import HttpServer, ObjectStore, StorageApp, ZeroContent
from repro.sim import Environment
from repro.xrootd import XrdClient, XrdServer, serve_xrootd

from _util import emit

OBJECTS = 50
OBJECT_SIZE = 524_288
WIDTHS = (1, 4, 16, 64)


def build_store():
    store = ObjectStore()
    for i in range(OBJECTS):
        store.put(f"/obj{i}", ZeroContent(OBJECT_SIZE))
    return store


def run_davix(width):
    env = Environment()
    net = build_network(GEANT, env, seed=21)
    client_rt = SimRuntime(net, "client")
    HttpServer(
        SimRuntime(net, "server"), StorageApp(build_store()), port=80
    ).start()
    client = DavixClient(client_rt)

    def job(path):
        def thunk():
            data = yield from DavFile(
                client.context, f"http://server{path}"
            ).read_all()
            return len(data)

        return thunk

    start = client_rt.now()
    outcomes = client_rt.run(
        bounded_gather(
            [job(f"/obj{i}") for i in range(OBJECTS)], limit=width
        )
    )
    for outcome in outcomes:
        outcome.unwrap()
    elapsed = client_rt.now() - start
    conns = net.host("server").counters["connections_accepted"]
    return elapsed, conns


def run_xrootd_multiplexed():
    """The 'ideal multiplexing' reference: everything on 1 connection."""
    env = Environment()
    net = build_network(GEANT, env, seed=21)
    client_rt = SimRuntime(net, "client")
    serve_xrootd(
        SimRuntime(net, "server"), XrdServer(build_store()), port=1094
    )

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        promises = []
        for i in range(OBJECTS):
            handle = yield from client.open(f"/obj{i}")
            promise = yield from client.read_nowait(
                handle, 0, OBJECT_SIZE
            )
            promises.append(promise)
        for promise in promises:
            yield from client.read_result(promise)
        return client_rt.now()

    elapsed = client_rt.run(op())
    conns = net.host("server").counters["connections_accepted"]
    return elapsed, conns


def test_pool_concurrency(benchmark):
    def run():
        out = {f"pool-{w}": run_davix(w) for w in WIDTHS}
        out["xrootd-mux"] = run_xrootd_multiplexed()
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (elapsed, conns) in results.items():
        throughput = OBJECTS * OBJECT_SIZE / elapsed / 1e6
        rows.append([label, elapsed, throughput, conns])
    emit(
        "pool_concurrency",
        f"POOL-C: {OBJECTS} x 512 KiB GETs over GEANT",
        ["strategy", "time (s)", "MB/s", "server connections"],
        rows,
        note=(
            "pool connections grow with dispatch width (paper's stated "
            "cost vs a multiplexed protocol: xrootd uses 1)"
        ),
    )

    # More width -> faster, until the pipe saturates.
    assert results["pool-16"][0] < results["pool-1"][0] / 4
    # Connection count tracks width; multiplexing needs exactly one.
    assert results["pool-64"][1] > results["pool-4"][1] >= results["pool-1"][1]
    assert results["xrootd-mux"][1] == 1
    # Pool at width >= 16 is competitive with ideal multiplexing (2x).
    assert results["pool-16"][0] < results["xrootd-mux"][0] * 2
