"""FIG1-HOL — head-of-line blocking of HTTP pipelining (Section 2.2).

The paper's Figure 1 contrasts pipelining with multiplexing: "any
request pipelined suffering of a delay will cause a delay for all the
following requests". We run a mixed workload — one large object and
many small ones — three ways:

* **pipelined** on one connection (the rejected design);
* **pool-dispatched** in parallel over davix's connection pool (the
  paper's design, Figure 2);
* **xrootd-multiplexed** on one connection (the HPC reference).

Reported metric: mean completion time of the *small* requests.
"""

from repro.concurrency import SimRuntime, bounded_gather
from repro.core import DavixClient, pipeline_requests
from repro.core.file import DavFile
from repro.http import Request
from repro.net import LinkSpec, Network
from repro.server import HttpServer, ObjectStore, StorageApp
from repro.sim import Environment
from repro.xrootd import XrdClient, XrdServer, serve_xrootd

from _util import emit

BIG = 12_000_000  # ~1 s of transfer at 100 Mb/s (fits one xrootd frame)
SMALL = 2_000
N_SMALL = 8
LATENCY = 0.01
BANDWIDTH = 12_500_000  # 100 Mb/s


def build_world():
    env = Environment()
    net = Network(env, seed=7)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client", "server", LinkSpec(latency=LATENCY, bandwidth=BANDWIDTH)
    )
    store = ObjectStore()
    store.put("/big", b"B" * BIG)
    for i in range(N_SMALL):
        store.put(f"/small{i}", b"s" * SMALL)
    return net, store


def run_pipelined():
    net, store = build_world()
    client_rt = SimRuntime(net, "client")
    HttpServer(SimRuntime(net, "server"), StorageApp(store), port=80).start()
    requests = [Request("GET", "/big")] + [
        Request("GET", f"/small{i}") for i in range(N_SMALL)
    ]
    _responses, completions = client_rt.run(
        pipeline_requests(("server", 80), requests)
    )
    return completions[0], completions[1:]


def run_pool_dispatch():
    net, store = build_world()
    client_rt = SimRuntime(net, "client")
    HttpServer(SimRuntime(net, "server"), StorageApp(store), port=80).start()
    client = DavixClient(client_rt)
    done = {}

    def job(path):
        def thunk():
            data = yield from DavFile(
                client.context, f"http://server{path}"
            ).read_all()
            done[path] = client_rt.now()
            return data

        return thunk

    jobs = [job("/big")] + [job(f"/small{i}") for i in range(N_SMALL)]
    outcomes = client_rt.run(bounded_gather(jobs, limit=N_SMALL + 1))
    for outcome in outcomes:
        outcome.unwrap()
    return done["/big"], [done[f"/small{i}"] for i in range(N_SMALL)]


def run_xrootd_multiplexed():
    net, store = build_world()
    client_rt = SimRuntime(net, "client")
    serve_xrootd(SimRuntime(net, "server"), XrdServer(store), port=1094)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        big = yield from client.open("/big")
        smalls = []
        for i in range(N_SMALL):
            handle = yield from client.open(f"/small{i}")
            smalls.append(handle)
        # Opens cost sequential round trips; time the data phase only
        # (the pipelined/pool cases pay a single connect, which is
        # comparable).
        issued_at = client_rt.now()
        big_promise = yield from client.read_nowait(big, 0, BIG)
        small_promises = []
        for handle in smalls:
            promise = yield from client.read_nowait(handle, 0, SMALL)
            small_promises.append(promise)
        small_times = []
        for promise in small_promises:
            yield from client.read_result(promise)
            small_times.append(client_rt.now() - issued_at)
        yield from client.read_result(big_promise)
        return client_rt.now() - issued_at, small_times

    return client_rt.run(op())


def test_pipelining_hol(benchmark):
    def run():
        return {
            "pipelined": run_pipelined(),
            "pool": run_pool_dispatch(),
            "xrootd": run_xrootd_multiplexed(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (big_done, small_times) in results.items():
        mean_small = sum(small_times) / len(small_times)
        rows.append([label, big_done, mean_small, max(small_times)])
    emit(
        "pipelining_hol",
        "FIG1-HOL: mixed workload (1 x 12 MB + 8 x 2 KB), completion "
        "times (s)",
        ["strategy", "big done", "small mean", "small max"],
        rows,
        note=(
            "pipelining: smalls blocked behind the big response (HOL); "
            "pool dispatch & xrootd multiplexing: smalls finish in ~RTT"
        ),
    )

    pipe_big, pipe_smalls = results["pipelined"]
    pool_big, pool_smalls = results["pool"]
    xrd_big, xrd_smalls = results["xrootd"]
    # HOL: every pipelined small waits for the big transfer (~1.6 s).
    assert min(pipe_smalls) >= pipe_big
    # Pool dispatch and multiplexing keep smalls at ~RTT scale.
    assert max(pool_smalls) < pipe_big / 5
    assert max(xrd_smalls) < pipe_big / 5
