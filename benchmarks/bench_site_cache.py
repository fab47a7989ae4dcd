"""EXT-CACHE — extension: the HTTP-ecosystem dividend (site caches).

The paper's strategic argument (Sections 1–2) is that adopting HTTP
lets HPC reuse the web's infrastructure — squids, caches, proxies —
which specialised protocols cannot. Two campaigns quantify the claim:

* **fan-out** — eight worker nodes at one site each download the same
  200 MB calibration file over a thin WAN link, with and without a
  site-local caching proxy (one WAN transfer feeds the whole site);
* **data lifecycle** — a zipf-popularity re-read workload (hot
  conditions data dominates) over the WAN, swept across the caching
  tiers (client page cache, site proxy, both). Gates: warm p50 at
  least 3x faster than cold, and origin egress under zipf at most 40 %
  of the cache-less run.
"""

import random

from repro.bench.stats import percentile
from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, TransferConfig
from repro.net import LinkSpec, Network
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    StorageApp,
    ZeroContent,
)
from repro.sim import Environment

from _util import emit

FILE_SIZE = 200_000_000
N_WORKERS = 8
WAN = LinkSpec(latency=0.08, bandwidth=25_000_000)
LAN = LinkSpec(latency=0.0005, bandwidth=125_000_000)


def build(with_proxy: bool):
    env = Environment()
    net = Network(env, seed=41)
    net.add_host("origin", access_bandwidth=25_000_000)
    store = ObjectStore()
    store.put("/conditions.db", ZeroContent(FILE_SIZE))
    HttpServer(SimRuntime(net, "origin"), StorageApp(store), port=80).start()

    proxy_app = None
    if with_proxy:
        net.add_host("sitecache", access_bandwidth=125_000_000)
        net.set_route("sitecache", "origin", WAN)
        proxy_app = ProxyApp(default_ttl=3600.0)
        HttpServer(
            SimRuntime(net, "sitecache"), proxy_app, port=3128
        ).start()

    workers = []
    for index in range(N_WORKERS):
        name = f"wn{index}"
        net.add_host(name)
        net.set_route(name, "origin", WAN)
        if with_proxy:
            net.set_route(name, "sitecache", LAN)
        params = RequestParams(
            proxy="http://sitecache:3128" if with_proxy else None
        )
        workers.append(DavixClient(SimRuntime(net, name), params=params))
    return net, workers, proxy_app


def run_case(with_proxy: bool):
    net, workers, proxy_app = build(with_proxy)
    times = []
    for worker in workers:
        start = worker.runtime.now()
        data = worker.get("http://origin/conditions.db")
        assert len(data) == FILE_SIZE
        times.append(worker.runtime.now() - start)
    origin_bytes = net.host("origin").uplink.bytes_carried
    return times, origin_bytes, proxy_app


def test_site_cache(benchmark):
    def run():
        return {
            "direct": run_case(False),
            "cached": run_case(True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (times, origin_bytes, proxy_app) in results.items():
        rows.append(
            [
                label,
                times[0],
                sum(times[1:]) / (len(times) - 1),
                sum(times),
                origin_bytes / 1e6,
            ]
        )
    emit(
        "site_cache",
        f"EXT-CACHE: {N_WORKERS} worker nodes x 200 MB over a thin WAN, "
        "with/without a site cache",
        [
            "setup",
            "first worker (s)",
            "later workers mean (s)",
            "total (s)",
            "origin egress (MB)",
        ],
        rows,
        note=(
            "the HTTP-ecosystem dividend: one WAN transfer feeds the "
            "whole site; origin egress drops ~8x"
        ),
    )

    direct_times, direct_bytes, _ = results["direct"]
    cached_times, cached_bytes, proxy_app = results["cached"]
    # Warm workers are served at LAN speed.
    assert max(cached_times[1:]) < min(direct_times) / 3
    # Origin egress collapses to ~one file.
    assert cached_bytes < direct_bytes / (N_WORKERS - 1)
    assert proxy_app.stats["hits"] == N_WORKERS - 1


# --------------------------------------------------------------------
# data-lifecycle campaign: zipf re-reads across the caching tiers
# --------------------------------------------------------------------

N_OBJECTS = 8
OBJECT_SIZE = 4 * 1024 * 1024
HOT_OFFSETS = 4  # page-aligned hot spots per object
READ_SIZE = 256 * 1024
N_READS = 80
ZIPF_ALPHA = 1.3
LIFECYCLE_SEED = 97


def zipf_draw(rng, weights):
    point = rng.random() * weights[-1]
    for index, cumulative in enumerate(weights):
        if point < cumulative:
            return index
    return len(weights) - 1


def lifecycle_schedule():
    """The seeded zipf read schedule: (object, offset) pairs — hot
    objects dominate, so the tail of the campaign is mostly re-reads."""
    rng = random.Random(LIFECYCLE_SEED)
    weights = []
    total = 0.0
    for rank in range(1, N_OBJECTS + 1):
        total += 1.0 / rank ** ZIPF_ALPHA
        weights.append(total)
    schedule = []
    for _ in range(N_READS):
        obj = zipf_draw(rng, weights)
        slot = rng.randrange(HOT_OFFSETS)
        schedule.append((obj, slot * (OBJECT_SIZE // HOT_OFFSETS)))
    return schedule


def run_lifecycle(client_cache: bool, site_proxy: bool):
    """One config of the campaign in a fresh world. Returns cold/warm
    latency lists, origin egress bytes, and the two cache tiers."""
    env = Environment()
    net = Network(env, seed=LIFECYCLE_SEED)
    net.add_host("origin", access_bandwidth=25_000_000)
    store = ObjectStore()
    for index in range(N_OBJECTS):
        store.put(f"/cond{index}.db", ZeroContent(OBJECT_SIZE))
    HttpServer(SimRuntime(net, "origin"), StorageApp(store), port=80).start()

    proxy_app = None
    if site_proxy:
        net.add_host("sitecache", access_bandwidth=125_000_000)
        net.set_route("sitecache", "origin", WAN)
        proxy_app = ProxyApp(default_ttl=3600.0)
        HttpServer(
            SimRuntime(net, "sitecache"), proxy_app, port=3128
        ).start()

    net.add_host("wn0")
    net.set_route("wn0", "origin", WAN)
    if site_proxy:
        net.set_route("wn0", "sitecache", LAN)
    params = RequestParams(
        proxy="http://sitecache:3128" if site_proxy else None,
        transfer=TransferConfig(
            page_cache_bytes=(128 << 20) if client_cache else 0
        ),
    )
    client = DavixClient(SimRuntime(net, "wn0"), params=params)

    cold, warm = [], []
    seen = set()
    for obj, offset in lifecycle_schedule():
        url = f"http://origin/cond{obj}.db"
        start = client.runtime.now()
        data = client.pread(url, offset, READ_SIZE)
        elapsed = client.runtime.now() - start
        assert len(data) == READ_SIZE
        bucket = warm if (obj, offset) in seen else cold
        bucket.append(elapsed)
        seen.add((obj, offset))
    origin_bytes = net.host("origin").uplink.bytes_carried
    return cold, warm, origin_bytes, client, proxy_app


def test_site_cache_lifecycle(benchmark):
    cases = {
        "no-cache": (False, False),
        "client-cache": (True, False),
        "site-proxy": (False, True),
        "client+proxy": (True, True),
    }

    def run():
        return {
            label: run_lifecycle(*flags)
            for label, flags in cases.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows, configs = [], {}
    for label, (cold, warm, origin_bytes, client, proxy_app) in (
        results.items()
    ):
        cold_p50 = percentile(cold, 50)
        warm_p50 = percentile(warm, 50)
        rows.append(
            [
                label,
                cold_p50,
                warm_p50,
                origin_bytes / 1e6,
            ]
        )
        configs[label] = {
            "samples": cold + warm,
            "cold_p50": cold_p50,
            "warm_p50": warm_p50,
            "origin_bytes": origin_bytes,
        }
    emit(
        "site_cache_lifecycle",
        "EXT-CACHE: zipf data-lifecycle campaign "
        f"({N_READS} reads over {N_OBJECTS} objects, alpha={ZIPF_ALPHA}) "
        "across the caching tiers",
        ["tier", "cold p50 (s)", "warm p50 (s)", "origin egress (MB)"],
        rows,
        note=(
            "hot conditions data is read once over the WAN and re-read "
            "from cache; origin egress tracks the distinct working set"
        ),
        params={
            "objects": N_OBJECTS,
            "object_size": OBJECT_SIZE,
            "read_size": READ_SIZE,
            "reads": N_READS,
            "zipf_alpha": ZIPF_ALPHA,
            "seed": LIFECYCLE_SEED,
        },
        configs=configs,
    )

    baseline_bytes = results["no-cache"][2]
    for label in ("client-cache", "site-proxy", "client+proxy"):
        cold, warm, origin_bytes, client, proxy_app = results[label]
        # Gate 1: warm reads beat cold WAN reads by at least 3x (p50).
        assert percentile(warm, 50) * 3 <= percentile(cold, 50), label
        # Gate 2: zipf origin egress collapses to <= 40 % of no-cache.
        assert origin_bytes <= 0.4 * baseline_bytes, label

    # The savings are visible as cache.* metrics, per tier.
    cached_client = results["client-cache"][3]
    assert cached_client.metrics().value("cache.hit") > 0
    assert (
        cached_client.metrics().value("cache.origin_bytes_saved") > 0
    )
    site_proxy_app = results["site-proxy"][4]
    assert site_proxy_app.stats["hits"] > 0
    assert site_proxy_app.stats["origin_bytes_saved"] > 0
