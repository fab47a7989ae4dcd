"""Chaos schedules for the two caching tiers.

The page cache (client side) and the range-aware proxy must keep two
properties under seeded origin faults (5xx errors, mid-body resets)
injected during revalidation and mid-gap-fetch:

* **version purity** — every successful read is a contiguous slice of
  exactly one object version, never a mix; and once a reader has seen
  the new version it never regresses to the old one (invalidated pages
  are dropped, not served);
* **determinism** — replaying the same schedule against a fresh world
  with the same seeds yields a byte-identical outcome sequence.
"""

import random

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, RetryPolicy, TransferConfig
from repro.errors import RequestError
from repro.net import LinkSpec, Network
from repro.obs import Tracer, request_events
from repro.server import (
    FaultPolicy,
    HttpServer,
    ObjectStore,
    ProxyApp,
    StorageApp,
)
from repro.sim import Environment

from tests.helpers import davix_world, proxy_outcomes
from tests.resilience.conftest import ScriptedFaults, errors

SIZE = 60_000
PAGE = 4096
POLICY = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=1.0, seed=1)


def body(version):
    """Version bodies differing at *every* byte, so any non-empty
    slice identifies its version unambiguously."""
    return bytes((i * 31 + version * 101 + 7) % 256 for i in range(SIZE))


def read_plan(seed, count=20):
    """Seeded overlapping read schedule — revisits warm spans (cache
    hits / partial hits) and touches cold ones (gap fetches)."""
    rng = random.Random(seed)
    plan = []
    for _ in range(count):
        offset = rng.randrange(0, SIZE - 1)
        length = rng.randrange(1, 12_000)
        plan.append((offset, min(length, SIZE - offset)))
    return plan


def check_version_purity(plan, outcomes):
    """Each success is a pure v1 or v2 slice; after the first v2 read
    nothing regresses to v1."""
    v1, v2 = body(1), body(2)
    seen_v2 = False
    for (offset, length), got in zip(plan, outcomes):
        if got == "error":
            continue
        want1 = v1[offset : offset + length]
        want2 = v2[offset : offset + length]
        assert got in (want1, want2), (offset, length)
        if got == want2:
            seen_v2 = True
        elif seen_v2:
            raise AssertionError(
                f"regressed to stale v1 bytes at {(offset, length)}"
            )


# --------------------------------------------------------------------
# client page cache
# --------------------------------------------------------------------


def run_client_chaos(chaos_seed, faults):
    """Fresh world, seeded schedule, an update mid-run; returns the
    outcome sequence ("error" where the read exhausted retries)."""
    client, app, store, _ = davix_world(
        faults=faults,
        params=RequestParams(
            retry_policy=POLICY,
            transfer=TransferConfig(
                page_cache_bytes=1 << 20, page_size=PAGE
            ),
        ),
    )
    plan = read_plan(chaos_seed)
    store.put("/x", body(1))
    outcomes = []
    for i, (offset, length) in enumerate(plan):
        if i == len(plan) // 2:
            store.put("/x", body(2))  # new etag mid-schedule
        try:
            outcomes.append(client.pread("http://server/x", offset, length))
        except RequestError:
            outcomes.append("error")
    return outcomes, client


def test_client_cache_chaos_serves_pure_versions(chaos_seed):
    faults = FaultPolicy(
        error_rate=0.15, reset_rate=0.08, seed=chaos_seed
    )
    outcomes, client = run_client_chaos(chaos_seed, faults)
    check_version_purity(read_plan(chaos_seed), outcomes)
    stats = client.context.page_cache.stats
    # The schedule actually exercised the cache and the update was
    # observed (stale pages dropped, not served).
    assert stats["hits"] + stats["partial_hits"] >= 1
    assert stats["invalidations"] >= 1


def test_client_cache_chaos_is_deterministic(chaos_seed):
    faults = FaultPolicy(
        error_rate=0.2, reset_rate=0.05, seed=chaos_seed
    )
    first, first_client = run_client_chaos(chaos_seed, faults)
    faults.reset()
    second, second_client = run_client_chaos(chaos_seed, faults)
    assert first == second
    assert (
        first_client.context.page_cache.stats
        == second_client.context.page_cache.stats
    )


def test_client_cache_fault_during_invalidating_fetch():
    """The wire trip that would reveal the new ETag fails first; after
    retries succeed, the stale pages are dropped — never blended into
    a response."""
    faults = ScriptedFaults(errors(1))
    client, app, store, _ = davix_world(
        faults=faults,
        params=RequestParams(
            retry_policy=POLICY,
            transfer=TransferConfig(
                page_cache_bytes=1 << 20, page_size=PAGE
            ),
        ),
    )
    store.put("/x", body(1))
    # Warm the first pages, then update behind the cache's back.
    assert client.pread("http://server/x", 0, 3 * PAGE) == body(1)[: 3 * PAGE]
    store.put("/x", body(2))
    # Cold span: the gap fetch eats the scripted 503, retries, and the
    # successful attempt reveals the new ETag.
    offset = 10 * PAGE
    assert (
        client.pread("http://server/x", offset, PAGE)
        == body(2)[offset : offset + PAGE]
    )
    assert faults.injected["error"] == 1
    cache = client.context.page_cache
    assert cache.stats["invalidations"] == 1
    # The formerly-cached span now serves the new version.
    assert client.pread("http://server/x", 0, 3 * PAGE) == body(2)[: 3 * PAGE]


# --------------------------------------------------------------------
# caching proxy
# --------------------------------------------------------------------


def run_proxy_chaos(chaos_seed, faults):
    """client -- proxy -- faulty origin, ``default_ttl=0`` so every
    serve revalidates (maximum origin contact under chaos)."""
    env = Environment()
    net = Network(env, seed=chaos_seed)
    for host in ("client", "proxy", "origin"):
        net.add_host(host)
    net.set_route(
        "client", "proxy", LinkSpec(latency=0.0005, bandwidth=1e9)
    )
    net.set_route(
        "proxy", "origin", LinkSpec(latency=0.02, bandwidth=1e8)
    )
    store = ObjectStore()
    origin = StorageApp(store, faults=faults)
    HttpServer(SimRuntime(net, "origin"), origin, port=80).start()
    proxy = ProxyApp(
        cache_bytes=32 << 20, default_ttl=0.0, page_size=PAGE
    )
    proxy_rt = SimRuntime(net, "proxy")
    proxy.tracer = Tracer(clock=proxy_rt.now)
    HttpServer(proxy_rt, proxy, port=3128).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(
            proxy="http://proxy:3128", retry_policy=POLICY
        ),
    )
    plan = read_plan(chaos_seed)
    store.put("/x", body(1))
    outcomes = []
    for i, (offset, length) in enumerate(plan):
        if i == len(plan) // 2:
            store.put("/x", body(2))
        try:
            outcomes.append(client.pread("http://origin/x", offset, length))
        except RequestError:
            outcomes.append("error")
    return outcomes, proxy


def test_proxy_chaos_serves_pure_versions(chaos_seed):
    """Faults during revalidation and mid-gap-fetch never make the
    proxy mix versions or resurrect invalidated pages."""
    faults = FaultPolicy(
        error_rate=0.15, reset_rate=0.08, seed=chaos_seed
    )
    outcomes, proxy = run_proxy_chaos(chaos_seed, faults)
    check_version_purity(read_plan(chaos_seed), outcomes)
    assert proxy.requests_handled >= len(read_plan(chaos_seed))
    # Revalidation (ttl=0) really happened under fire.
    served = proxy_outcomes(proxy)
    assert (
        served["HIT"] + served["STALE"] + served["REVALIDATED"]
        + served["PARTIAL"]
        >= 1
    )


def test_proxy_chaos_is_deterministic(chaos_seed):
    faults = FaultPolicy(
        error_rate=0.2, reset_rate=0.05, seed=chaos_seed
    )
    first, first_proxy = run_proxy_chaos(chaos_seed, faults)
    faults.reset()
    second, second_proxy = run_proxy_chaos(chaos_seed, faults)
    assert first == second
    assert proxy_tally(first_proxy) == proxy_tally(second_proxy)


def proxy_tally(proxy):
    """What the proxy counted: requests routed, served requests per
    outcome and the bytes they took from the page store, and the page
    store's own counters."""
    rows = request_events(proxy.tracer.finished())
    return (
        proxy.requests_handled,
        proxy_outcomes(proxy),
        sum(row.get("from_cache_bytes", 0) for row in rows),
        proxy.pages.stats,
    )
