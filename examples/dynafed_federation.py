"""A DynaFed-style federation front end (paper Section 2.4).

One data-less federator aggregates three storage sites under a single
namespace. Clients GET through the federator and are redirected to a
replica (round-robin); asking for a Metalink instead returns the whole
replica set, which davix's fail-over and multi-stream strategies
consume. "The combined usage of libdavix ... with a ... federation
system ... enforces the global resilience of the I/O layer."

Run: ``python examples/dynafed_federation.py``
"""

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, RetryPolicy
from repro.net import LinkSpec, Network
from repro.server import (
    FederationApp,
    HttpServer,
    ObjectStore,
    StorageApp,
    SyntheticContent,
)
from repro.sim import Environment

NO_RETRY = RetryPolicy(max_attempts=1)

PATH = "/fed/atlas/dataset042.root"
SIZE = 8_000_000
SITES = ("cern", "glasgow", "bnl")


def main() -> None:
    env = Environment()
    net = Network(env, seed=4)
    net.add_host("client")
    net.add_host("dynafed")
    net.set_route(
        "client", "dynafed", LinkSpec(latency=0.002, bandwidth=1e9)
    )

    content = SyntheticContent(SIZE, seed=11)
    site_urls = []
    for site in SITES:
        net.add_host(site)
        net.set_route(
            "client", site, LinkSpec(latency=0.02, bandwidth=62_500_000)
        )
        store = ObjectStore()
        store.put(PATH, content)
        HttpServer(SimRuntime(net, site), StorageApp(store), port=80).start()
        site_urls.append(f"http://{site}{PATH}")

    federator = FederationApp()
    federator.register(
        PATH,
        site_urls,
        size=SIZE,
        adler32=content.adler32(),
    )
    HttpServer(SimRuntime(net, "dynafed"), federator, port=80).start()

    client = DavixClient(
        SimRuntime(net, "client"), params=RequestParams(retry_policy=NO_RETRY)
    )
    fed_url = f"http://dynafed{PATH}"

    # Plain GETs follow the federator's redirect (round-robin).
    for _ in range(3):
        data = client.get(fed_url)
        assert len(data) == SIZE
    redirects = client.metrics().value("client.redirects_followed_total")
    print(f"3 federated GETs ok; redirects followed: {int(redirects)}")

    # The Metalink view of the same namespace entry.
    metalink = client.get_metalink(fed_url)
    entry = metalink.single()
    print(f"metalink for {entry.name}: size={entry.size}")
    for url in entry.ordered_urls():
        print(f"    priority {url.priority}: {url.url}")

    # Multi-stream through the federation: chunks from all 3 sites,
    # verified against the federator's adler32.
    result = client.get_multistream(
        fed_url,
        params=client.context.params.replace(multistream_chunk=1_000_000),
        metalink_url=fed_url,
    )
    print(
        f"multi-stream via federation: {result.size / 1e6:.0f} MB from "
        f"{len(result.streams)} sites, checksum verified:"
    )
    for host, nbytes in sorted(result.bytes_by_host().items()):
        print(f"    {host}: {nbytes / 1e6:.1f} MB")

    # Kill the first two sites: fail-over through the federation still
    # succeeds.
    net.host("cern").fail()
    net.host("glasgow").fail()
    data = client.get_with_failover(site_urls[0], metalink_url=fed_url)
    assert len(data) == SIZE
    print("2 of 3 sites down -> fail-over via federation metalink: ok")


if __name__ == "__main__":
    main()
