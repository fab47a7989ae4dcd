"""Cluster telemetry plane, end to end.

The ISSUE acceptance scenario: an analysis-style read mix runs
client -> caching proxy -> origin while a third-party copy moves the
same object origin -> mirror, with every node shipping spans and
metric snapshots into one :class:`TelemetryCollector`
(the client's batch arrives over HTTP through the mounted
``POST /v1/telemetry`` endpoint). The assembled artifact must satisfy:

* every trace is a single tree — no orphan spans;
* the critical path partitions each root span *exactly* (Fraction
  arithmetic, ``==`` not ``pytest.approx``);
* the byte-provenance ledger accounts for every delivered byte across
  page-cache / proxy-cache / origin / TPC sources;
* two seeded repeats produce byte-identical JSONL.
"""

from fractions import Fraction

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams, TransferConfig
from repro.core.context import Context
from repro.net import LinkSpec, Network
from repro.obs import Tracer
from repro.obs.analyze import (
    assemble_traces,
    byte_provenance,
    critical_path,
)
from repro.obs.collector import (
    TelemetryCollector,
    TelemetrySink,
    push_telemetry,
)
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment

from tests.helpers import NO_RETRY

PAYLOAD = bytes(range(256)) * 512  # 128 KiB, two 64 KiB pages
URL = "http://origin/data/obj.bin"


def instrumented_storage(net, host, store, collector=None):
    """A StorageApp shipping node-namespaced spans to a sink."""
    runtime = SimRuntime(net, host)
    sink = TelemetrySink(host, clock=runtime.now)
    config = (
        ServerConfig(collector=collector)
        if collector is not None
        else None
    )
    app = StorageApp(store, config=config)
    app.tracer = Tracer(clock=runtime.now, node=host)
    app.tracer.sink = sink.record_span
    HttpServer(runtime, app, port=80).start()
    return app, sink


def run_campaign(seed=12):
    """One full campaign; returns (collector, ledger facts)."""
    env = Environment()
    net = Network(env, seed=seed)
    for name in ("client", "proxy", "origin", "mirror"):
        net.add_host(name)
    lan = LinkSpec(latency=0.001, bandwidth=125_000_000)
    wan = LinkSpec(latency=0.08, bandwidth=12_500_000)
    net.set_route("client", "proxy", lan)
    net.set_route("proxy", "origin", wan)
    net.set_route("client", "origin", wan)
    net.set_route("client", "mirror", wan)
    net.set_route("origin", "mirror", lan)

    collector = TelemetryCollector()

    origin_store = ObjectStore()
    origin_store.put("/data/obj.bin", PAYLOAD)
    # The collector is mounted on the origin: POST /v1/telemetry lands
    # batches directly in it.
    _, origin_sink = instrumented_storage(
        net, "origin", origin_store, collector=collector
    )
    mirror_app, mirror_sink = instrumented_storage(
        net, "mirror", ObjectStore()
    )

    proxy_rt = SimRuntime(net, "proxy")
    proxy_ctx = Context(telemetry=TelemetrySink("proxy"))
    proxy_ctx.clock = proxy_rt.now
    HttpServer(proxy_rt, ProxyApp(context=proxy_ctx), port=3128).start()

    def make_client(node):
        runtime = SimRuntime(net, "client")
        context = Context(
            params=RequestParams(
                proxy="http://proxy:3128",
                retry_policy=NO_RETRY,
                transfer=TransferConfig(page_cache_bytes=1 << 20),
            ),
            telemetry=TelemetrySink(node),
        )
        context.clock = runtime.now
        return DavixClient(runtime, context=context)

    client = make_client("client")
    warm = make_client("client-b")

    delivered = 0
    # Cold read via the proxy: proxy MISS -> origin; charged network.
    delivered += len(client.pread(URL, 0, 65536))
    # Same span again: the client page cache serves it locally.
    delivered += len(client.pread(URL, 0, 65536))
    # A second client (cold page cache) straddles the proxy's cached
    # page and an uncached one: proxy partial hit + gap fetch.
    delivered += len(warm.pread(URL, 32768, 65536))
    # Third-party copy origin -> mirror (control channel only on the
    # client; no proxy on the COPY leg).
    summary = client.third_party_copy(
        URL,
        "http://mirror/data/copy.bin",
        mode="pull",
        params=RequestParams(retry_policy=NO_RETRY),
    )
    assert summary.ok

    # The client's backlog travels over HTTP into the mounted
    # collector endpoint; everything else flushes in-process.
    response = client.runtime.run(
        push_telemetry(
            client.context, "http://origin/v1/telemetry",
            client.context.telemetry,
        )
    )
    assert response.status == 204
    client.context.flush_telemetry(target=collector)
    warm.context.flush_telemetry(target=collector)
    proxy_ctx.flush_telemetry(target=collector)
    origin_sink.flush(target=collector)
    mirror_sink.flush(target=collector)
    return collector, delivered


def test_assembled_traces_are_single_trees_without_orphans():
    collector, _ = run_campaign()
    assert set(collector.nodes()) == {
        "client", "client-b", "proxy", "origin", "mirror"
    }
    # One HTTP push + five in-process flushes.
    assert collector.batches == 6
    assert collector.dropped == 0
    trees = assemble_traces(collector.records())
    assert trees
    for tree in trees:
        assert tree.is_single_tree
        assert not tree.orphans
    # The read path joins client, proxy and origin in one trace.
    joined = {
        frozenset(span.node for span in tree.spans) for tree in trees
    }
    assert frozenset({"client", "proxy", "origin"}) in joined
    # The COPY trace joins the client and the mirror (active party).
    assert any(
        {"client", "mirror"} <= nodes for nodes in joined
    )


def test_critical_path_partitions_each_root_exactly():
    collector, _ = run_campaign()
    trees = assemble_traces(collector.records())
    for tree in trees:
        path = critical_path(tree)
        assert isinstance(path.total, Fraction)
        # Exact identity, not approx: the interval partition
        # telescopes to the root duration.
        assert path.total == path.root_duration
        for _, _, seconds in path.seconds():
            assert seconds >= 0.0


def test_byte_provenance_accounts_for_every_delivered_byte():
    collector, delivered = run_campaign()
    ledger = byte_provenance(collector.records())
    # Client-side identity: each delivered byte charged to exactly
    # one of page-cache / network.
    assert ledger.page_cache + ledger.network == delivered
    # Network refinement + TPC: totals hold exactly.
    assert ledger.proxy_cache + ledger.origin == ledger.network
    assert ledger.tpc == len(PAYLOAD)
    assert ledger.total == delivered + len(PAYLOAD)
    # Every provenance source actually fired in this campaign.
    assert ledger.page_cache == 65536  # the warm re-read
    assert ledger.proxy_cache > 0  # proxy partial hit
    assert ledger.origin > 0  # cold fetch + gap fill
    assert ledger.proxy_served >= ledger.proxy_from_cache > 0


def test_artifact_is_byte_identical_across_seeded_repeats():
    first, _ = run_campaign(seed=12)
    second, _ = run_campaign(seed=12)
    artifact = first.to_json_lines()
    assert artifact
    assert len(artifact.splitlines()) == len(first)
    assert artifact == second.to_json_lines()
