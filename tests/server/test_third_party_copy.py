"""HTTP third-party copy: storage nodes move objects site-to-site.

Pull mode (COPY to the destination with a ``Source`` header) and push
mode (COPY to the source with an absolute ``Destination``) both answer
202 with a perf-marker stream; the orchestrating client only carries
control traffic.
"""

import pytest

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.core.tpc import (
    PerfMarker,
    format_marker_stream,
    parse_marker_stream,
)
from repro.errors import DavixError
from repro.http import Headers, Request
from repro.net import LinkSpec, Network
from repro.obs import EventLog, MetricsRegistry, Tracer
from repro.server import HttpServer, ObjectStore, ServerConfig, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY


def tpc_world(server_config=None, observe=False, tracer=None):
    """client + two storage sites; sites can reach each other."""
    env = Environment()
    net = Network(env, seed=2)
    for name in ("client", "site-a", "site-b"):
        net.add_host(name)
    fast = LinkSpec(latency=0.005, bandwidth=125_000_000)
    slow = LinkSpec(latency=0.05, bandwidth=2_000_000)  # thin client link
    net.set_route("client", "site-a", slow)
    net.set_route("client", "site-b", slow)
    net.set_route("site-a", "site-b", fast)

    apps = {}
    for name in ("site-a", "site-b"):
        store = ObjectStore()
        app = StorageApp(store, config=server_config)
        if observe:
            app.metrics = MetricsRegistry()
            app.events = EventLog()
        runtime = SimRuntime(net, name)
        if tracer is not None:
            app.tracer = Tracer(clock=runtime.now)
        HttpServer(runtime, app, port=80).start()
        apps[name] = app
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(retry_policy=NO_RETRY),
        tracer=tracer,
    )
    return client, net, apps


def tpc_request(path, source):
    return Request(
        "COPY", path, Headers([("Source", source)])
    )


def run_copy(client, destination_host, path, source):
    from repro.core.request import execute_request
    from repro.http import Url

    url = Url.parse(f"http://{destination_host}{path}")

    def op():
        response, _ = yield from execute_request(
            client.context, url, tpc_request(path, source),
            client.context.params,
        )
        return response

    return client.runtime.run(op())


def test_third_party_copy_moves_data_site_to_site():
    client, net, apps = tpc_world()
    payload = bytes(range(256)) * 4000  # ~1 MB
    apps["site-a"].store.put("/data/src.bin", payload)

    response = run_copy(
        client, "site-b", "/data/dst.bin", "http://site-a/data/src.bin"
    )
    assert response.status == 202
    summary = parse_marker_stream(response.body)
    assert summary.ok
    assert summary.bytes_transferred == len(payload)
    assert apps["site-b"].store.read("/data/dst.bin") == payload


def test_third_party_copy_multi_stream_chunks():
    config = ServerConfig(tpc_chunk=256 * 1024, tpc_streams=4)
    client, net, apps = tpc_world(server_config=config)
    payload = bytes(range(256)) * 4000  # ~1 MB -> 4 chunks
    apps["site-a"].store.put("/data/src.bin", payload)

    response = run_copy(
        client, "site-b", "/data/dst.bin", "http://site-a/data/src.bin"
    )
    summary = parse_marker_stream(response.body)
    assert summary.ok
    assert len(summary.markers) == 4  # one frame per chunk
    assert all(m.stripe_count == 4 for m in summary.markers)
    # Cumulative byte counts are monotone and end at the full size.
    counts = [m.bytes_transferred for m in summary.markers]
    assert counts == sorted(counts)
    assert counts[-1] == len(payload)
    assert apps["site-b"].store.read("/data/dst.bin") == payload


def test_third_party_copy_bypasses_client_link():
    # 1 MB over the 2 MB/s client link would take ~0.5 s each way; the
    # site-to-site path does it in ~0.01 s. The COPY must complete in
    # far less time than a relay through the client would need.
    client, net, apps = tpc_world()
    payload = b"x" * 1_000_000
    apps["site-a"].store.put("/src", payload)
    start = client.runtime.now()
    response = run_copy(client, "site-b", "/dst", "http://site-a/src")
    elapsed = client.runtime.now() - start
    assert response.status == 202
    assert parse_marker_stream(response.body).ok
    assert elapsed < 0.5  # relay via client would be ~1 s
    client_bytes = (
        net.host("client").uplink.bytes_carried
        + net.host("client").downlink.bytes_carried
    )
    assert client_bytes < 10_000  # only control traffic crossed


def test_third_party_copy_missing_source_is_502():
    client, net, apps = tpc_world()
    response = run_copy(
        client, "site-b", "/dst", "http://site-a/nope"
    )
    assert response.status == 502
    assert b"third-party copy failed" in response.body
    assert not apps["site-b"].store.exists("/dst")


def test_third_party_copy_source_host_down_is_502():
    client, net, apps = tpc_world()
    apps["site-a"].store.put("/src", b"data")
    net.host("site-a").fail()
    response = run_copy(client, "site-b", "/dst", "http://site-a/src")
    assert response.status == 502


def test_local_copy_still_works_without_source_header():
    client, net, apps = tpc_world()
    apps["site-b"].store.put("/a", b"local")
    client.copy("http://site-b/a", "http://site-b/b")
    assert apps["site-b"].store.read("/b") == b"local"


def test_client_third_party_copy_pull():
    client, net, apps = tpc_world()
    payload = b"payload-" * 1000
    apps["site-a"].store.put("/src", payload)
    summary = client.third_party_copy(
        "http://site-a/src", "http://site-b/dst"
    )
    assert summary.ok
    assert summary.bytes_transferred == len(payload)
    assert apps["site-b"].store.read("/dst") == payload


def test_client_third_party_copy_push():
    client, net, apps = tpc_world()
    payload = b"pushed-" * 2000
    apps["site-a"].store.put("/src", payload)
    summary = client.third_party_copy(
        "http://site-a/src", "http://site-b/dst", mode="push"
    )
    assert summary.ok
    assert apps["site-b"].store.read("/dst") == payload


def test_push_missing_source_is_404():
    client, net, apps = tpc_world()
    with pytest.raises(DavixError) as excinfo:
        client.third_party_copy(
            "http://site-a/nope", "http://site-b/dst", mode="push"
        )
    assert excinfo.value.status == 404


def test_streams_header_caps_at_server_limit():
    config = ServerConfig(tpc_chunk=64 * 1024, tpc_max_streams=3)
    client, net, apps = tpc_world(server_config=config)
    payload = b"s" * (8 * 64 * 1024)  # 8 chunks
    apps["site-a"].store.put("/src", payload)
    summary = client.third_party_copy(
        "http://site-a/src", "http://site-b/dst", streams=16
    )
    assert summary.ok
    # Requested 16 streams, the server clamps to its configured max.
    assert all(m.stripe_count == 3 for m in summary.markers)
    assert apps["site-b"].store.read("/dst") == payload


def test_pull_digest_mismatch_never_reports_success():
    client, net, apps = tpc_world(observe=True)
    payload = b"honest bytes" * 100
    obj = apps["site-a"].store.put("/src", payload)
    # Poison the advertised checksum: the wire bytes are fine but the
    # end-to-end Digest comparison must fail and nothing may commit.
    obj._checksums["adler32"] = "deadbeef"
    with pytest.raises(DavixError) as excinfo:
        client.third_party_copy("http://site-a/src", "http://site-b/dst")
    assert "digest mismatch" in str(excinfo.value)
    assert not apps["site-b"].store.exists("/dst")
    mismatches = apps["site-b"].metrics.counter(
        "tpc.digest_mismatch_total"
    )
    assert mismatches.value == 1


def test_zero_length_object_copies_both_modes():
    client, net, apps = tpc_world()
    apps["site-a"].store.put("/empty", b"")
    pulled = client.third_party_copy(
        "http://site-a/empty", "http://site-b/pulled"
    )
    assert pulled.ok
    assert apps["site-b"].store.read("/pulled") == b""
    pushed = client.third_party_copy(
        "http://site-a/empty", "http://site-b/pushed", mode="push"
    )
    assert pushed.ok
    assert apps["site-b"].store.read("/pushed") == b""


def test_tpc_metrics_and_events():
    client, net, apps = tpc_world(observe=True)
    payload = b"m" * 500_000
    apps["site-a"].store.put("/src", payload)
    client.third_party_copy("http://site-a/src", "http://site-b/dst")
    metrics = apps["site-b"].metrics
    assert metrics.counter(
        "tpc.transfers_total", mode="pull"
    ).value == 1
    assert metrics.counter(
        "tpc.bytes_total", mode="pull"
    ).value == len(payload)
    events = [
        e for e in apps["site-b"].events.records() if e["kind"] == "tpc"
    ]
    assert len(events) == 1
    assert events[0]["ok"] is True
    assert events[0]["bytes"] == len(payload)
    assert events[0]["throughput"] > 0


def test_chunk_exhausting_its_retries_leaves_no_span_open():
    from repro.http import Response
    from repro.server import ServedResponse

    client, net, apps = tpc_world(observe=True, tracer=Tracer())
    source, destination = apps["site-a"], apps["site-b"]
    source.store.put("/src", b"x" * 1000)
    healthy = source.handle

    def ranged_reads_fail(request):
        if request.method == "GET":
            return ServedResponse(Response(503))
        return healthy(request)

    source.handle = ranged_reads_fail
    # One request per attempt, so the breaker (5 in a row) stays shut.
    destination.tpc_params = RequestParams(retry_policy=NO_RETRY)
    with pytest.raises(DavixError, match="chunk 0 at offset 0: HTTP 503"):
        client.third_party_copy("http://site-a/src", "http://site-b/dst")
    # chunk_retries=2: three attempts, each its own finished span.
    chunk_spans = destination.tracer.by_name("tpc-chunk")
    assert [span.attrs["status"] for span in chunk_spans] == [503] * 3
    assert destination.metrics.value("tpc.stream_retries_total") == 3
    assert destination.tracer.by_name("tpc-transfer")[0].attrs["error"]
    assert destination.tracer.current is None  # nothing left open
    assert not destination.store.exists("/dst")


def test_transfer_span_joins_client_trace():
    tracer = Tracer()
    client, net, apps = tpc_world(tracer=tracer)
    apps["site-a"].store.put("/src", b"traced")
    with client.span("replicate") as root:
        client.third_party_copy("http://site-a/src", "http://site-b/dst")
    transfer_spans = apps["site-b"].tracer.by_name("tpc-transfer")
    assert len(transfer_spans) == 1
    # The destination server's transfer span carries the client's
    # trace id: one story across both processes.
    assert transfer_spans[0].trace_id == root.trace_id
    assert apps["site-b"].tracer.by_name("tpc-chunk")


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_a_marker_stream_parses_from_any_bytes_like_body(wrap):
    """A received body may be the ``bytearray`` it was received into."""
    stream = format_marker_stream(
        [PerfMarker(1.5, 0, 1, 4096)], "success: Created"
    )
    summary = parse_marker_stream(wrap(stream))
    assert summary == parse_marker_stream(stream.decode("utf-8"))
    assert summary.ok
    assert summary.bytes_transferred == 4096
