"""Chaos sweep for third-party copies.

Stream faults mid-transfer must either be retried to a successful,
byte-correct copy or surface as a *failed* COPY — a digest mismatch is
never reported as success and never commits bytes. Every scenario is
seeded, so repeated identical runs produce byte-identical transfers
down to the perf-marker stream itself.
"""

import pytest

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.errors import DavixError
from repro.core.request import execute_request
from repro.core.tpc import parse_marker_stream
from repro.http import Headers, Request, Url
from repro.net import LinkSpec, Network
from repro.obs import MetricsRegistry
from repro.server import (
    FaultPolicy,
    HttpServer,
    ObjectStore,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment

from tests.resilience.conftest import ScriptedFaults, errors

from tests.helpers import NO_RETRY

CONFIG = ServerConfig(tpc_chunk=64 * 1024, tpc_streams=4)
PAYLOAD = bytes((i * 53 + 29) % 256 for i in range(300 * 1024))


def tpc_world(seed, source_faults=None):
    env = Environment()
    net = Network(env, seed=seed)
    for name in ("client", "site-a", "site-b"):
        net.add_host(name)
    fast = LinkSpec(latency=0.005, bandwidth=125_000_000)
    slow = LinkSpec(latency=0.05, bandwidth=2_000_000)
    net.set_route("client", "site-a", slow)
    net.set_route("client", "site-b", slow)
    net.set_route("site-a", "site-b", fast)

    apps = {}
    for name in ("site-a", "site-b"):
        faults = source_faults if name == "site-a" else None
        app = StorageApp(ObjectStore(), config=CONFIG, faults=faults)
        app.metrics = MetricsRegistry()
        # No transport-level retries: every chunk fault must surface
        # to (and be absorbed by) the TPC stream retry loop.
        app.tpc_params = RequestParams(retry_policy=NO_RETRY)
        HttpServer(SimRuntime(net, name), app, port=80).start()
        apps[name] = app
    apps["site-a"].store.put("/data/src.bin", PAYLOAD)
    client = DavixClient(
        SimRuntime(net, "client"), params=RequestParams(retry_policy=NO_RETRY)
    )
    return client, apps


def raw_copy(client, streams=4):
    """The COPY response verbatim — marker stream body included."""
    url = Url.parse("http://site-b/data/dst.bin")
    request = Request(
        "COPY",
        "/data/dst.bin",
        Headers(
            [
                ("Source", "http://site-a/data/src.bin"),
                ("X-Number-Of-Streams", str(streams)),
            ]
        ),
    )

    def op():
        response, _ = yield from execute_request(
            client.context, url, request, client.context.params
        )
        return response

    return client.runtime.run(op())


def test_scripted_chunk_faults_are_retried(chaos_seed):
    # HEAD serves clean, then exactly two chunk GETs 503: both must be
    # retried within their stream and the copy still succeed.
    faults = ScriptedFaults([None] + errors(2))
    client, apps = tpc_world(chaos_seed, source_faults=faults)

    summary = client.third_party_copy(
        "http://site-a/data/src.bin", "http://site-b/data/dst.bin"
    )
    assert summary.ok
    assert faults.injected["error"] == 2
    assert apps["site-b"].store.read("/data/dst.bin") == PAYLOAD
    retries = apps["site-b"].metrics.counter("tpc.stream_retries_total")
    assert retries.value == 2


def test_random_faults_never_corrupt_the_copy(chaos_seed):
    # Probabilistic 503s on the source: the copy either retries its way
    # to a byte-correct object or fails without committing anything.
    client, apps = tpc_world(
        chaos_seed,
        source_faults=FaultPolicy(error_rate=0.15, seed=chaos_seed),
    )
    try:
        summary = client.third_party_copy(
            "http://site-a/data/src.bin", "http://site-b/data/dst.bin"
        )
    except DavixError:
        assert not apps["site-b"].store.exists("/data/dst.bin")
    else:
        assert summary.ok
        assert apps["site-b"].store.read("/data/dst.bin") == PAYLOAD


def test_digest_mismatch_is_never_reported_as_success(chaos_seed):
    client, apps = tpc_world(chaos_seed)
    source = apps["site-a"].store._objects["/data/src.bin"]
    source._checksums["adler32"] = "deadbeef"  # poison the digest

    with pytest.raises(DavixError) as excinfo:
        client.third_party_copy(
            "http://site-a/data/src.bin", "http://site-b/data/dst.bin"
        )
    assert "digest mismatch" in str(excinfo.value)
    assert not apps["site-b"].store.exists("/data/dst.bin")
    mismatches = apps["site-b"].metrics.counter(
        "tpc.digest_mismatch_total"
    )
    assert mismatches.value == 1


def test_repeated_runs_are_byte_identical(chaos_seed):
    # Same seed, same fault schedule: the committed object AND the
    # perf-marker stream on the wire are byte-for-byte identical.
    def one_run():
        client, apps = tpc_world(
            chaos_seed,
            source_faults=FaultPolicy(error_rate=0.05, seed=chaos_seed),
        )
        response = raw_copy(client)
        committed = (
            apps["site-b"].store.read("/data/dst.bin")
            if apps["site-b"].store.exists("/data/dst.bin")
            else None
        )
        return response.status, bytes(response.body), committed

    first, second = one_run(), one_run()
    assert first == second
    status, body, committed = first
    assert status == 202
    summary = parse_marker_stream(body)
    if summary.ok:
        assert committed == PAYLOAD
    else:
        assert committed is None
