"""The redesigned instrumentation-aware public API.

Covers the composition root (Context(params=…, metrics=…, tracer=…)),
the typed PoolStats snapshot plus its deprecation shim, the
RequestParams.replace/per-call-override plumbing, the DavixClient
accessors, and the ``davix-tool stats`` subcommand.
"""

import io

import pytest

from repro.core import Context, DavixClient, PoolStats, RequestParams
from repro.core.pool import SessionPool
from repro.obs import MetricsRegistry, Tracer
from tests.helpers import davix_world


# -- Context composition root -------------------------------------------------


def test_context_owns_registry_and_tracer_by_default():
    context = Context()
    assert isinstance(context.metrics, MetricsRegistry)
    assert isinstance(context.tracer, Tracer)
    # The pool records into the same registry.
    assert context.pool.metrics is context.metrics


def test_context_accepts_injected_registry_and_tracer():
    registry = MetricsRegistry()
    tracer = Tracer()
    context = Context(metrics=registry, tracer=tracer)
    assert context.metrics is registry
    assert context.tracer is tracer
    assert context.pool.metrics is registry


def test_client_rejects_context_plus_metrics():
    from repro.concurrency import ThreadRuntime

    with pytest.raises(ValueError, match="not both"):
        DavixClient(
            ThreadRuntime(), context=Context(), metrics=MetricsRegistry()
        )


def test_client_accessors():
    client, _, store, _ = davix_world()
    assert client.metrics() is client.context.metrics
    assert client.tracer() is client.context.tracer
    assert isinstance(client.pool_stats(), PoolStats)
    store.put("/obj", b"a")
    with client.span("application-step") as span:
        client.get("http://server/obj")
    (request,) = client.tracer().by_name("request")
    assert request.parent_id == span.span_id


def test_tracer_clock_follows_runtime():
    client, _, store, _ = davix_world(latency=0.005)
    store.put("/obj", b"t" * 64)
    client.get("http://server/obj")
    (request,) = client.tracer().by_name("request")
    # Simulated timestamps, not wall-clock zeros.
    assert request.end_time == pytest.approx(
        client.runtime.now(), abs=1.0
    )
    assert request.duration >= 0.005


# -- PoolStats and the deprecation shim ---------------------------------------


def test_pool_stats_callable_returns_frozen_snapshot():
    pool = SessionPool()
    stats = pool.stats()
    assert stats == PoolStats()
    assert stats.acquires == 0
    assert stats.hit_rate == 0.0
    with pytest.raises(AttributeError):
        stats.hits = 5
    pool.acquire(("http", "x", 80))
    assert pool.stats().misses == 1


def test_pool_stats_dict_shim_is_gone():
    # The PR-1 deprecation shim was removed after its one-release
    # grace period: ``pool.stats`` is a plain bound method now.
    pool = SessionPool()
    pool.acquire(("http", "x", 80))
    with pytest.raises(TypeError):
        pool.stats["misses"]  # noqa: B018 - asserting the shim is gone
    assert pool.stats() == PoolStats(misses=1)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pool.stats() == pool.stats()


def test_hit_rate_property():
    stats = PoolStats(hits=3, misses=1)
    assert stats.acquires == 4
    assert stats.hit_rate == pytest.approx(0.75)


# -- RequestParams.replace and per-call overrides -----------------------------


def test_request_params_replace():
    params = RequestParams(vector_gap=2, keep_alive=True)
    updated = params.replace(vector_gap=5)
    assert updated.vector_gap == 5
    assert updated.keep_alive is True
    assert params.vector_gap == 2  # original untouched


def test_request_params_replace_rejects_unknown_field():
    with pytest.raises(TypeError):
        RequestParams().replace(no_such_field=1)


def test_resolve_params_defaults_overrides_and_bundles():
    client, _, _, _ = davix_world(params=RequestParams(vector_gap=3))
    assert client._resolve_params() is client.context.params

    override = client._resolve_params(vector_gap=9)
    assert override.vector_gap == 9
    assert client.context.params.vector_gap == 3

    bundle = RequestParams(vector_gap=1)
    assert client._resolve_params(bundle) is bundle
    assert client._resolve_params(bundle, vector_gap=4).vector_gap == 4


def test_per_call_params_do_not_leak():
    client, app, store, _ = davix_world()
    store.put("/obj", b"p" * 16)
    client.get(
        "http://server/obj", params=RequestParams(keep_alive=False)
    )
    client.get("http://server/obj")
    assert client.context.params.keep_alive is True


# -- davix-tool stats ---------------------------------------------------------


def _run_stats(argv):
    from repro.cli import COMMANDS, build_parser

    args = build_parser().parse_args(argv)
    out = io.StringIO()
    code = COMMANDS[args.command](args, out=out)
    return code, out.getvalue()


def test_cli_stats_sim_demo_renders_registry():
    code, output = _run_stats(["stats"])
    assert code == 0
    assert "simulated demo" in output
    assert "client.requests_total" in output
    assert "pool.acquire_total{outcome=hit}" in output
    assert "session.connect_seconds" in output
    assert "vector.round_trips_total" in output
    assert "hit rate" in output


def test_cli_stats_json_and_trace():
    import json

    code, output = _run_stats(["stats", "--json", "--trace"])
    assert code == 0
    records = [
        json.loads(line) for line in output.splitlines() if line.strip()
    ]
    types = {record["type"] for record in records}
    assert {"counter", "histogram", "span"} <= types
    span_names = {
        record["name"] for record in records if record["type"] == "span"
    }
    assert {"request", "tcp-connect", "send", "recv"} <= span_names
    # The collector's wire records: node-tagged, hex IDs.
    span = next(record for record in records if record["type"] == "span")
    assert span["node"] == "client"
    assert len(span["trace"]) == 32 and len(span["span"]) == 16


def test_cli_stats_trace_renders_a_waterfall_per_trace():
    code, output = _run_stats(["stats", "--trace"])
    assert code == 0
    # Five GETs and one vectored read: six traces, no orphans.
    assert output.count("\ntrace ") == 6
    assert "root=pread-vec" in output
    assert "client:request" in output
    assert "orphan" not in output


def test_cli_stats_against_live_server():
    from repro.server import ObjectStore, StorageApp, real_server

    store = ObjectStore()
    store.put("/data/x.bin", b"live" * 64)
    with real_server(StorageApp(store)) as server:
        code, output = _run_stats(
            ["stats", f"http://127.0.0.1:{server.port}/data/x.bin"]
        )
    assert code == 0
    assert "256 bytes" in output
    assert "session.connect_total" in output
