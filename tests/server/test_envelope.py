"""The request envelope every server app shares.

One ``handle()`` — observer bypass, request/response counters, fault
policy, ``StoreError`` -> 409, response stamping — and five apps that
only route. These tests pin what the copies had let drift.
"""

import inspect

import pytest

import repro.server
from repro.http import Request
from repro.obs import MetricsRegistry
from repro.obs.collector import TelemetryCollector
from repro.server import (
    CollectorApp,
    Envelope,
    FaultAction,
    FederationApp,
    FlatObjectApp,
    HttpServer,
    ObjectStore,
    ProxyApp,
    ServerConfig,
    StorageApp,
)
from tests.helpers import get, http_exchange, put, sim_world
from tests.resilience.conftest import ScriptedFaults
from tests.server.test_proxy import proxy_world

BODY = bytes((i * 7 + 3) % 256 for i in range(5_000))

APPS = {
    "storage": lambda config: StorageApp(ObjectStore(), config),
    "flat": lambda config: FlatObjectApp(ObjectStore(), config),
    "proxy": lambda config: ProxyApp(config),
    "federation": lambda config: FederationApp(config),
    "collector": lambda config: CollectorApp(config=config),
}
STORE_BACKED = ("storage", "flat")


def series(registry, name):
    """{label value: count} of one single-label counter family."""
    return {
        instrument.labels[0][1]: instrument.value
        for instrument in registry.series()
        if instrument.name == name
    }


# -- observers --------------------------------------------------------------


@pytest.mark.parametrize("kind", APPS)
def test_observers_never_perturb_what_they_expose(kind):
    config = ServerConfig(
        metrics_path="/metrics", collector=TelemetryCollector()
    )
    app = APPS[kind](config)
    app.metrics = MetricsRegistry()
    app.handle(Request("GET", "/data/blob"))
    assert app.requests_handled == 1

    scrapes = [
        app.handle(Request("GET", "/metrics")).response.body
        for _ in range(3)
    ]
    assert scrapes[0] == scrapes[1] == scrapes[2]
    text = scrapes[0].decode("utf-8")
    assert 'server_requests_total{method="GET"} 1' in text
    assert sum(series(app.metrics, "server.responses_total").values()) == 1

    push = app.handle(Request("POST", "/v1/telemetry", body=b""))
    assert push.response.status == 204
    assert app.requests_handled == 1
    again = app.handle(Request("GET", "/metrics")).response.body
    assert again == scrapes[0]


# -- one series, one stamp --------------------------------------------------


@pytest.fixture(params=STORE_BACKED)
def store_app(request):
    config = ServerConfig(
        server_name="parity/1.0",
        cache_control="max-age=60",
        service_overhead=0.01,
        disk_bandwidth=1e6,
    )
    app = APPS[request.param](config)
    app.metrics = MetricsRegistry()
    app.store.put("/data/blob", BODY)
    return app


def test_store_backed_apps_count_and_stamp_alike(store_app):
    app = store_app
    app.faults = ScriptedFaults(
        [None, None, None, FaultAction("error", status=503)]
    )
    served = [
        app.handle(Request("GET", "/data/blob")),
        app.handle(Request("HEAD", "/data/blob")),
        app.handle(Request("GET", "/missing")),
        app.handle(Request("GET", "/data/blob")),
    ]
    assert [s.response.status for s in served] == [200, 200, 404, 503]
    assert series(app.metrics, "server.requests_total") == {
        "GET": 3,
        "HEAD": 1,
    }
    assert series(app.metrics, "server.responses_total") == {
        "200": 2,
        "404": 1,
        "503": 1,
    }
    for s in served:
        assert s.response.headers.get("Server") == "parity/1.0"
        assert s.service_time == pytest.approx(0.01 + s.body_length / 1e6)
    assert [s.response.headers.get("Cache-Control") for s in served] == [
        "max-age=60",
        "max-age=60",
        None,
        None,
    ]
    assert served[0].body_length == len(BODY)
    assert served[1].body_length == 0


def test_data_less_tiers_answer_unstamped_in_zero_service_time():
    federation = FederationApp()
    federation.register("/f", ["http://site0/f"])
    served = federation.handle(Request("GET", "/f"))
    assert served.response.status == 302
    assert served.response.headers.get("Server") is None
    assert served.service_time == 0.0


def test_deferred_responses_count_the_status_they_resolve_to():
    client, proxy, _origin, store, _net = proxy_world()
    proxy.metrics = MetricsRegistry()
    store.put("/blob", BODY)
    assert client.get("http://origin/blob") == BODY
    assert client.get("http://origin/blob") == BODY
    assert series(proxy.metrics, "server.requests_total") == {"GET": 2}
    assert series(proxy.metrics, "server.responses_total") == {"200": 2}
    assert proxy.requests_handled == proxy.stats["requests"] == 2


# -- StoreError -> 409 ------------------------------------------------------


def test_store_conflict_is_a_409_and_the_connection_survives(store_app):
    app = store_app
    client_rt, server_rt = sim_world()
    HttpServer(server_rt, app, port=80).start()
    # /data is a collection (it holds /data/blob): a PUT onto it is a
    # store conflict, not a crash of the serving process.
    conflict, after = client_rt.run(
        http_exchange(
            ("server", 80), [put("/data", b"x"), get("/data/blob")]
        )
    )
    assert conflict.status == 409
    assert b"collection" in conflict.body
    assert after.status == 200 and after.body == BODY
    assert series(app.metrics, "server.responses_total") == {
        "409": 1,
        "200": 1,
    }


# -- structure --------------------------------------------------------------


def test_every_app_routes_and_only_the_envelope_handles():
    apps = [
        cls
        for cls in (
            getattr(repro.server, name) for name in repro.server.__all__
        )
        if inspect.isclass(cls)
        and hasattr(cls, "route")
        and cls is not Envelope
    ]
    assert {cls.__name__ for cls in apps} == {
        "StorageApp",
        "FlatObjectApp",
        "ProxyApp",
        "FederationApp",
        "CollectorApp",
    }
    for cls in apps:
        assert issubclass(cls, Envelope)
        assert "route" in vars(cls)
        assert "handle" not in vars(cls)
    assert not hasattr(repro.server, "S3App")
