"""The request envelope every server app shares.

One ``handle()`` — telemetry-push bypass, request/response counters, fault
policy, ``StoreError`` -> 409, response stamping — and two apps that
only route. These tests pin what the copies had let drift.
"""

import inspect

import pytest

import repro.server
from repro.http import Headers, Request, Response
from repro.obs import MetricsRegistry
from repro.obs.collector import TelemetryCollector
from repro.server import (
    Envelope,
    FaultAction,
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
    "proxy": lambda config: ProxyApp(config),
}


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
    app = APPS[kind](ServerConfig(collector=TelemetryCollector()))
    app.handle(Request("GET", "/data/blob"))
    assert app.requests_handled == 1
    assert series(app.metrics, "server.requests_total") == {"GET": 1}
    assert sum(series(app.metrics, "server.responses_total").values()) == 1
    before = app.metrics.snapshot()

    for _ in range(3):
        push = app.handle(Request("POST", "/v1/telemetry", body=b""))
        assert push.response.status == 204
    assert app.requests_handled == 1
    assert app.metrics.snapshot() == before


# -- one series, one stamp --------------------------------------------------


@pytest.fixture
def store_app():
    config = ServerConfig(
        server_name="parity/1.0",
        cache_control="max-age=60",
        service_overhead=0.01,
        disk_bandwidth=1e6,
    )
    app = StorageApp(ObjectStore(), config)
    app.metrics = MetricsRegistry()
    app.store.put("/data/blob", BODY)
    return app


def test_a_store_backed_app_counts_and_stamps(store_app):
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
    # The script is spent: a write is served, and not stamped with
    # Cache-Control, which only read verbs carry.
    written = app.handle(Request("PUT", "/fresh", body=b"1")).response
    assert written.status == 201
    assert written.headers.get("Cache-Control") is None


def test_data_less_tiers_answer_unstamped_in_zero_service_time():
    class Redirector(Envelope):
        def route(self, request):
            return Response(302, Headers([("Location", "http://site0/f")]))

    served = Redirector(ServerConfig()).handle(Request("GET", "/f"))
    assert served.response.status == 302
    assert served.response.headers.get("Server") is None
    assert served.service_time == 0.0


def test_deferred_responses_count_the_status_they_resolve_to():
    client, proxy, _origin, store, _net = proxy_world()
    store.put("/blob", BODY)
    assert client.get("http://origin/blob") == BODY
    assert client.get("http://origin/blob") == BODY
    assert series(proxy.metrics, "server.requests_total") == {"GET": 2}
    assert series(proxy.metrics, "server.responses_total") == {"200": 2}
    assert proxy.requests_handled == 2


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
        "ProxyApp",
    }
    for cls in apps:
        assert issubclass(cls, Envelope)
        assert "route" in vars(cls)
        assert "handle" not in vars(cls)
    for gone in ("S3App", "CollectorApp", "FederationApp", "FlatObjectApp"):
        assert not hasattr(repro.server, gone)
