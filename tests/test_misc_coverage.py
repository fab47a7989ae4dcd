"""Edge-coverage tests across subsystems."""

import pytest

from repro.http import Headers, Request, Response
from repro.net import LAN
from repro.rootio.generator import BranchSpec, DatasetSpec
from repro.workloads import AnalysisConfig, Scenario, run_scenario


# -- http message validation ------------------------------------------------------


def test_get_with_body_rejected():
    with pytest.raises(ValueError):
        Request("GET", "/x", body=b"nope")


def test_204_with_body_rejected():
    with pytest.raises(ValueError):
        Response(204, body=b"nope")


def test_http10_keepalive_semantics():
    # HTTP/1.0 defaults to close; opt-in via Connection: keep-alive.
    old = Request("GET", "/", version="HTTP/1.0")
    assert old.wants_keep_alive() is False
    opted = Request(
        "GET",
        "/",
        Headers([("Connection", "keep-alive")]),
        version="HTTP/1.0",
    )
    assert opted.wants_keep_alive() is True
    # HTTP/1.1 defaults to keep-alive.
    assert Request("GET", "/").wants_keep_alive() is True
    response10 = Response(200, version="HTTP/1.0")
    assert response10.keep_alive() is False


def test_request_path_and_query_split():
    request = Request("GET", "/a/b?x=1&y=2")
    assert request.path == "/a/b"
    assert request.query == "x=1&y=2"
    assert Request("GET", "/plain").query == ""


def test_method_upcased_and_repr():
    request = Request("get", "/x")
    assert request.method == "GET"
    assert "GET /x" in repr(request)
    assert "200" in repr(Response(200))


def test_response_ok_and_default_reason():
    assert Response(204).ok
    assert not Response(404).ok
    assert Response(207).reason == "Multi-Status"


# -- net odds and ends ---------------------------------------------------------------


def test_listener_backlog_counts_unaccepted():
    from repro.net import LinkSpec, Network
    from repro.sim import Environment

    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.set_route("a", "b", LinkSpec(latency=0.001, bandwidth=1e9))
    listener = net.listen("b", 1)

    def client():
        yield net.connect("a", ("b", 1))
        yield net.connect("a", ("b", 1))

    env.run(env.process(client()))
    assert listener.backlog == 2


# -- runner: xrootd with materialised data ------------------------------------------


def test_runner_xrootd_materialized_decodes():
    spec = DatasetSpec(
        name="hep_events",
        n_entries=300,
        branches=(BranchSpec("a", event_size=128),),
        basket_entries=100,
        seed=8,
    )
    report = run_scenario(
        Scenario(
            profile=LAN,
            protocol="xrootd",
            spec=spec,
            config=AnalysisConfig(
                per_event_cpu=0.0001, learn_entries=0, decode=True
            ),
            materialize=True,
        )
    )
    assert report.events_read == 300
    assert report.protocol == "xrootd"


# -- synthetic content checksum helpers ----------------------------------------------


def test_content_md5_and_iter_chunks():
    import hashlib

    from repro.server import BytesContent

    data = bytes(range(256)) * 100
    content = BytesContent(data)
    assert content.md5() == hashlib.md5(data).hexdigest()
    assert b"".join(content.iter_chunks(1000)) == data
