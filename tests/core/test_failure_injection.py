"""Client behaviour under injected server failures."""

import pytest

from repro.core import RequestParams, RetryPolicy
from repro.errors import RequestError, TransferTimeout
from repro.http import Response
from repro.server import FaultPolicy, ServedResponse, ServerConfig

from tests.helpers import NO_RETRY, davix_world, immediate, retries


def test_truncated_body_detected_and_retried():
    # The server lies about Content-Length and resets midway; with a
    # retry budget the client recovers on a second attempt.
    client, app, store, _ = davix_world(
        params=RequestParams(retry_policy=immediate(3))
    )
    store.put("/x", b"D" * 50_000)
    original = app.handle
    failures = {"left": 1}

    def flaky(request):
        served = original(request)
        if failures["left"] > 0 and request.method == "GET":
            failures["left"] -= 1
            served.reset_midway = True
        return served

    app.handle = flaky
    assert client.get("http://server/x") == b"D" * 50_000
    assert retries(client.context.metrics) == 1


def test_truncated_body_without_retries_raises():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(reset_rate=1.0, seed=1),
        params=RequestParams(retry_policy=NO_RETRY),
    )
    store.put("/x", b"D" * 50_000)
    with pytest.raises(RequestError):
        client.get("http://server/x")


def test_operation_timeout_on_slow_server():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(slow_rate=1.0, slow_delay=10.0, seed=0),
        params=RequestParams(retry_policy=NO_RETRY, operation_timeout=1.0),
    )
    store.put("/x", b"abc")
    with pytest.raises(RequestError) as info:
        client.get("http://server/x")
    assert "timed out" in str(info.value)


def test_slow_server_within_timeout_succeeds():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(slow_rate=1.0, slow_delay=0.5, seed=0),
        params=RequestParams(operation_timeout=5.0),
    )
    store.put("/x", b"abc")
    assert client.get("http://server/x") == b"abc"


def test_error_storm_exhausts_retries():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(error_rate=1.0, seed=0),
        params=RequestParams(retry_policy=immediate(4)),
    )
    store.put("/x", b"abc")
    with pytest.raises(RequestError) as info:
        client.get("http://server/x")
    assert info.value.status == 503
    assert retries(client.context.metrics) == 3


def test_vectored_read_on_flaky_server_recovers():
    client, app, store, _ = davix_world(
        params=RequestParams(retry_policy=immediate(6))
    )
    content = bytes(i % 251 for i in range(100_000))
    store.put("/x", content)
    original = app.handle
    state = {"count": 0}

    def flaky(request):
        state["count"] += 1
        if state["count"] % 2 == 1 and request.method == "GET":
            return ServedResponse(Response(503))
        return original(request)

    app.handle = flaky
    reads = [(0, 100), (50_000, 100), (99_900, 100)]
    chunks = client.pread_vec("http://server/x", reads)
    assert chunks == [content[o : o + n] for o, n in reads]


def test_garbage_response_is_transport_error():
    client, app, store, _ = davix_world(
        params=RequestParams(retry_policy=NO_RETRY)
    )
    store.put("/x", b"abc")

    def garbage(request):
        served = ServedResponse(Response(200, body=b"abc"))
        # Sabotage: swap the serialised body for garbage by patching
        # the response version (invalid on the wire).
        served.response.version = "HTTP/9.9"
        return served

    app.handle = garbage
    with pytest.raises(RequestError):
        client.get("http://server/x")


def test_retry_delay_is_observed():
    client, app, store, _ = davix_world(
        params=RequestParams(
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=1.5, max_delay=1.5,
                multiplier=1.0, jitter="none",
            )
        )
    )
    store.put("/x", b"abc")
    original = app.handle
    failures = {"left": 2}

    def flaky(request):
        if failures["left"] > 0:
            failures["left"] -= 1
            return ServedResponse(Response(503))
        return original(request)

    app.handle = flaky
    start = client.runtime.now()
    assert client.get("http://server/x") == b"abc"
    assert client.runtime.now() - start >= 3.0  # two retry delays
