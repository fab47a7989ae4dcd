"""End-to-end resilience behaviour through the full client stack."""

import pytest

from repro.core import BreakerConfig, RequestParams, RetryPolicy
from repro.core import request as request_module
from repro.errors import (
    CircuitOpenError,
    ConnectError,
    DeadlineExceeded,
    RequestError,
)
from repro.net import TcpOptions
from repro.server import FaultPolicy

from tests.helpers import davix_world, retries
from tests.resilience.conftest import ScriptedFaults, errors, resets

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.05, max_delay=0.5,
    multiplier=2.0, jitter="none",
)


def test_deadline_cuts_slow_server_short():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(slow_rate=1.0, slow_delay=30.0, seed=0),
        params=RequestParams(deadline=2.0, operation_timeout=60.0),
    )
    store.put("/x", b"abc")
    start = client.runtime.now()
    with pytest.raises(DeadlineExceeded):
        client.get("http://server/x")
    # The budget, not the 60 s operation timeout, bounded the wait.
    assert client.runtime.now() - start == pytest.approx(2.0, abs=0.1)
    assert client.metrics().counter("deadline.exceeded_total").value >= 1


def test_deadline_is_never_retried():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(slow_rate=1.0, slow_delay=30.0, seed=0),
        params=RequestParams(
            deadline=1.0, retry_policy=FAST_RETRY
        ),
    )
    store.put("/x", b"abc")
    with pytest.raises(DeadlineExceeded):
        client.get("http://server/x")
    assert retries(client.context.metrics) is None


def test_deadline_leaves_room_for_fast_operations():
    client, app, store, _ = davix_world(
        params=RequestParams(deadline=10.0)
    )
    store.put("/x", b"payload")
    assert client.get("http://server/x") == b"payload"


def test_breaker_opens_after_error_storm_and_fails_fast():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(error_rate=1.0, seed=0),
        params=RequestParams(retry_policy=FAST_RETRY),
        breaker=BreakerConfig(threshold=4, cooldown=60.0),
    )
    store.put("/x", b"abc")
    # First operation burns its 4 attempts on 503s -> breaker opens.
    with pytest.raises(RequestError):
        client.get("http://server/x")
    assert client.breakers().state(("http", "server", 80)) == "open"
    # The next operation short-circuits without touching the wire.
    handled_before = app.requests_handled
    with pytest.raises(CircuitOpenError):
        client.get("http://server/x")
    assert app.requests_handled == handled_before
    assert (
        client.metrics().counter("breaker.short_circuits_total").value
        >= 1
    )


def test_breaker_recovers_through_half_open_probe():
    client, app, store, _ = davix_world(
        faults=ScriptedFaults(errors(4)),
        params=RequestParams(retry_policy=FAST_RETRY),
        breaker=BreakerConfig(threshold=4, cooldown=0.5),
    )
    store.put("/x", b"back-online")
    with pytest.raises(RequestError):
        client.get("http://server/x")
    origin = ("http", "server", 80)
    assert client.breakers().state(origin) == "open"
    # Sim time advances past the cooldown during the next op's backoff
    # -- but an immediate call is still short-circuited.
    with pytest.raises(CircuitOpenError):
        client.get("http://server/x")
    client.runtime.run(sleep_op(0.6))
    assert client.get("http://server/x") == b"back-online"
    assert client.breakers().state(origin) == "closed"
    transitions = [
        (prev, to)
        for (_, o, prev, to) in client.breakers().transitions
        if o == origin
    ]
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def sleep_op(seconds):
    from repro.concurrency import Sleep

    def op():
        yield Sleep(seconds)

    return op()


def test_breaker_can_be_disabled_per_request():
    client, app, store, _ = davix_world(
        faults=FaultPolicy(error_rate=1.0, seed=0),
        params=RequestParams(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_enabled=False,
        ),
        breaker=BreakerConfig(threshold=1, cooldown=60.0),
    )
    store.put("/x", b"abc")
    for _ in range(3):
        with pytest.raises(RequestError):
            client.get("http://server/x")
    # Every attempt reached the server; nothing short-circuited.
    assert app.requests_handled == 3
    assert client.breakers().states() == {}


def test_mid_body_reset_retried_for_get_but_not_move():
    # GET: idempotent, the reset is absorbed.
    client, app, store, _ = davix_world(
        faults=ScriptedFaults(resets(1)),
        params=RequestParams(retry_policy=FAST_RETRY),
    )
    store.put("/x", b"G" * 50_000)
    assert client.get("http://server/x") == b"G" * 50_000
    assert retries(client.context.metrics) == 1

    # MOVE: not idempotent -> the transport error surfaces, unretried.
    client2, app2, store2, _ = davix_world(
        faults=ScriptedFaults(resets(1)),
        params=RequestParams(retry_policy=FAST_RETRY),
    )
    store2.put("/a", b"payload")
    with pytest.raises(RequestError):
        client2.rename("http://server/a", "http://server/b")
    assert retries(client2.context.metrics) is None
    assert (
        client2.metrics().counter("retry.unsafe_skipped_total").value
        == 1
    )


def test_retry_non_idempotent_opt_in(monkeypatch):
    # COPY is not on the idempotent list, but re-copying is harmless
    # here — exactly the judgement call the opt-in constant delegates.
    monkeypatch.setattr(request_module, "RETRY_NON_IDEMPOTENT", True)
    client, app, store, _ = davix_world(
        faults=ScriptedFaults(resets(1)),
        params=RequestParams(retry_policy=FAST_RETRY),
    )
    store.put("/a", b"payload")
    client.copy("http://server/a", "http://server/b")
    assert store.read("/b") == b"payload"
    assert retries(client.context.metrics) == 1


def test_vectored_read_survives_mid_multipart_reset():
    """A reset halfway through a multipart body only refetches the
    ranges the truncated response left uncovered."""
    client, app, store, _ = davix_world(
        faults=ScriptedFaults(resets(1)),
        params=RequestParams(retry_policy=FAST_RETRY),
    )
    content = bytes(i % 251 for i in range(100_000))
    store.put("/x", content)
    reads = [(0, 300), (40_000, 300), (99_000, 300)]
    chunks = client.pread_vec("http://server/x", reads)
    assert chunks == [content[o : o + n] for o, n in reads]
    assert retries(client.context.metrics) >= 1


def test_connect_failures_retry_and_finally_raise():
    client, app, store, server_rt = davix_world(
        params=RequestParams(
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.05, jitter="none"
            ),
            tcp_options=TcpOptions(connect_timeout=0.5),
        )
    )
    server_rt.network.host("server").fail()
    with pytest.raises((RequestError, ConnectError)):
        client.get("http://server/x")
    assert retries(client.context.metrics) == 2
    assert client.metrics().counter("retry.exhausted_total").value == 1
