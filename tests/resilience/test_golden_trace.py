"""Golden observability output for a retry-twice-then-succeed request.

Extends the ``tests/obs/test_export_golden.py`` contract to the
resilience layer: the span tree shape and the resilience metric series
emitted by one deterministic recovery are pinned exactly.
"""

import json

import pytest

from repro.core import RequestParams, RetryPolicy
from repro.obs import metrics_to_json_lines

from tests.helpers import davix_world, retries
from tests.resilience.conftest import ScriptedFaults, errors

POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.1, max_delay=1.0,
    multiplier=2.0, jitter="none",
)


def _retry_twice_world():
    client, app, store, _ = davix_world(
        faults=ScriptedFaults(errors(2)),
        params=RequestParams(retry_policy=POLICY),
    )
    store.put("/x", b"recovered")
    return client


def test_golden_span_tree():
    client = _retry_twice_world()
    assert client.get("http://server/x") == b"recovered"

    tracer = client.tracer()
    (request,) = tracer.by_name("request")
    children = [
        span
        for span in tracer.finished()
        if span.parent_id == request.span_id
    ]
    children.sort(key=lambda span: (span.start, span.span_id))
    # Three attempts (two 503s, then success), a backoff wait between
    # each: acquire/exchange, wait, acquire/exchange, wait, ...
    assert [span.name for span in children] == [
        "session-acquire",
        "exchange",
        "retry-wait",
        "session-acquire",
        "exchange",
        "retry-wait",
        "session-acquire",
        "exchange",
    ]
    waits = [span for span in children if span.name == "retry-wait"]
    assert [w.attrs["attempt"] for w in waits] == [1, 2]
    assert [w.attrs["delay"] for w in waits] == [0.1, 0.2]
    assert [w.attrs["cause"] for w in waits] == ["RequestError"] * 2
    assert request.attrs["status"] == 200
    # The waits actually slept their backoff on the sim clock (approx:
    # the absolute start time depends on request wire size, so the
    # end-start subtraction carries float representation error).
    assert waits[0].duration == pytest.approx(0.1)
    assert waits[1].duration == pytest.approx(0.2)


GOLDEN_RESILIENCE_SERIES = [
    ("breaker.transitions_total", None),  # never fires here
    ("retry.attempts_total", 2),
    ("retry.backoff_seconds_total", 0.1 + 0.2),
    ("retry.exhausted_total", None),
    ("retry.unsafe_skipped_total", None),
    ("deadline.exceeded_total", None),
]


def test_golden_resilience_metrics():
    client = _retry_twice_world()
    client.get("http://server/x")
    registry = client.metrics()
    exported = {
        (record["name"], tuple(sorted(record["labels"].items()))): record
        for record in (
            json.loads(line)
            for line in metrics_to_json_lines(registry).splitlines()
        )
    }
    for name, want in GOLDEN_RESILIENCE_SERIES:
        record = exported.get((name, ()))
        if want is None:
            assert record is None, f"unexpected series {name}"
        else:
            assert record is not None, f"missing series {name}"
            assert record["value"] == want, name
    assert retries(client.context.metrics) == 2


def test_deterministic_across_fresh_worlds():
    """Two independent worlds produce byte-identical exports."""

    def run():
        client = _retry_twice_world()
        client.get("http://server/x")
        return metrics_to_json_lines(client.metrics())

    assert run() == run()
