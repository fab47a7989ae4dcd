"""Parallel dispatch of vectored-read batches (``TransferConfig``).

The plan's multi-range batches execute concurrently on pooled sessions;
these tests pin the contract: byte-identical results to sequential
dispatch, unchanged round-trip accounting, the zero-copy ``copy_bytes``
invariant (exactly one materialising copy per fragment), the
``vector.inflight`` gauge lifecycle, a real wall-clock win on a
high-latency link, and that the pre-unification legacy knobs
(``vector_max_inflight`` / ``pread_vec(max_inflight=)``) are gone
from the API surface.
"""

import pytest

from repro.core import RequestParams, TransferConfig
from repro.errors import RequestError

from tests.helpers import davix_world, immediate
from tests.resilience.conftest import ScriptedFaults, errors

BLOB = bytes((i * 131 + 7) % 256 for i in range(400_000))


def reads_spread(count, length=512, stride=16_384):
    return [(i * stride, length) for i in range(count)]


def world(max_inflight, latency=0.001, faults=None, attempts=2):
    params = RequestParams(
        max_vector_ranges=4,
        vector_gap=0,
        transfer=TransferConfig(max_inflight=max_inflight),
        retry_policy=immediate(attempts),
    )
    client, app, store, _ = davix_world(
        latency=latency, params=params, faults=faults
    )
    store.put("/blob", BLOB)
    return client, app


def test_parallel_results_byte_identical_to_sequential():
    reads = reads_spread(16)  # 16 ranges -> 4 batches of 4
    sequential_client, _ = world(max_inflight=1)
    parallel_client, _ = world(max_inflight=4)
    expected = [BLOB[o : o + n] for o, n in reads]
    sequential = sequential_client.pread_vec("http://server/blob", reads)
    parallel = parallel_client.pread_vec("http://server/blob", reads)
    assert sequential == expected
    assert parallel == expected


def test_parallel_round_trip_and_copy_accounting():
    reads = reads_spread(16)
    client, app = world(max_inflight=4)
    client.pread_vec("http://server/blob", reads)
    registry = client.metrics()
    assert app.requests_handled == 4
    assert registry.value("vector.round_trips_total") == 4
    assert registry.value("vector.parallel_dispatch_total") == 1
    # Zero-copy invariant: one materialising copy per fragment and
    # nothing else — copy bytes equal requested bytes exactly.
    requested = sum(n for _, n in reads)
    assert registry.value("vector.requested_bytes_total") == requested
    assert registry.value("vector.copy_bytes_total") == requested


def test_sequential_copy_accounting_matches():
    reads = reads_spread(8)
    client, _ = world(max_inflight=1)
    client.pread_vec("http://server/blob", reads)
    registry = client.metrics()
    assert registry.value("vector.parallel_dispatch_total") is None
    assert registry.value("vector.copy_bytes_total") == sum(
        n for _, n in reads
    )


def test_inflight_gauge_returns_to_zero():
    reads = reads_spread(16)
    client, _ = world(max_inflight=3)
    client.pread_vec("http://server/blob", reads)
    registry = client.metrics()
    assert registry.value("vector.inflight") == 0


def test_transfer_override_per_call():
    reads = reads_spread(16)
    client, app = world(max_inflight=1)
    client.pread_vec(
        "http://server/blob",
        reads,
        transfer=TransferConfig(max_inflight=4),
    )
    assert (
        client.metrics().value("vector.parallel_dispatch_total") == 1
    )
    assert app.requests_handled == 4


def test_inflight_validation():
    with pytest.raises(ValueError):
        TransferConfig(max_inflight=0)


def test_legacy_knobs_are_gone():
    """The one-release deprecation aliases were removed: the scattered
    knobs now fail fast instead of warning."""
    with pytest.raises(TypeError):
        RequestParams(vector_max_inflight=4)
    client, _ = world(max_inflight=1)
    with pytest.raises(TypeError):
        client.pread_vec(
            "http://server/blob", reads_spread(4), max_inflight=4
        )


def test_parallel_beats_sequential_on_high_latency_link():
    """4 batches over a 40 ms RTT: concurrent dispatch must win."""
    reads = reads_spread(16)

    def timed(max_inflight):
        client, _ = world(max_inflight=max_inflight, latency=0.020)
        start = client.runtime.now()
        result = client.pread_vec("http://server/blob", reads)
        return client.runtime.now() - start, result

    seq_time, seq_result = timed(1)
    par_time, par_result = timed(4)
    assert par_result == seq_result
    assert par_time < seq_time


def test_parallel_batch_spans_parent_correctly():
    reads = reads_spread(16)
    client, _ = world(max_inflight=4)
    client.pread_vec("http://server/blob", reads)
    tracer = client.tracer()
    (vec,) = tracer.by_name("pread-vec")
    assert vec.attrs["inflight"] == 4
    batches = tracer.by_name("vec-batch")
    assert len(batches) == 4
    assert {b.attrs["batch"] for b in batches} == {0, 1, 2, 3}
    assert all(b.parent_id == vec.span_id for b in batches)
    batch_ids = {b.span_id for b in batches}
    assert all(
        r.parent_id in batch_ids for r in tracer.by_name("request")
    )


def test_parallel_retries_faults_per_batch():
    """Scripted 5xx faults hit some batches; each batch retries inside
    its own envelope and the scattered bytes still come back exact."""
    reads = reads_spread(16)
    faults = ScriptedFaults(errors(3))
    client, app = world(max_inflight=4, faults=faults, attempts=4)
    result = client.pread_vec("http://server/blob", reads)
    assert result == [BLOB[o : o + n] for o, n in reads]
    assert faults.injected["error"] == 3
    # 4 clean round trips plus one extra request per injected error.
    assert app.requests_handled == 7
    assert (
        client.metrics().value("vector.round_trips_total") == 4
    )


def test_parallel_failure_surfaces_after_retry_budget():
    reads = reads_spread(16)
    faults = ScriptedFaults(errors(20))
    client, _ = world(max_inflight=4, faults=faults, attempts=1)
    with pytest.raises(RequestError):
        client.pread_vec("http://server/blob", reads)
