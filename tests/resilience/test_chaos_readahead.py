"""Chaos schedules for the pipelined read-ahead transfer engine.

Speculation must never trade correctness for overlap: under seeded
fault schedules (5xx errors, mid-body resets, slowdowns) the engine
path returns byte-identical results to the non-speculative demand
path, a failed speculative fetch shrinks the window and falls back
silently, and — the containment property — every range the server
receives stays inside the prefetch plan: the engine never fetches
bytes nobody asked for.
"""

import random

from repro.core import RequestParams, RetryPolicy, TransferConfig
from repro.http.ranges import parse_range_header
from repro.server import FaultPolicy

from tests.helpers import davix_world
from tests.resilience.conftest import ScriptedFaults, errors

POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.05, max_delay=2.0, seed=1
)
BLOB = bytes((i * 89 + 17) % 256 for i in range(300_000))


def chaos_plan(seed, count=24):
    """Seeded consumption-ordered plan of scattered segments."""
    rng = random.Random(seed)
    segments = []
    cursor = 0
    for _ in range(count):
        cursor += rng.randrange(256, 8192)
        length = rng.randrange(64, 2048)
        if cursor + length >= len(BLOB):
            break
        segments.append((cursor, length))
        cursor += length
    return segments


def engine_params(transfer, retry_policy=POLICY):
    return RequestParams(
        max_vector_ranges=6,
        vector_gap=0,
        transfer=transfer,
        retry_policy=retry_policy,
    )


def run_reads(faults, transfer, plan, retry_policy=POLICY):
    client, app, store, _ = davix_world(
        faults=faults,
        params=engine_params(transfer, retry_policy),
    )
    store.put("/data/blob", BLOB)
    results = client.pread_vec("http://server/data/blob", plan)
    return results, client, app


def test_readahead_chaos_bytes_identical_to_demand(chaos_seed):
    """Same fault schedule, speculative vs demanded dispatch: the
    bytes must match each other and the ground truth."""
    plan = chaos_plan(chaos_seed)
    expected = [BLOB[o : o + n] for o, n in plan]
    faults = FaultPolicy(
        error_rate=0.15,
        reset_rate=0.05,
        slow_rate=0.1,
        slow_delay=0.2,
        seed=chaos_seed,
    )
    demanded, _, _ = run_reads(
        faults, TransferConfig(max_inflight=1), plan
    )
    faults.reset()
    speculative, client, _ = run_reads(
        faults,
        TransferConfig(max_inflight=1, read_ahead=True),
        plan,
    )
    assert demanded == expected
    assert speculative == expected
    # The engine actually ran (this is not a vacuous comparison).
    assert client.metrics().value("engine.speculative_batches_total") >= 1


def test_readahead_chaos_is_deterministic(chaos_seed):
    """Same seed + FaultPolicy.reset() => identical bytes and engine
    accounting."""
    plan = chaos_plan(chaos_seed)
    faults = FaultPolicy(error_rate=0.2, reset_rate=0.05, seed=chaos_seed)
    transfer = TransferConfig(read_ahead=True, window_batches=2)
    first, first_client, _ = run_reads(faults, transfer, plan)
    faults.reset()
    second, second_client, _ = run_reads(faults, transfer, plan)
    assert first == second
    for series in (
        "engine.speculative_batches_total",
        "engine.hits_total",
        "engine.misses_total",
        "engine.speculative_errors_total",
    ):
        assert first_client.metrics().value(
            series
        ) == second_client.metrics().value(series)


def test_speculative_error_shrinks_window_and_falls_back(chaos_seed):
    """A failed speculative fetch is invisible to the caller — the
    demand path refetches — but the window shrinks."""
    plan = chaos_plan(chaos_seed)
    expected = [BLOB[o : o + n] for o, n in plan]
    # No retry budget: the first scripted 503 kills exactly one
    # speculative request; everything afterwards serves normally.
    faults = ScriptedFaults(errors(1))
    results, client, _ = run_reads(
        faults,
        TransferConfig(read_ahead=True, window_batches=4),
        plan,
        retry_policy=RetryPolicy(max_attempts=1),
    )
    assert results == expected
    assert faults.injected["error"] == 1
    registry = client.metrics()
    assert registry.value("engine.speculative_errors_total") == 1
    assert registry.value("engine.window_shrink_total") >= 1
    assert registry.value("engine.misses_total") >= 1
    # The failed batch's segments were still served — demand fallback.
    assert registry.value("engine.hits_total") < len(plan)


def _covered_by_plan(rng_offset, rng_length, intervals):
    """Is [offset, offset+length) inside the union of plan intervals?"""
    end = rng_offset + rng_length
    cursor = rng_offset
    for start, stop in intervals:
        if stop <= cursor:
            continue
        if start > cursor:
            return False  # gap before the next planned interval
        cursor = min(stop, end)
        if cursor >= end:
            return True
    return cursor >= end


def recording_ranges(app):
    """Wrap ``app.handle`` so every ``Range`` the server receives is
    recorded as ``(offset, length)`` spans; returns that list."""
    received = []
    handle = app.handle

    def recording(request):
        header = request.headers.get("Range")
        if header is not None:
            received.extend(
                (spec.first, spec.last - spec.first + 1)
                for spec in parse_range_header(header)
            )
        return handle(request)

    app.handle = recording
    return received


def test_speculation_never_leaves_the_plan(chaos_seed):
    """Containment property: every range the server is asked for lies
    inside the union of prefetched segments — chaos or not, the
    engine never requests bytes outside the plan."""
    plan = chaos_plan(chaos_seed)
    faults = FaultPolicy(error_rate=0.1, seed=chaos_seed)
    client, app, store, _ = davix_world(
        faults=faults,
        params=engine_params(
            TransferConfig(read_ahead=True, window_batches=3)
        ),
    )
    store.put("/data/blob", BLOB)
    received = recording_ranges(app)
    from repro.core.file import DavFile

    file = DavFile(client.context, "http://server/data/blob")

    def op():
        file.prefetch(plan)
        out = yield from file.pread_vec(plan)
        yield from file.drain()
        return out

    results = client.runtime.run(op())
    assert results == [BLOB[o : o + n] for o, n in plan]
    # Speculation actually happened, and its ranges reached the server.
    assert client.metrics().value("engine.speculative_batches_total") >= 1
    assert received
    intervals = sorted((o, o + n) for o, n in plan)
    for offset, length in received:
        assert _covered_by_plan(offset, length, intervals), (
            offset,
            length,
        )
