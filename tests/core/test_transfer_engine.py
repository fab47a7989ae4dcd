"""The pipelined read-ahead transfer engine.

Pins the tentpole contract: speculative vector batches overlap with
consumption (a real wall-clock win on a high-latency link), plan hits
serve byte-identical data without extra round trips, the adaptive
window grows on sequential hits and shrinks on off-plan access, the
``transfer-engine`` / ``speculative-fetch`` span hierarchy separates
speculation from demand, and the ``engine.*`` metric series plus the
``readahead-wait`` phase export the window state.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core import RequestParams, TransferConfig, vectored
from repro.core.file import DavFile

from tests.helpers import davix_world

BLOB = bytes((i * 37 + 11) % 256 for i in range(800_000))


@pytest.fixture(autouse=True)
def eight_ranges_a_request(monkeypatch):
    monkeypatch.setattr(vectored, "MAX_VECTOR_RANGES", 8)


def segments_spread(count, length=1024, stride=8192, base=0):
    return [(base + i * stride, length) for i in range(count)]


def engine_world(transfer=None, latency=0.001, params=None, **world_kw):
    params = params or RequestParams(
        vector_gap=0,
        transfer=transfer
        or TransferConfig(max_inflight=4, read_ahead=True),
    )
    client, app, store, _ = davix_world(
        latency=latency, params=params, **world_kw
    )
    store.put("/blob", BLOB)
    return client, app


def run_file_op(client, build_op):
    """Run an effect op against a fresh DavFile; returns (result, file)."""
    file = DavFile(client.context, "http://server/blob", client.context.params)

    def op():
        result = yield from build_op(file)
        yield from file.drain()
        return result

    return client.runtime.run(op()), file


# -- correctness ---------------------------------------------------------------


def test_read_vec_byte_identical_to_demand_path():
    reads = segments_spread(32)
    expected = [BLOB[o : o + n] for o, n in reads]

    plain_client, _ = engine_world(
        transfer=TransferConfig(max_inflight=1)
    )
    engine_client, _ = engine_world()
    assert plain_client.pread_vec("http://server/blob", reads) == expected
    assert engine_client.pread_vec("http://server/blob", reads) == expected
    registry = engine_client.metrics()
    assert registry.value("engine.hits_total") == len(reads)
    assert not registry.value("engine.misses_total")


def test_prefetch_serves_single_reads_with_fewer_round_trips():
    plan = segments_spread(16)
    client, app = engine_world()

    def op(file):
        file.prefetch(plan)
        out = []
        for offset, length in plan:
            data = yield from file.pread(offset, length)
            out.append(data)
        return out

    result, file = run_file_op(client, op)
    assert result == [BLOB[o : o + n] for o, n in plan]
    assert file.engine.stats["hits"] == len(plan)
    assert file.engine.stats["misses"] == 0
    # 16 segments at <= 8 ranges/batch: at most 2 round trips, not 16.
    assert app.requests_handled <= 2


def test_a_pread_with_no_plan_is_a_one_read_pread_vec():
    """With the engine armed and no plan, a ``pread``'s read becomes
    the plan: one speculative batch serves it as an engine hit, at the
    requests a one-read ``pread_vec`` costs."""
    read = (16_384, 4096)
    handled = []
    for vector in (False, True):
        client, app = engine_world()

        def op(file):
            if vector:
                return (yield from file.pread_vec([read]))[0]
            return (yield from file.pread(*read))

        data, file = run_file_op(client, op)
        assert data == BLOB[16_384 : 16_384 + 4096]
        assert file.engine.stats["launched"] == 1
        assert file.engine.stats["hits"] == 1
        assert file.engine.stats["misses"] == 0
        assert file.engine.stats["shrunk"] == 0
        handled.append(app.requests_handled)
    assert handled[0] == handled[1]


def test_zero_length_and_empty_reads():
    client, _ = engine_world()
    assert client.pread_vec("http://server/blob", []) == []
    assert client.pread("http://server/blob", 100, 0) == b""


def test_speculation_overlaps_round_trips_on_high_latency_link():
    """The point of the engine: with 40 ms RTT the pipelined window
    must beat sequential batch-by-batch demand dispatch."""
    reads = segments_spread(32)

    def timed(transfer):
        client, _ = engine_world(transfer=transfer, latency=0.020)
        start = client.runtime.now()
        result = client.pread_vec("http://server/blob", reads)
        return client.runtime.now() - start, result

    seq_time, seq_result = timed(TransferConfig(max_inflight=1))
    eng_time, eng_result = timed(
        TransferConfig(max_inflight=1, read_ahead=True)
    )
    assert eng_result == seq_result
    assert eng_time < seq_time


# -- the adaptive window -------------------------------------------------------


def test_window_grows_on_sequential_hits(monkeypatch):
    monkeypatch.setattr(engine_module, "WINDOW_BATCHES", 2)
    monkeypatch.setattr(engine_module, "MAX_WINDOW_BATCHES", 16)
    client, _ = engine_world(transfer=TransferConfig(read_ahead=True))

    def op(file):
        file.prefetch(segments_spread(64))
        out = []
        for chunk_start in range(0, 64, 8):
            chunk = segments_spread(8, base=chunk_start * 8192)
            piece = yield from file.pread_vec(chunk)
            out.extend(piece)
        return out

    result, file = run_file_op(client, op)
    assert result == [
        BLOB[o : o + n] for o, n in segments_spread(64)
    ]
    assert file.engine.stats["grown"] > 0
    assert file.engine.window > 2
    assert client.metrics().value("engine.window_grow_total") > 0


def test_off_plan_read_shrinks_window(monkeypatch):
    monkeypatch.setattr(engine_module, "WINDOW_BATCHES", 4)
    monkeypatch.setattr(engine_module, "MIN_WINDOW_BATCHES", 1)
    client, _ = engine_world(transfer=TransferConfig(read_ahead=True))
    plan = segments_spread(16)
    off_plan = (700_000, 64)  # nowhere near the plan

    def op(file):
        file.prefetch(plan)
        first = yield from file.pread_vec(plan[:4])
        stray = yield from file.pread(*off_plan)
        return first, stray

    (first, stray), file = run_file_op(client, op)
    assert first == [BLOB[o : o + n] for o, n in plan[:4]]
    assert stray == BLOB[700_000 : 700_000 + 64]
    assert file.engine.stats["shrunk"] > 0
    assert file.engine.window < 4
    assert client.metrics().value("engine.window_shrink_total") > 0
    assert client.metrics().value("engine.misses_total") >= 1


def test_repeated_segment_in_one_read_vec_is_served_from_the_first():
    """A segment asked for twice in one call is a plan hit both times:
    the repeat costs no request, no miss and no window shrink."""
    client, app = engine_world()
    plan = segments_spread(16)
    reads = plan[:4] + [plan[0]] + plan[4:8]

    def op(file):
        file.prefetch(plan)
        data = yield from file.pread_vec(reads)
        return data

    result, file = run_file_op(client, op)
    assert result == [BLOB[o : o + n] for o, n in reads]
    assert app.requests_handled == 2
    assert file.engine.stats["misses"] == 0
    assert file.engine.stats["shrunk"] == 0


def pending_parts_only(engine):
    """Every resolved batch's table holds only parts that cover one of
    the batch's still-pending segments."""
    for batch in engine._inflight:
        if batch.parts is None:
            continue
        table = batch.parts
        for start, view in zip(table._offsets, table._views):
            assert any(
                start <= offset and offset + length <= start + len(view)
                for offset, length in batch.segments
            ), (start, len(view), batch.segments)


@st.composite
def plans_and_orders(draw):
    """A plan of ascending, possibly overlapping segments, a coalescing
    gap, and the plan cut into groups served in a shuffled order."""
    plan = []
    cursor = draw(st.integers(0, 4096))
    for _ in range(draw(st.integers(1, 20))):
        length = draw(st.integers(1, 2048))
        plan.append((cursor, length))
        cursor += length + draw(st.integers(1 - length, 1500))
    order = draw(st.permutations(plan))
    groups = []
    while order:
        size = draw(st.integers(1, len(order)))
        groups.append(order[:size])
        order = order[size:]
    return plan, draw(st.sampled_from([0, 64, 512, 1024])), groups


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plans_and_orders())
def test_a_served_part_is_released_and_no_pending_one_is(case):
    """Whatever order a resolved batch's segments are served in, its
    table keeps only parts a pending segment still needs, and every
    read is a plan hit with the demand path's bytes."""
    plan, gap, groups = case
    client, _ = engine_world(
        params=RequestParams(
            vector_gap=gap, transfer=TransferConfig(read_ahead=True)
        )
    )

    def op(file):
        file.prefetch(plan)
        out = []
        for group in groups:
            if len(group) == 1:
                data = yield from file.pread(*group[0])
                out.append([data])
            else:
                out.append((yield from file.pread_vec(group)))
            pending_parts_only(file.engine)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "WINDOW_BATCHES", 4)
        result, file = run_file_op(client, op)
    assert result == [[BLOB[o : o + n] for o, n in group] for group in groups]
    assert file.engine.stats["misses"] == 0
    assert file.engine.stats["hits"] == len(plan)
    assert not file.engine._inflight


def test_plan_tail_demanded_before_launch_is_skipped(monkeypatch):
    """A planned segment read before its speculative launch is served
    by the demand path once and never fetched twice."""
    monkeypatch.setattr(engine_module, "WINDOW_BATCHES", 1)
    monkeypatch.setattr(engine_module, "MAX_WINDOW_BATCHES", 1)
    client, app = engine_world(
        transfer=TransferConfig(read_ahead=True, window_bytes=8192)
    )
    plan = segments_spread(32)

    def op(file):
        file.prefetch(plan)
        # Consume the *tail* first: deep in the plan, beyond a
        # one-batch window.
        tail = yield from file.pread_vec(plan[-4:])
        head = yield from file.pread_vec(plan[:4])
        return tail, head

    (tail, head), file = run_file_op(client, op)
    assert tail == [BLOB[o : o + n] for o, n in plan[-4:]]
    assert head == [BLOB[o : o + n] for o, n in plan[:4]]
    served = sum(len(part) for part in tail + head)
    # No double-fetch of the demanded tail segments.
    assert (
        client.metrics().value("engine.speculative_bytes_total") or 0
    ) + served <= sum(n for _, n in plan) + served


# -- observability -------------------------------------------------------------


def test_engine_span_hierarchy_and_attrs():
    reads = segments_spread(16)
    client, _ = engine_world()
    client.pread_vec("http://server/blob", reads)
    tracer = client.tracer()
    (engine_span,) = tracer.by_name("transfer-engine")
    fetches = tracer.by_name("speculative-fetch")
    assert fetches
    assert all(s.parent_id == engine_span.span_id for s in fetches)
    assert all(s.attrs.get("ok") for s in fetches)
    assert engine_span.attrs["hits"] == len(reads)
    assert engine_span.attrs["misses"] == 0
    assert engine_span.attrs["launched"] == len(fetches)
    # Demanded requests parent under the speculative-fetch spans.
    fetch_ids = {s.span_id for s in fetches}
    assert all(
        r.parent_id in fetch_ids for r in tracer.by_name("request")
    )


def test_engine_metrics_and_readahead_wait_phase():
    reads = segments_spread(16)
    client, _ = engine_world()
    client.pread_vec("http://server/blob", reads)
    registry = client.metrics()
    assert registry.value("engine.speculative_batches_total") >= 1
    assert registry.value("engine.speculative_ranges_total") >= 1
    assert registry.value("engine.speculative_bytes_total") == sum(
        n for _, n in reads
    )
    assert registry.value("engine.hits_total") == len(reads)
    assert registry.value("engine.window") >= 1
    waits = registry.histogram(
        "request.phase_seconds", phase="readahead-wait"
    )
    assert waits.count >= 1
    assert waits.sum >= 0.0


def test_drain_counts_unused_speculation():
    client, _ = engine_world()

    def op(file):
        file.prefetch(segments_spread(8))
        data = yield from file.pread_vec(segments_spread(2))
        return data

    result, file = run_file_op(client, op)
    assert result == [BLOB[o : o + n] for o, n in segments_spread(2)]
    # Everything launched but not consumed surfaced at drain time.
    assert client.metrics().value("engine.unused_segments_total") == 6
    # Drain closed the engine span (it shows up as finished).
    (engine_span,) = client.tracer().by_name("transfer-engine")
    assert engine_span.attrs["unused_segments"] == 6


def test_config_validation():
    # The window's batch bounds are engine constants, not knobs.
    for knob in ("window_batches", "min_window_batches", "max_window_batches"):
        with pytest.raises(TypeError):
            TransferConfig(**{knob: 4})
    with pytest.raises(ValueError):
        TransferConfig(window_bytes=0)


# -- thread runtime ------------------------------------------------------------


def test_engine_on_thread_runtime_against_live_server():
    from repro.concurrency import ThreadRuntime
    from repro.core import DavixClient
    from repro.server import ObjectStore, StorageApp, real_server

    store = ObjectStore()
    store.put("/blob", BLOB)
    reads = segments_spread(24)
    with real_server(StorageApp(store)) as server:
        client = DavixClient(
            ThreadRuntime(),
            params=RequestParams(
                vector_gap=0,
                transfer=TransferConfig(
                    max_inflight=2, read_ahead=True
                ),
            ),
        )
        result = client.pread_vec(
            f"http://127.0.0.1:{server.port}/blob", reads
        )
    assert result == [BLOB[o : o + n] for o, n in reads]
    assert client.metrics().value("engine.hits_total") == len(reads)
