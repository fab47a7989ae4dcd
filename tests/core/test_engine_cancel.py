"""Plan abandonment: cancelling in-flight speculative batches.

When the consumption plan an engine speculates for is abandoned
(``DavFile.close()``, or a replacing ``prefetch()``), the in-flight
batches must be cancelled — window slots freed immediately, counted in
``engine.cancelled_batches_total`` — instead of draining uselessly.
"""

import pytest

from repro.core import RequestParams, TransferConfig, vectored
from repro.core.file import DavFile

from tests.helpers import davix_world

BLOB = bytes((i * 37 + 11) % 256 for i in range(800_000))


@pytest.fixture(autouse=True)
def four_ranges_a_request(monkeypatch):
    monkeypatch.setattr(vectored, "MAX_VECTOR_RANGES", 4)


def engine_world(latency=0.02):
    params = RequestParams(
        vector_gap=0,
        transfer=TransferConfig(max_inflight=4, read_ahead=True),
    )
    client, app, store, _ = davix_world(latency=latency, params=params)
    store.put("/blob", BLOB)
    return client


def segments_spread(count, length=1024, stride=8192, base=0):
    return [(base + i * stride, length) for i in range(count)]


def test_close_cancels_inflight_batches():
    client = engine_world()
    file = DavFile(client.context, "http://server/blob")

    def op():
        file.prefetch(segments_spread(32))
        # One read pumps the window: several batches launch.
        first = yield from file.pread(0, 1024)
        yield from file.close()
        return first

    first = client.runtime.run(op())
    assert first == BLOB[0:1024]
    engine = file.engine
    assert engine.stats["launched"] >= 2
    assert engine.stats["cancelled"] >= 1
    cancelled = client.metrics().counter("engine.cancelled_batches_total")
    assert cancelled.value == engine.stats["cancelled"]
    # Everything spawned was joined: nothing left in flight.
    assert not engine._inflight and not engine._discarded


def test_replacing_prefetch_abandons_old_plan():
    client = engine_world()
    file = DavFile(client.context, "http://server/blob")

    def op():
        file.prefetch(segments_spread(24))
        yield from file.pread(0, 1024)  # launches toward old plan
        # The application seeks: a fresh plan replaces the old one.
        file.prefetch(
            segments_spread(8, base=400_000), replace=True
        )
        data = yield from file.pread(400_000, 1024)
        yield from file.drain()
        return data

    data = client.runtime.run(op())
    assert data == BLOB[400_000 : 400_000 + 1024]
    engine = file.engine
    assert engine.stats["cancelled"] >= 1
    # The old plan is gone: only the new plan's segments remain known.
    assert engine.plan_depth <= 8


def test_abandon_frees_window_slots_immediately():
    client = engine_world()
    file = DavFile(client.context, "http://server/blob")

    def op():
        file.prefetch(segments_spread(32))
        yield from file.pread(0, 1024)
        engine = file.engine
        assert engine._inflight  # something is on the wire
        engine.abandon()
        # Slots settled synchronously: a new plan can launch at once.
        assert engine._tasks == 0 and engine._bytes == 0
        file.prefetch(segments_spread(4, base=600_000))
        data = yield from file.pread(600_000, 1024)
        yield from file.drain()
        return data

    data = client.runtime.run(op())
    assert data == BLOB[600_000 : 600_000 + 1024]


def test_close_without_engine_is_noop():
    client = engine_world()
    file = DavFile(
        client.context,
        "http://server/blob",
        client.context.params.replace(transfer=TransferConfig()),
    )

    def op():
        data = yield from file.pread(0, 16)
        yield from file.close()
        return data

    assert client.runtime.run(op()) == BLOB[:16]
