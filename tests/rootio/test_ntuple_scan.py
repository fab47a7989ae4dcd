"""Tests for TTreeCache over stored clusters: parallel decode lanes.

Correctness (bytes identical to direct page decode, any lane count),
the stats/metrics surface, the events clamp, decode=False layout runs,
and the timing claim itself: on a latency-dominated link more lanes
mean overlapped refills and a shorter wall clock.
"""

import pytest

from repro.concurrency import SimRuntime, ThreadRuntime
from repro.errors import PageChecksumError, RootIOError
from repro.net import LinkSpec, Network
from repro.obs import MetricsRegistry
from repro.rootio import (
    LocalFetcher,
    TTreeCache,
    TreeFileReader,
    write_ntuple_file,
)
from repro.workloads.analysis import _consumption_plan
from repro.sim import Environment


def run(op):
    return ThreadRuntime().run(op)


def build(n_entries=500, cluster_entries=100, page_bytes=64, compression=1):
    arrays = {
        "a": bytes((i * 3) % 256 for i in range(n_entries * 4)),
        "b": bytes((i * 5) % 256 for i in range(n_entries * 2)),
    }
    blob = write_ntuple_file(
        "t",
        arrays,
        n_entries=n_entries,
        cluster_entries=cluster_entries,
        page_bytes=page_bytes,
        compression=compression,
    )
    fetcher = LocalFetcher(blob)
    reader = TreeFileReader(fetcher)
    run(reader.open())
    return reader, fetcher, arrays, blob


def read_all(scan, n_entries, arrays):
    def op():
        for entry in range(n_entries):
            record = yield from scan.read_entry(entry)
            assert record["a"] == arrays["a"][entry * 4 : entry * 4 + 4]
            assert record["b"] == arrays["b"][entry * 2 : entry * 2 + 2]
        return True

    return run(op())


def test_sequential_scan_correct_and_vectored():
    reader, fetcher, arrays, _ = build()
    fetcher.reads = 0
    metrics = MetricsRegistry()
    scan = TTreeCache(reader, lanes=1, metrics=metrics)
    assert read_all(scan, 500, arrays)
    # 5 clusters, one vectored read each, batched one per refill.
    assert metrics.counter("ntuple.clusters_decoded_total").value == 5
    assert scan.stats["vector_reads"] == 5
    assert scan.stats["refills"] == 5
    assert fetcher.reads == 5


def test_lane_count_never_changes_bytes():
    reader, _, arrays, _ = build()
    for lanes in (1, 2, 4, 7):
        assert read_all(TTreeCache(reader, lanes=lanes), 500, arrays)


def test_lanes_batch_refills():
    reader, _, arrays, _ = build()
    scan = TTreeCache(reader, lanes=4)
    assert read_all(scan, 500, arrays)
    # 5 clusters / 4 lanes -> 2 refill barriers, all clusters decoded.
    assert scan.stats["refills"] == 2
    assert scan.stats["vector_reads"] == 5


def test_column_selection_reads_fewer_bytes():
    reader, _, arrays, _ = build()
    wide = TTreeCache(reader, lanes=2)
    read_all(wide, 500, arrays)
    narrow = TTreeCache(reader, branch_names=["a"], lanes=2)

    def op():
        for entry in range(500):
            record = yield from narrow.read_entry(entry)
            assert list(record) == ["a"]
            assert record["a"] == arrays["a"][entry * 4 : entry * 4 + 4]
        return True

    assert run(op())
    assert narrow.stats["bytes_fetched"] < wide.stats["bytes_fetched"]


def test_plan_clamps_and_orders_spans():
    """The consumption plan of a clamped scan: the stored clusters in
    order, no span past the clamp, and refills that load no row past
    it either."""
    reader, _, arrays, _ = build()
    meta = reader.meta
    full = _consumption_plan(meta, 500, 100)
    assert full == sorted(set(full))  # consumption order == disk order here
    clamped = _consumption_plan(meta, 150, 100)
    assert set(clamped) <= set(full)
    assert len(clamped) < len(full)
    # Every clamped span serves an entry below 150.
    kept = {
        page.span
        for branch in meta.branches
        for page in branch.baskets_for_entries(0, 150)
    }
    assert set(clamped) == kept
    scan = TTreeCache(reader, lanes=2, events=150)
    assert scan.stop == 150
    assert read_all(scan, 150, arrays)
    # One refill of two lanes, the second cut at the clamp.
    assert scan.stats["refills"] == 1
    assert scan._window == (0, 150)
    # Reading past the clamp still serves the entry, with a refill.
    assert run(scan.read_entry(151))["a"] == arrays["a"][604:608]
    assert scan.stats["refills"] == 2


def test_plan_events_below_one_clamps_to_one():
    reader, _, _, _ = build()
    assert _consumption_plan(reader.meta, 1, 100)  # the first cluster
    assert TTreeCache(reader, lanes=1, events=0).stop == 1


def test_decode_off_returns_none_buffers():
    reader, fetcher, arrays, _ = build()
    scan = TTreeCache(reader, lanes=2, decode=False)

    def op():
        record = yield from scan.read_entry(0)
        return record

    record = run(op())
    assert record == {"a": None, "b": None}
    assert scan.stats["bytes_fetched"] > 0
    assert scan.stats["bytes_decompressed"] > 0  # accounted, not spent


def test_out_of_range_entry_is_typed():
    reader, _, _, _ = build()
    scan = TTreeCache(reader, lanes=1)
    with pytest.raises(RootIOError, match="out of range"):
        run(scan.read_entry(500))


def test_requires_open_reader():
    blob = write_ntuple_file("t", {"a": bytes(8)}, n_entries=2)
    with pytest.raises(RootIOError):
        TTreeCache(TreeFileReader(LocalFetcher(blob)))
    reader = TreeFileReader(LocalFetcher(blob))
    run(reader.open())
    with pytest.raises(ValueError):
        TTreeCache(reader, lanes=0)


def test_checksum_failure_is_typed_and_counted():
    reader, _, _, blob = build()
    page = reader.meta.branch("a").baskets[3]
    corrupt = bytearray(blob)
    corrupt[page.offset + page.nbytes // 2] ^= 0x40
    bad = TreeFileReader(LocalFetcher(bytes(corrupt)))
    run(bad.open())
    metrics = MetricsRegistry()
    scan = TTreeCache(bad, lanes=2, metrics=metrics)
    with pytest.raises(PageChecksumError):
        read_all(scan, 500, {})
    assert metrics.counter("ntuple.checksum_failures_total").value == 1


def test_metrics_and_phase_histogram():
    reader, _, arrays, _ = build()
    metrics = MetricsRegistry()
    clock = [0.0]

    def tick():
        clock[0] += 1.0
        return clock[0]

    scan = TTreeCache(reader, lanes=2, metrics=metrics, clock=tick)
    read_all(scan, 500, arrays)
    assert metrics.counter("ntuple.clusters_decoded_total").value == 5
    assert metrics.counter("ntuple.bytes_fetched_total").value == scan.stats[
        "bytes_fetched"
    ]
    hist = metrics.histogram("request.phase_seconds", phase="ntuple-decode")
    assert hist.count == scan.stats["refills"]


def test_more_lanes_cut_wall_clock_on_a_slow_link():
    """The perf claim in miniature: refilling 4 clusters concurrently
    over a latency-dominated link beats serial refills."""
    from repro.core import Context
    from repro.rootio import DavixFetcher
    from repro.server import HttpServer, ObjectStore, StorageApp

    arrays = {"a": bytes(1000 * 4)}
    blob = write_ntuple_file(
        "t", arrays, n_entries=1000, cluster_entries=100, page_bytes=256
    )

    def wall(lanes):
        env = Environment()
        net = Network(env)
        net.add_host("client")
        net.add_host("server")
        net.set_route(
            "client", "server", LinkSpec(latency=0.05, bandwidth=1e9)
        )
        store = ObjectStore()
        store.put("/t.ntpl", blob)
        HttpServer(
            SimRuntime(net, "server"), StorageApp(store), port=80
        ).start()
        runtime = SimRuntime(net, "client")
        context = Context()
        context.clock = runtime.now

        def op():
            fetcher = DavixFetcher(context, "http://server/t.ntpl")
            reader = TreeFileReader(fetcher)
            yield from reader.open()
            scan = TTreeCache(reader, lanes=lanes)
            start = runtime.now()
            for entry in range(1000):
                yield from scan.read_entry(entry)
            return runtime.now() - start

        return runtime.run(op())

    serial = wall(1)
    fanned = wall(4)
    assert fanned < serial * 0.55  # ~10 RTT-bound refills collapse to ~3


def test_decompress_bandwidth_charges_cpu_time():
    from repro.core import Context
    from repro.rootio import DavixFetcher
    from repro.server import HttpServer, ObjectStore, StorageApp

    arrays = {"a": bytes(200 * 4)}
    blob = write_ntuple_file(
        "t", arrays, n_entries=200, cluster_entries=100, page_bytes=256
    )
    env = Environment()
    net = Network(env)
    net.add_host("client")
    net.add_host("server")
    net.set_route("client", "server", LinkSpec(latency=1e-5, bandwidth=1e10))
    store = ObjectStore()
    store.put("/t.ntpl", blob)
    HttpServer(SimRuntime(net, "server"), StorageApp(store), port=80).start()
    runtime = SimRuntime(net, "client")
    context = Context()
    context.clock = runtime.now

    def op(bandwidth):
        fetcher = DavixFetcher(context, "http://server/t.ntpl")
        reader = TreeFileReader(fetcher)
        yield from reader.open()
        scan = TTreeCache(
            reader, lanes=1, decompress_bandwidth=bandwidth
        )
        start = runtime.now()
        for entry in range(200):
            yield from scan.read_entry(entry)
        return runtime.now() - start

    slow = runtime.run(op(1e6))
    fast = runtime.run(op(1e12))
    # 2 serial refills x 400 B uncompressed each at 1 MB/s.
    assert slow - fast == pytest.approx(2 * 400 / 1e6, rel=0.2)
