"""Chaos schedules for the v2 columnar format.

The format-equivalence acceptance criterion under fire: the same
generated dataset materialised as a v1 basket tree and a v2
page/cluster ntuple must decode to byte-identical columns while the
storage node injects seeded 5xx errors and mid-body resets.
Retries absorb every fault; repeats are byte-identical; and a
corrupted page always surfaces as a typed
:class:`~repro.errors.PageChecksumError` — never as silently wrong
bytes.
"""

import pytest

from repro.concurrency import SimRuntime
from repro.core import Context, RequestParams, RetryPolicy
from repro.errors import PageChecksumError
from repro.net import LinkSpec, Network
from repro.rootio import (
    LocalFetcher,
    TreeFileReader,
    generate_tree_bytes,
    write_ntuple_file,
)
from repro.rootio.fetchers import DavixFetcher
from repro.rootio.generator import BranchSpec, DatasetSpec
from repro.server import FaultPolicy, HttpServer, ObjectStore, StorageApp
from repro.sim import Environment
from tests.helpers import scan_columns

SPEC = DatasetSpec(
    name="hep_events",
    n_entries=600,
    branches=(
        BranchSpec("a", event_size=96, compress_ratio=0.5),
        BranchSpec("b", event_size=48, compress_ratio=0.5),
        BranchSpec("c", event_size=24, compress_ratio=0.9),
    ),
    basket_entries=100,
    seed=3,
)
V1_PATH = "/data/events.root"
V2_PATH = "/data/events.ntpl"

PARAMS = RequestParams(
    retry_policy=RetryPolicy(
        max_attempts=6, base_delay=0.05, max_delay=1.0, seed=2
    )
)


def blobs():
    """(v1 bytes, v2 bytes) of the same dataset: three clusters of
    2 KiB pages, so each cluster lane asks for many ranges."""
    v1_blob = generate_tree_bytes(SPEC)
    return (
        v1_blob,
        write_ntuple_file(
            SPEC.name,
            decode_all(v1_blob),
            n_entries=SPEC.n_entries,
            cluster_entries=200,
            page_bytes=2048,
        ),
    )


def ground_truth():
    """The dataset's columns, decoded locally from the v1 blob."""
    return decode_all(generate_tree_bytes(SPEC))


def decode_all(blob):
    """Every column of ``blob``, decoded without a transport."""
    reader = TreeFileReader(LocalFetcher(blob))

    def op():
        yield from reader.open()
        data = yield from reader.read_entries(0, SPEC.n_entries)
        return data

    from repro.concurrency import ThreadRuntime

    return ThreadRuntime().run(op())


def chaos_world(faults, v1_blob, v2_blob):
    """(runtime, context) with both blobs served by a faulty app."""
    env = Environment()
    net = Network(env)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client", "server", LinkSpec(latency=0.002, bandwidth=1e8)
    )
    server_rt = SimRuntime(net, "server")
    store = ObjectStore(clock=server_rt.now)
    store.put(V1_PATH, v1_blob)
    store.put(V2_PATH, v2_blob)
    HttpServer(server_rt, StorageApp(store, faults=faults), port=80).start()
    runtime = SimRuntime(net, "client")
    context = Context(params=PARAMS)
    context.clock = runtime.now
    return runtime, context


def read_both(runtime, context, lanes=3):
    """(v1 columns, v2 columns, v2 fetcher) read over the wire."""
    v1_reader = TreeFileReader(
        DavixFetcher(context, f"http://server{V1_PATH}", PARAMS)
    )
    v2_fetcher = DavixFetcher(context, f"http://server{V2_PATH}", PARAMS)
    v2_reader = TreeFileReader(v2_fetcher)

    def op():
        yield from v1_reader.open()
        v1 = yield from v1_reader.read_entries(0, SPEC.n_entries)
        yield from v2_reader.open()
        v2 = yield from scan_columns(v2_reader, lanes=lanes)
        return v1, v2

    v1, v2 = runtime.run(op())
    return v1, v2, v2_fetcher


def test_v2_matches_v1_under_chaos(chaos_seed):
    """Both formats, read through the same faulty server, decode to
    the same columns — and to the local ground truth."""
    v1_blob, v2_blob = blobs()
    truth = ground_truth()
    faults = FaultPolicy(
        error_rate=0.15, reset_rate=0.05, seed=chaos_seed
    )
    runtime, context = chaos_world(faults, v1_blob, v2_blob)
    v1, v2, _ = read_both(runtime, context)
    assert v1 == truth
    assert v2 == truth
    # The schedule actually injected faults (not a vacuous pass).
    injected = faults.snapshot()
    assert injected["error"] + injected["reset"] > 0


def test_chaos_repeats_are_byte_identical(chaos_seed):
    """Same seed + FaultPolicy.reset() => identical columns and
    identical fetch accounting."""
    v1_blob, v2_blob = blobs()
    faults = FaultPolicy(
        error_rate=0.2, reset_rate=0.05, seed=chaos_seed
    )
    runtime, context = chaos_world(faults, v1_blob, v2_blob)
    first_v1, first_v2, first_fetcher = read_both(runtime, context)
    faults.reset()
    runtime, context = chaos_world(faults, v1_blob, v2_blob)
    second_v1, second_v2, second_fetcher = read_both(runtime, context)
    assert first_v1 == second_v1
    assert first_v2 == second_v2
    assert first_fetcher.bytes_fetched == second_fetcher.bytes_fetched
    assert first_fetcher.reads == second_fetcher.reads


def test_corrupt_page_is_typed_under_chaos(chaos_seed):
    """A flipped bit in a stored page surfaces as PageChecksumError
    through retries and faults — never as silently wrong bytes."""
    v1_blob, v2_blob = blobs()
    # Find a v2 page and corrupt one byte in the middle of it.
    probe = TreeFileReader(LocalFetcher(v2_blob))
    from repro.concurrency import ThreadRuntime

    meta = ThreadRuntime().run(probe.open())
    page = meta.branch("b").baskets[1]
    corrupt = bytearray(v2_blob)
    corrupt[page.offset + page.nbytes // 2] ^= 0x20
    faults = FaultPolicy(error_rate=0.1, seed=chaos_seed)
    runtime, context = chaos_world(faults, v1_blob, bytes(corrupt))
    fetcher = DavixFetcher(context, f"http://server{V2_PATH}", PARAMS)
    reader = TreeFileReader(fetcher)

    def op():
        yield from reader.open()
        data = yield from scan_columns(reader, lanes=2)
        return data

    with pytest.raises(PageChecksumError):
        runtime.run(op())
