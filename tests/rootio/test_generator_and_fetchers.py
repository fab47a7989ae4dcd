"""Tests for dataset generation and the remote fetchers."""

from dataclasses import replace

import pytest

from repro.concurrency import SimRuntime, ThreadRuntime
from repro.core import Context
from repro.rootio import (
    BranchSpec,
    DatasetSpec,
    DavixFetcher,
    LocalFetcher,
    TreeFileReader,
    XrootdFetcher,
    generate_tree_bytes,
    generate_tree_layout,
    paper_dataset,
)
from repro.server import HttpServer, ObjectStore, StorageApp
from repro.xrootd import XrdClient, XrdServer, serve_xrootd

from tests.helpers import sim_world


def small_spec(n_entries=300):
    return DatasetSpec(
        name="t",
        n_entries=n_entries,
        branches=(
            BranchSpec("x", event_size=64, compress_ratio=0.5),
            BranchSpec("y", event_size=32, compress_ratio=0.9),
        ),
        basket_entries=100,
        seed=7,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        BranchSpec("x", event_size=0)
    with pytest.raises(ValueError):
        BranchSpec("x", event_size=10, compress_ratio=0.0)
    with pytest.raises(ValueError):
        DatasetSpec(name="t", n_entries=0, branches=(BranchSpec("x", 1),))
    with pytest.raises(ValueError):
        DatasetSpec(name="t", n_entries=1, branches=())


def test_spec_rejects_empty_baskets_at_construction():
    with pytest.raises(ValueError, match="basket_entries must be >= 1"):
        replace(paper_dataset(0.01), basket_entries=0)


def test_paper_dataset_matches_quoted_numbers():
    spec = paper_dataset()
    assert spec.n_entries == 12_000
    compressed = spec.approx_compressed_size
    assert 6e8 < compressed < 8e8  # ~700 MB
    scaled = paper_dataset(scale=0.1)
    assert scaled.n_entries == 12_000  # request counts preserved
    assert scaled.approx_compressed_size < compressed / 8


def test_generated_bytes_are_readable_and_sized():
    spec = small_spec()
    blob = generate_tree_bytes(spec)
    reader = TreeFileReader(LocalFetcher(blob))
    meta = ThreadRuntime().run(reader.open())
    assert meta.n_entries == 300
    out = ThreadRuntime().run(reader.read_entries(50, 60))
    assert len(out["x"]) == 10 * 64
    assert len(out["y"]) == 10 * 32


def test_generated_compression_ratio_approximate():
    spec = small_spec(n_entries=2000)
    blob = generate_tree_bytes(spec)
    reader = TreeFileReader(LocalFetcher(blob))
    meta = ThreadRuntime().run(reader.open())
    x = meta.branch("x")
    ratio = x.compressed_bytes / x.uncompressed_bytes
    assert 0.35 < ratio < 0.65  # targeted 0.5


def test_generation_is_deterministic():
    assert generate_tree_bytes(small_spec()) == generate_tree_bytes(
        small_spec()
    )


def test_layout_matches_materialised_structure():
    spec = small_spec()
    layout = generate_tree_layout(spec)
    blob = generate_tree_bytes(spec)
    reader = TreeFileReader(LocalFetcher(blob))
    real = ThreadRuntime().run(reader.open())
    assert layout.n_entries == real.n_entries
    assert layout.branch_names == real.branch_names
    for name in layout.branch_names:
        assert len(layout.branch(name).baskets) == len(
            real.branch(name).baskets
        )
    # Sizes statistically close (same ratio target).
    assert layout.compressed_bytes == pytest.approx(
        real.compressed_bytes, rel=0.35
    )


def test_layout_validates():
    layout = generate_tree_layout(paper_dataset(scale=0.01))
    layout.validate()
    assert layout.file_size > 0


def test_davix_fetcher_reads_tree_over_http():
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    spec = small_spec()
    blob = generate_tree_bytes(spec)
    store.put("/t.root", blob)
    HttpServer(server_rt, StorageApp(store), port=80).start()
    context = Context()
    fetcher = DavixFetcher(context, "http://server/t.root")

    def op():
        size = yield from fetcher.size()
        reader = TreeFileReader(fetcher)
        meta = yield from reader.open()
        out = yield from reader.read_entries(120, 140)
        return size, meta.n_entries, out

    size, entries, out = client_rt.run(op())
    assert size == len(blob)
    assert entries == 300
    local = TreeFileReader(LocalFetcher(blob))
    ThreadRuntime().run(local.open())
    expected = ThreadRuntime().run(local.read_entries(120, 140))
    assert out == expected
    # The vectored fetch really was one HTTP request for many baskets.
    assert fetcher.reads == 3  # size + open(2 reads? no: header+index) ...


def test_xrootd_fetcher_reads_tree():
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    spec = small_spec()
    blob = generate_tree_bytes(spec)
    store.put("/t.root", blob)
    serve_xrootd(server_rt, XrdServer(store), port=1094)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        file = yield from client.open("/t.root")
        fetcher = XrootdFetcher(client, file)
        reader = TreeFileReader(fetcher)
        yield from reader.open()
        out = yield from reader.read_entries(120, 140)
        return out

    out = client_rt.run(op())
    local = TreeFileReader(LocalFetcher(blob))
    ThreadRuntime().run(local.open())
    expected = ThreadRuntime().run(local.read_entries(120, 140))
    assert out == expected


def test_xrootd_fetcher_with_readahead_window():
    client_rt, server_rt = sim_world(latency=0.02)
    store = ObjectStore()
    blob = generate_tree_bytes(small_spec())
    store.put("/t.root", blob)
    serve_xrootd(server_rt, XrdServer(store), port=1094)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        file = yield from client.open("/t.root")
        fetcher = XrootdFetcher(client, file, window_bytes=1 << 20)
        reader = TreeFileReader(fetcher)
        meta = yield from reader.open()
        segments = meta.segments_for_entries(0, meta.n_entries)
        fetcher.plan(segments)
        pieces = []
        for offset, length in segments:
            piece = yield from fetcher.fetch(offset, length)
            pieces.append(piece)
        yield from fetcher.drain()
        return fetcher.engine.stats, pieces

    stats, pieces = client_rt.run(op())
    assert len(pieces) == 6  # 3 baskets x 2 branches
    local = TreeFileReader(LocalFetcher(blob))
    meta = ThreadRuntime().run(local.open())
    assert pieces == [
        blob[offset : offset + length]
        for offset, length in meta.segments_for_entries(0, meta.n_entries)
    ]
    # With no plan fed, the engine serves each of the reader's two
    # open reads as a one-read plan; then the six planned baskets.
    assert stats["hits"] == 8
    assert stats["misses"] == 0
