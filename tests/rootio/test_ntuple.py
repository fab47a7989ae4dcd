"""Tests for the v2 ntuple container format.

Round-trip through the one reader, footer wire format, v1/v2 decoded
equality, per-column compression (including level-0 store), structural
validation and the checksum contract: a corrupted page surfaces as
:class:`~repro.errors.PageChecksumError` before decompression, never as
silent corruption.
"""

import json
import struct
import zlib

import pytest

from repro.concurrency import ThreadRuntime
from repro.errors import PageChecksumError, RootIOError
from repro.rootio import (
    BranchSpec,
    DatasetSpec,
    LocalFetcher,
    NTupleMeta,
    TreeFileReader,
    TreeMeta,
    decode_page,
    generate_ntuple_bytes,
    generate_tree_bytes,
    write_ntuple_file,
    write_tree_file,
)
from repro.rootio.treefile import HEADER, MAGIC, NTUPLE_MAGIC, meta_from_json


def run(op):
    """Drive an effect sub-op that never does I/O (LocalFetcher)."""
    return ThreadRuntime().run(op)


def arrays_for(n_entries, sizes=(4, 2)):
    return {
        f"col{i}": bytes(
            (j * (3 + 2 * i) + i) % 256 for j in range(n_entries * size)
        )
        for i, size in enumerate(sizes)
    }


def small_ntuple(
    n_entries=250,
    cluster_entries=100,
    page_bytes=64,
    compression=1,
):
    arrays = arrays_for(n_entries)
    blob = write_ntuple_file(
        "events",
        arrays,
        n_entries=n_entries,
        cluster_entries=cluster_entries,
        page_bytes=page_bytes,
        compression=compression,
    )
    return blob, arrays


def open_reader(blob):
    reader = TreeFileReader(LocalFetcher(blob))
    meta = run(reader.open())
    return reader, meta


# -- round-trip -------------------------------------------------------------


def test_write_and_open():
    blob, arrays = small_ntuple()
    reader, meta = open_reader(blob)
    assert meta.name == "events"
    assert meta.n_entries == 250
    assert meta.branch_names == ["col0", "col1"]
    assert [c.n_entries for c in meta.cluster_list] == [100, 100, 50]
    assert meta.file_size == len(blob)


def test_read_entries_round_trips_every_column():
    blob, arrays = small_ntuple()
    reader, meta = open_reader(blob)
    data = run(reader.read_entries(0, meta.n_entries))
    assert data == arrays


def test_read_entries_sub_range_and_column_selection():
    blob, arrays = small_ntuple()
    reader, meta = open_reader(blob)
    data = run(reader.read_entries(73, 188, branch_names=["col1"]))
    assert list(data) == ["col1"]
    assert data["col1"] == arrays["col1"][73 * 2 : 188 * 2]


def test_lanes_do_not_change_bytes():
    blob, arrays = small_ntuple()
    reader, meta = open_reader(blob)
    serial = run(reader.read_entries(0, meta.n_entries, lanes=1))
    fanned = run(reader.read_entries(0, meta.n_entries, lanes=4))
    assert serial == fanned == arrays


def test_open_costs_exactly_two_fetches():
    """Header read + one ranged footer GET — the separable-footer
    promise (v1 needs the whole index tail scan)."""
    blob, _ = small_ntuple()
    fetcher = LocalFetcher(blob)
    reader = TreeFileReader(fetcher)
    run(reader.open())
    assert fetcher.reads == 2


def test_pages_respect_byte_budget_and_cluster_bounds():
    blob, _ = small_ntuple(page_bytes=64)
    _, meta = open_reader(blob)
    for column in meta.branches:
        for page in column.baskets:
            assert page.uncompressed <= max(64, column.event_size)
    # validate() enforces no page straddles a cluster; rerun explicitly.
    meta.validate()


# -- per-column compression -------------------------------------------------


def test_per_column_levels_including_store():
    n = 200
    arrays = {
        "noise": bytes((i * 131 + 17) % 256 for i in range(n * 8)),
        "zeros": bytes(n * 8),
    }
    blob = write_ntuple_file(
        "mixed",
        arrays,
        n_entries=n,
        cluster_entries=100,
        page_bytes=256,
        compression={"noise": 0, "zeros": 9},
    )
    reader, meta = open_reader(blob)
    assert meta.branch("noise").level == 0
    assert meta.branch("zeros").level == 9
    # Store pays only the frame overhead; zlib-9 crushes the zeros.
    assert meta.branch("noise").compressed_bytes > n * 8
    assert meta.branch("zeros").compressed_bytes < n * 8 // 4
    assert run(reader.read_entries(0, n)) == arrays


def test_scalar_compression_applies_to_every_column():
    blob, _ = small_ntuple(compression=5)
    _, meta = open_reader(blob)
    assert all(column.level == 5 for column in meta.branches)


# -- v1 equivalence ---------------------------------------------------------


def test_v1_and_v2_decode_identically_from_one_spec():
    spec = DatasetSpec(
        name="equiv",
        n_entries=1200,
        branches=(
            BranchSpec(name="a", event_size=16, compress_ratio=0.5),
            BranchSpec(name="b", event_size=4, compress_ratio=1.0),
        ),
        basket_entries=50,
    )
    v1 = TreeFileReader(LocalFetcher(generate_tree_bytes(spec)))
    run(v1.open())
    v2 = TreeFileReader(LocalFetcher(generate_ntuple_bytes(spec)))
    assert len(run(v2.open()).cluster_list) == 3
    for name in ("a", "b"):
        branch = v1.meta.branch(name)
        want = b"".join(
            run(v1.read_basket(basket)) for basket in branch.baskets
        )
        got = run(v2.read_entries(0, spec.n_entries, branch_names=[name]))
        assert got[name] == want


# -- one reader for both magics ---------------------------------------------


def test_one_reader_opens_both_magics():
    arrays = arrays_for(250)
    tree = write_tree_file("events", arrays, n_entries=250)
    ntuple, _ = small_ntuple()
    assert (tree[:8], ntuple[:8]) == (MAGIC, NTUPLE_MAGIC)
    v1, v1_meta = open_reader(tree)
    v2, v2_meta = open_reader(ntuple)
    assert type(v1_meta) is TreeMeta
    assert type(v2_meta) is NTupleMeta
    assert v1_meta.cluster_list == ()
    for reader in (v1, v2):
        assert run(reader.read_entries(0, 250)) == arrays
        assert run(reader.read_entries(0, 250, lanes=4)) == arrays


# -- footer / validation errors ---------------------------------------------


def test_bad_magic_is_typed():
    for write in (write_ntuple_file, write_tree_file):
        blob = write("events", arrays_for(250), n_entries=250)
        reader = TreeFileReader(LocalFetcher(b"JUNK4567" + blob[8:]))
        with pytest.raises(RootIOError, match="magic"):
            run(reader.open())


def test_truncated_footer_is_typed():
    blob, _ = small_ntuple()
    reader = TreeFileReader(LocalFetcher(blob[:-10]))
    with pytest.raises(RootIOError, match="truncated"):
        run(reader.open())


def test_garbage_footer_is_typed():
    blob, _ = small_ntuple()
    magic, footer_offset, footer_len = HEADER.unpack(blob[: HEADER.size])
    bad = blob[:footer_offset] + b"\xff" * footer_len
    with pytest.raises(RootIOError, match="footer"):
        run(TreeFileReader(LocalFetcher(bad)).open())


def test_file_shorter_than_header_is_typed():
    with pytest.raises(RootIOError, match="too short"):
        run(TreeFileReader(LocalFetcher(b"RNTP")).open())


def test_footer_with_missing_fields_is_typed():
    with pytest.raises(RootIOError, match="malformed"):
        meta_from_json({"name": "x"}, magic=NTUPLE_MAGIC)


@pytest.mark.parametrize(
    "mutate,message",
    [
        # Clusters must tile [0, n_entries) contiguously.
        (lambda d: d["clusters"].pop(0), "cluster"),
        (lambda d: d.__setitem__("n_entries", 999), "entries"),
        # A page that crosses its cluster's end breaks lane independence.
        (
            lambda d: d["columns"][0]["pages"].__setitem__(
                1,
                d["columns"][0]["pages"][1][:3]
                + [150]
                + [150 * d["columns"][0]["event_size"]]
                + d["columns"][0]["pages"][1][5:],
            ),
            "straddles|expected",
        ),
    ],
)
def test_validate_rejects_inconsistent_footers(mutate, message):
    blob, _ = small_ntuple()
    _, footer_offset, footer_len = HEADER.unpack(blob[: HEADER.size])
    doc = json.loads(blob[footer_offset : footer_offset + footer_len])
    mutate(doc)
    with pytest.raises(RootIOError, match=message):
        meta_from_json(doc, magic=NTUPLE_MAGIC)


def test_write_rejects_misaligned_column():
    with pytest.raises(RootIOError, match="divide"):
        write_ntuple_file("x", {"a": b"12345"}, n_entries=2)


# -- checksum contract ------------------------------------------------------


def test_corrupt_page_raises_checksum_error_not_garbage():
    blob, _ = small_ntuple()
    reader, meta = open_reader(blob)
    page = meta.branch("col0").baskets[2]
    corrupt = bytearray(blob)
    corrupt[page.offset + page.nbytes - 1] ^= 0xFF
    bad = TreeFileReader(LocalFetcher(bytes(corrupt)))
    run(bad.open())
    with pytest.raises(PageChecksumError):
        run(bad.read_entries(0, meta.n_entries))


def test_corrupt_store_page_is_still_caught():
    """Level-0 pages carry no codec integrity data — the page adler32
    is the only guard, and it must fire."""
    n = 120
    arrays = {"a": bytes((i * 7) % 256 for i in range(n * 4))}
    blob = write_ntuple_file(
        "s", arrays, n_entries=n, cluster_entries=60,
        page_bytes=128, compression=0,
    )
    reader, meta = open_reader(blob)
    page = meta.branch("a").baskets[0]
    corrupt = bytearray(blob)
    # Flip a payload byte (past the 11-byte frame header).
    corrupt[page.offset + 15] ^= 0x01
    bad = TreeFileReader(LocalFetcher(bytes(corrupt)))
    run(bad.open())
    with pytest.raises(PageChecksumError):
        run(bad.read_entries(0, n))


def test_decode_page_checks_a_stored_page_before_returning_it():
    """A stored (level-0) page inflates to any bytes at all: only the
    checksum tells a flipped payload byte."""
    blob, arrays = small_ntuple(compression=0)
    _, meta = open_reader(blob)
    page = meta.branch("col0").baskets[0]
    raw = bytearray(blob[page.offset : page.offset + page.nbytes])
    assert decode_page(bytes(raw), page) == arrays["col0"][: page.uncompressed]
    raw[-1] ^= 0x01  # corrupt a stored payload byte
    with pytest.raises(PageChecksumError):
        decode_page(bytes(raw), page)


def test_short_page_read_is_typed():
    blob, _ = small_ntuple()
    _, meta = open_reader(blob)
    page = meta.branch("col0").baskets[0]
    with pytest.raises(RootIOError, match="short page"):
        decode_page(blob[page.offset : page.offset + page.nbytes - 1], page)


def test_header_layout_is_stable():
    assert HEADER.size == 24
    assert struct.calcsize(">8sQQ") == 24
    blob, _ = small_ntuple()
    assert blob[:8] == NTUPLE_MAGIC
    # adler32 in the footer matches the on-disk page bytes.
    _, meta = open_reader(blob)
    page = meta.branch("col1").baskets[0]
    disk = blob[page.offset : page.offset + page.nbytes]
    assert zlib.adler32(disk) & 0xFFFFFFFF == page.checksum
