"""Tests (incl. property-based) for vectored-I/O planning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PartTable, plan_vector, scatter_parts
from repro.core.vectored import Fragment
from repro.errors import RequestError


def test_empty_plan():
    plan = plan_vector([])
    assert plan.batches == []
    assert plan.total_ranges == 0


def test_single_fragment():
    plan = plan_vector([(100, 50)])
    assert plan.total_ranges == 1
    assert plan.batches[0][0].offset == 100
    assert plan.batches[0][0].length == 50


def test_adjacent_fragments_coalesce():
    plan = plan_vector([(0, 10), (10, 10), (20, 10)], gap=0)
    assert plan.total_ranges == 1
    rng = plan.batches[0][0]
    assert (rng.offset, rng.length) == (0, 30)
    assert len(rng.fragments) == 3


def test_gap_threshold_controls_merging():
    reads = [(0, 10), (100, 10)]
    assert plan_vector(reads, gap=0).total_ranges == 2
    assert plan_vector(reads, gap=89).total_ranges == 2
    assert plan_vector(reads, gap=90).total_ranges == 1


def test_overlapping_and_duplicate_fragments():
    plan = plan_vector([(0, 20), (10, 20), (0, 20)], gap=0)
    assert plan.total_ranges == 1
    assert plan.batches[0][0].length == 30


def test_unsorted_input_is_sorted():
    plan = plan_vector([(100, 10), (0, 10)], gap=0)
    offsets = [r.offset for r in plan.batches[0]]
    assert offsets == [0, 100]


def test_batching_respects_max_ranges():
    reads = [(i * 1000, 10) for i in range(10)]
    plan = plan_vector(reads, max_ranges=3, gap=0)
    assert [len(b) for b in plan.batches] == [3, 3, 3, 1]


def test_byte_accounting():
    plan = plan_vector([(0, 10), (15, 10)], gap=5)
    assert plan.requested_bytes == 20
    assert plan.total_request_bytes == 25  # includes the 5-byte gap


def test_validation():
    with pytest.raises(ValueError):
        plan_vector([(0, 10)], max_ranges=0)
    with pytest.raises(ValueError):
        plan_vector([(0, 10)], gap=-1)
    with pytest.raises(ValueError):
        plan_vector([(-1, 10)])
    with pytest.raises(ValueError):
        plan_vector([(0, 0)])


def test_scatter_exact_parts():
    plan = plan_vector([(0, 5), (20, 5)], gap=0)
    parts = PartTable.from_parts([(0, b"AAAAA"), (20, b"BBBBB")])
    result = scatter_parts(plan.batches[0], parts)
    assert result == {0: b"AAAAA", 1: b"BBBBB"}


def test_scatter_from_coalesced_part():
    plan = plan_vector([(0, 5), (8, 5)], gap=10)
    assert plan.total_ranges == 1
    parts = PartTable.from_parts([(0, b"0123456789ABC")])
    result = scatter_parts(plan.batches[0], parts)
    assert result == {0: b"01234", 1: b"89ABC"}


def test_scatter_from_larger_enclosing_part():
    plan = plan_vector([(10, 5)], gap=0)
    # The server sent the whole object.
    parts = PartTable.from_parts([(0, b"0123456789ABCDEFGH")])
    result = scatter_parts(plan.batches[0], parts)
    assert result == {0: b"ABCDE"}


def test_scatter_missing_coverage_raises():
    plan = plan_vector([(100, 5)], gap=0)
    with pytest.raises(RequestError):
        scatter_parts(
            plan.batches[0], PartTable.from_parts([(0, b"short")])
        )


# -- PartTable: the bisect-indexed zero-copy part lookup ---------------------


def test_part_table_bisect_find():
    from repro.core import PartTable

    table = PartTable.from_parts(
        [(100, b"A" * 10), (0, b"B" * 10), (50, b"C" * 10)]
    )
    assert len(table) == 3
    # Exact hits, interior slices, and boundary spans.
    assert bytes(table.find(0, 10)) == b"B" * 10
    assert bytes(table.find(52, 3)) == b"CCC"
    assert bytes(table.find(105, 5)) == b"AAAAA"


def test_part_table_find_returns_memoryview_zero_copy():
    from repro.core import PartTable

    buffer = bytes(range(256))
    table = PartTable.from_parts([(1000, buffer)])
    view = table.find(1010, 4)
    assert isinstance(view, memoryview)
    assert view == buffer[10:14]
    # Zero-copy: the view aliases the original buffer.
    assert view.obj is buffer


def test_part_table_uncovered_lookup_raises():
    from repro.core import PartTable

    table = PartTable.from_parts([(0, b"x" * 10), (100, b"y" * 10)])
    for offset, length in ((5, 10), (50, 5), (95, 10), (200, 1)):
        with pytest.raises(RequestError):
            table.find(offset, length)
        assert not table.covers(offset, length)
    assert table.covers(0, 10)
    assert table.covers(102, 8)


def test_part_table_overlapping_parts_scan_left():
    from repro.core import PartTable

    # A long early part covers a span the nearest (short) part cannot.
    table = PartTable.from_parts([(0, b"L" * 100), (40, b"S" * 5)])
    assert bytes(table.find(40, 30)) == b"L" * 30


def test_part_table_same_offset_keeps_longest():
    from repro.core import PartTable

    table = PartTable.from_parts([(10, b"long-part")])
    table.add(10, b"x")  # shorter: ignored
    assert bytes(table.find(10, 9)) == b"long-part"
    table.add(10, b"even-longer-part")
    assert bytes(table.find(10, 16)) == b"even-longer-part"
    assert len(table) == 1


def test_part_table_merge_refetch_path():
    from repro.core import PartTable

    table = PartTable.from_parts([(0, b"a" * 8)])
    more = PartTable.from_parts([(100, b"b" * 8), (0, b"a" * 16)])
    table.merge(more)
    assert bytes(table.find(0, 16)) == b"a" * 16
    assert bytes(table.find(100, 8)) == b"b" * 8


def test_scatter_hands_over_a_whole_part_and_copies_a_sub_range():
    """A fragment that is all of its covering part is that part's
    ``bytes`` object itself (immutable, so sharing is safe); anything
    less is cut out as a copy."""
    whole = b"W" * 64
    shared = b"0123456789"
    table = PartTable.from_parts([(0, whole), (100, shared)])
    plan = plan_vector([(0, 64), (100, 4), (104, 6)], gap=0)
    out = scatter_parts(plan.batches[0], table)
    assert out[0] is whole
    assert out[1] == b"0123" and out[2] == b"456789"
    assert type(out[1]) is bytes and type(out[2]) is bytes
    assert table.read(0, 64) is whole
    assert table.read(100, 10) is shared
    assert table.read(101, 9) == shared[1:]
    # A mutable part is never handed over.
    mutable = bytearray(b"M" * 8)
    out = scatter_parts(
        plan_vector([(0, 8)]).batches[0],
        PartTable.from_parts([(0, mutable)]),
    )
    assert type(out[0]) is bytes and out[0] == bytes(mutable)


def test_missing_ranges_with_table():
    from repro.core import PartTable, missing_ranges

    plan = plan_vector([(0, 10), (100, 10)], gap=0)
    table = PartTable.from_parts([(0, b"z" * 10)])
    missing = missing_ranges(plan.batches[0], table)
    assert [rng.offset for rng in missing] == [100]
    table.add(100, b"z" * 10)
    assert missing_ranges(plan.batches[0], table) == []


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=1, max_value=64),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_part_table_find_matches_linear_scan(spans):
    """The bisect lookup agrees with a brute-force linear scan."""
    from repro.core import PartTable

    content = bytes(i % 251 for i in range(6000))
    parts = [(o, content[o : o + n]) for o, n in spans]
    table = PartTable.from_parts(parts)
    probes = [(o, n) for o, n in spans] + [
        (o + 1, n) for o, n in spans
    ]
    for offset, length in probes:
        linear = next(
            (
                data[offset - part_offset :][:length]
                for part_offset, data in parts
                if part_offset <= offset
                and offset + length <= part_offset + len(data)
            ),
            None,
        )
        if linear is None:
            assert not table.covers(offset, length)
        else:
            assert bytes(table.find(offset, length)) == linear


reads_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=5000),
    ),
    min_size=1,
    max_size=60,
)


@given(
    reads_strategy,
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_plan_covers_every_fragment(reads, max_ranges, gap):
    plan = plan_vector(reads, max_ranges=max_ranges, gap=gap)
    ranges = [rng for batch in plan.batches for rng in batch]
    # 1. every fragment is covered by exactly one coalesced range
    seen = set()
    for rng in ranges:
        for fragment in rng.fragments:
            assert rng.covers(fragment)
            assert fragment.index not in seen
            seen.add(fragment.index)
    assert seen == set(range(len(reads)))
    # 2. ranges are disjoint and sorted
    for before, after in zip(ranges, ranges[1:]):
        assert before.end + gap < after.offset or before.end <= after.offset
    # 3. batch size limit holds
    assert all(len(batch) <= max_ranges for batch in plan.batches)
    # 4. no range is wider than the span of its fragments
    for rng in ranges:
        low = min(f.offset for f in rng.fragments)
        high = max(f.end for f in rng.fragments)
        assert rng.offset == low
        assert rng.end == high


@given(reads_strategy, st.integers(min_value=0, max_value=2048))
def test_scatter_recovers_fragment_bytes(reads, gap):
    # Simulate a server: build content, answer each range exactly.
    content = bytes(i % 251 for i in range(1_010_000))
    plan = plan_vector(reads, max_ranges=64, gap=gap)
    out = {}
    for batch in plan.batches:
        parts = PartTable.from_parts(
            (rng.offset, content[rng.offset : rng.end]) for rng in batch
        )
        out.update(scatter_parts(batch, parts))
    for index, (offset, length) in enumerate(reads):
        assert out[index] == content[offset : offset + length]
