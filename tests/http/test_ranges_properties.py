"""Property-based tests for range grammar and vector coalescing.

Seeded stdlib ``random`` only (no extra dependencies): each test drives
a few hundred generated cases and asserts the structural invariants the
multi-range machinery relies on.
"""

import random

import pytest

from repro.core.vectored import PartTable, plan_vector, scatter_parts
from repro.http.ranges import (
    RangeSpec,
    format_range_header,
    merge_spans,
    parse_range_header,
    resolve_ranges,
)

N_CASES = 200


def random_spec(rng):
    shape = rng.randrange(3)
    if shape == 0:  # bounded
        first = rng.randrange(0, 10_000)
        return RangeSpec(first=first, last=first + rng.randrange(0, 5000))
    if shape == 1:  # open tail
        return RangeSpec(first=rng.randrange(0, 10_000), last=None)
    return RangeSpec(first=None, last=rng.randrange(0, 5000))  # suffix


def test_format_parse_round_trip():
    rng = random.Random(1)
    for _ in range(N_CASES):
        specs = [random_spec(rng) for _ in range(rng.randrange(1, 10))]
        assert parse_range_header(format_range_header(specs)) == specs


def test_resolve_ranges_invariants():
    rng = random.Random(2)
    for _ in range(N_CASES):
        size = rng.randrange(0, 20_000)
        specs = [random_spec(rng) for _ in range(rng.randrange(1, 8))]
        for offset, length in resolve_ranges(specs, size):
            assert 0 <= offset < size
            assert length >= 1
            assert offset + length <= size


def random_reads(rng, max_offset=100_000):
    return [
        (rng.randrange(0, max_offset), rng.randrange(1, 4000))
        for _ in range(rng.randrange(1, 40))
    ]


def byte_set(spans):
    return {
        position
        for offset, length in spans
        for position in range(offset, offset + length)
    }


def test_merge_spans_invariants():
    rng = random.Random(7)
    for _ in range(N_CASES):
        spans = random_reads(rng, max_offset=20_000)
        merged = merge_spans(spans)
        # Sorted, and neither overlapping nor adjacent.
        for (a, n), (b, _) in zip(merged, merged[1:]):
            assert a + n < b
        # The same byte set, no more and no less.
        assert byte_set(merged) == byte_set(spans)
        assert merge_spans(merged) == merged
    assert merge_spans([]) == []
    assert merge_spans([(5, 5), (0, 5)]) == [(0, 10)]


def test_plan_vector_invariants():
    rng = random.Random(3)
    for _ in range(N_CASES):
        reads = random_reads(rng)
        max_ranges = rng.randrange(1, 8)
        gap = rng.choice((0, 1, 64, 512, 10_000))
        plan = plan_vector(reads, max_ranges=max_ranges, gap=gap)

        # Every fragment is covered by exactly one coalesced range.
        owners = {}
        for batch in plan.batches:
            for rng_ in batch:
                for fragment in rng_.fragments:
                    assert rng_.covers(fragment)
                    assert fragment.index not in owners
                    owners[fragment.index] = rng_
        assert sorted(owners) == list(range(len(reads)))

        # Batches respect the server's range-count guard.
        assert all(
            1 <= len(batch) <= max_ranges for batch in plan.batches
        )

        # Coalesced ranges are disjoint, sorted, and farther apart
        # than the gap threshold (else they would have merged).
        merged = [rng_ for batch in plan.batches for rng_ in batch]
        for left, right in zip(merged, merged[1:]):
            assert left.end <= right.offset
            assert right.offset - left.end > gap


def test_scatter_reconstructs_exact_bytes():
    rng = random.Random(4)
    blob = bytes(rng.randrange(256) for _ in range(120_000))
    for _ in range(50):
        reads = random_reads(rng, max_offset=100_000)
        plan = plan_vector(reads, max_ranges=5, gap=256)
        out = {}
        for batch in plan.batches:
            parts = PartTable.from_parts(
                (rng_.offset, blob[rng_.offset : rng_.end])
                for rng_ in batch
            )
            out.update(scatter_parts(batch, parts))
        assert [out[i] for i in range(len(reads))] == [
            blob[o : o + n] for o, n in reads
        ]


def test_plan_preserves_duplicate_and_overlapping_reads():
    reads = [(0, 100), (0, 100), (50, 100), (10, 10)]
    plan = plan_vector(reads, gap=0)
    assert len(plan.fragments) == 4
    (batch,) = plan.batches
    (merged,) = batch
    assert merged.offset == 0
    assert merged.length == 150
    blob = bytes(i % 256 for i in range(150))
    out = scatter_parts(batch, PartTable.from_parts([(0, blob)]))
    assert [out[i] for i in range(4)] == [
        blob[o : o + n] for o, n in reads
    ]


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_vector([(0, 10)], max_ranges=0)
    with pytest.raises(ValueError):
        plan_vector([(0, 10)], gap=-1)
    with pytest.raises(ValueError):
        plan_vector([(0, 0)])
