"""The dataset writers build each byte once.

The tree writer draws, compresses and drops one branch payload at a
time and joins the file once, so its traced peak is about twice the
file plus one raw payload. The ntuple's cluster-major layout needs every
column at once, so it holds every payload plus twice its file. Both
outputs stay byte-identical to the pinned adler32s of the benchmark's
``loopback_analysis`` dataset.
"""

import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rootio import (
    generate_ntuple_bytes,
    generate_tree_bytes,
    paper_dataset,
    write_tree_file,
)

pytest.importorskip("numpy")  # loaded before tracing: not the writer's

#: The ``loopback_analysis`` dataset at seed 42: a 13.55 MiB tree.
SPEC = replace(paper_dataset(0.1), n_entries=2400, seed=42)


def traced_peak(build):
    """``(result, peak bytes traced while build() ran)``."""
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started_here:
            tracemalloc.stop()


def test_tree_writer_peaks_under_three_files():
    blob, peak = traced_peak(lambda: generate_tree_bytes(SPEC))
    assert zlib.adler32(blob) == 3260238170
    assert peak <= 3.0 * len(blob)


def test_ntuple_writer_peaks_under_four_point_three_files():
    blob, peak = traced_peak(lambda: generate_ntuple_bytes(SPEC))
    assert zlib.adler32(blob) == 118118033
    assert peak <= 4.3 * len(blob)


@st.composite
def branch_sets(draw):
    n_entries = draw(st.integers(1, 12))
    names = draw(
        st.lists(st.text("abcxyz", min_size=1, max_size=4),
                 min_size=1, max_size=4, unique=True)
    )
    arrays = {}
    for name in names:
        size = n_entries * draw(st.integers(1, 16))
        arrays[name] = draw(st.binary(min_size=size, max_size=size))
    return arrays, n_entries, draw(st.integers(1, 5))


@settings(max_examples=100)
@given(case=branch_sets())
def test_an_iterable_of_pairs_writes_what_the_mapping_does(case):
    arrays, n_entries, basket_entries = case
    assert write_tree_file(
        "t", arrays, n_entries=n_entries, basket_entries=basket_entries
    ) == write_tree_file(
        "t",
        iter(arrays.items()),
        n_entries=n_entries,
        basket_entries=basket_entries,
    )
