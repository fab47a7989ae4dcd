"""The dataset writers build each byte once.

Both writers draw, compress and drop one branch payload at a time and
join the file once, so each traced peak is about twice the file plus
one raw payload: the ntuple writer lays its compressed pages out
cluster-major only once every column is compressed. Both outputs stay
byte-identical to the pinned adler32s of the benchmark's
``loopback_analysis`` dataset.
"""

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

from tests.helpers import traced_peak

pytest.importorskip("numpy")  # loaded before tracing: not the writer's

#: The ``loopback_analysis`` dataset at seed 42: a 13.55 MiB tree.
SPEC = replace(paper_dataset(0.1), n_entries=2400, seed=42)


def test_tree_writer_peaks_under_three_files():
    blob, peak, _ = traced_peak(lambda: generate_tree_bytes(SPEC))
    assert zlib.adler32(blob) == 3260238170
    assert peak <= 3.0 * len(blob)


def test_ntuple_writer_peaks_under_three_files():
    blob, peak, _ = traced_peak(lambda: generate_ntuple_bytes(SPEC))
    assert zlib.adler32(blob) == 118118033
    assert peak <= 3.0 * len(blob)


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
