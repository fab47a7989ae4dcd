"""Byte pins of both on-disk formats, their writers and layout models.

A small seeded dataset is materialised as a v1 tree and a v2 ntuple
and modelled as both layouts. The file bytes (length and adler32) and
every ``(offset, nbytes)`` span are pinned, so a refactor of the
metadata model, the writers or the generators shows any drift here
before it shows in a benchmark artefact.
"""

import zlib

import pytest

from repro.rootio import (
    BranchSpec,
    DatasetSpec,
    generate_ntuple_bytes,
    generate_ntuple_layout,
    generate_tree_bytes,
    generate_tree_layout,
)

pytest.importorskip("numpy")

#: Two clusters of 500 entries and a short third; branch ``wide``
#: needs two 64 KiB pages per cluster, the others one.
SPEC = DatasetSpec(
    name="pinned",
    n_entries=1200,
    branches=(
        BranchSpec("wide", event_size=200, compress_ratio=0.5),
        BranchSpec("narrow", event_size=12, compress_ratio=0.9),
        BranchSpec("flat", event_size=40, compress_ratio=0.2),
    ),
    basket_entries=150,
    seed=11,
)

TREE_BYTES = (146727, 2173311950)
NTUPLE_BYTES = (145977, 1371574910)
#: (file size, span count, adler32 of the spans' repr)
TREE_SPANS = (143234, 24, 3029091933)
NTUPLE_SPANS = (143565, 11, 3573161994)


def span_pin(meta):
    """(count, adler32) of every branch's spans in branch order."""
    spans = [
        basket.span for branch in meta.branches for basket in branch.baskets
    ]
    return len(spans), zlib.adler32(repr(spans).encode())


def test_tree_bytes_are_pinned():
    blob = generate_tree_bytes(SPEC)
    assert (len(blob), zlib.adler32(blob)) == TREE_BYTES


def test_ntuple_bytes_are_pinned():
    blob = generate_ntuple_bytes(SPEC)
    assert (len(blob), zlib.adler32(blob)) == NTUPLE_BYTES


def test_tree_layout_spans_are_pinned():
    meta = generate_tree_layout(SPEC)
    assert (meta.file_size, *span_pin(meta)) == TREE_SPANS


def test_ntuple_layout_spans_are_pinned():
    meta = generate_ntuple_layout(SPEC)
    assert (meta.file_size, *span_pin(meta)) == NTUPLE_SPANS
