"""Property tests for the basket/page compression codec.

Invariants of :mod:`repro.rootio.zipfmt` under Hypothesis:

* **round-trip** — every payload survives compress→decompress at
  every level (0 = store, 1-9 = zlib), bit-for-bit;
* **typed failure** — any truncation of a valid frame, and any header
  corruption, surfaces as :class:`RootIOError` (or returns the exact
  original bytes when the flip happens to be harmless); a raw
  ``zlib.error`` must never escape the codec.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RootIOError
from repro.rootio.zipfmt import (
    HEADER,
    basket_overhead,
    compress_basket,
    decompress_basket,
)

payloads = st.binary(min_size=0, max_size=4096)
levels = st.integers(min_value=0, max_value=9)


@settings(max_examples=200)
@given(data=payloads, level=levels)
def test_round_trip_all_levels(data, level):
    blob = compress_basket(data, level=level)
    assert len(blob) >= basket_overhead()
    assert decompress_basket(blob) == data


@settings(max_examples=200)
@given(data=payloads, level=levels)
def test_store_level_is_verbatim(data, level):
    blob = compress_basket(data, level=0)
    assert blob[basket_overhead():] == data
    assert len(blob) == basket_overhead() + len(data)


@settings(max_examples=200)
@given(data=payloads, level=levels, cut=st.integers(min_value=1))
def test_truncation_is_a_typed_error(data, level, cut):
    blob = compress_basket(data, level=level)
    cut = cut % len(blob)  # 0 .. len-1: always strictly shorter
    try:
        decompress_basket(blob[:cut])
    except RootIOError:
        pass
    except zlib.error as exc:  # pragma: no cover - the regression
        pytest.fail(f"zlib.error escaped the codec: {exc}")
    else:
        pytest.fail("truncated frame decoded without error")


@settings(max_examples=300)
@given(
    data=payloads,
    level=levels,
    position=st.integers(min_value=0),
    flip=st.integers(min_value=1, max_value=255),
)
def test_corruption_is_typed_or_harmless(data, level, position, flip):
    """Flipping any byte either raises RootIOError or decodes to the
    original payload — never a raw zlib.error. Exception: a flip in a
    METHOD_STORE *payload* is invisible to the frame (store carries no
    integrity data; the v2 per-page adler32 exists exactly to catch
    this), so there the contract is only length preservation."""
    blob = bytearray(compress_basket(data, level=level))
    position %= len(blob)
    blob[position] ^= flip
    try:
        result = decompress_basket(bytes(blob))
    except RootIOError:
        return
    except zlib.error as exc:  # pragma: no cover - the regression
        pytest.fail(f"zlib.error escaped the codec: {exc}")
    if level == 0 and position >= basket_overhead():
        assert len(result) == len(data)
    else:
        assert result == data


@settings(max_examples=100)
@given(data=payloads)
def test_garbage_header_is_typed(data):
    try:
        decompress_basket(b"XX" + bytes(data))
    except RootIOError:
        pass
    else:
        pytest.fail("bad magic decoded without error")


def test_level_out_of_range_rejected():
    with pytest.raises(ValueError):
        compress_basket(b"x", level=10)
    with pytest.raises(ValueError):
        compress_basket(b"x", level=-1)


def test_header_struct_is_stable():
    """The frame layout is on-disk format: 2s magic, u8 method, two
    u32 lengths, big-endian."""
    assert HEADER.size == 11
    assert basket_overhead() == 11
