"""Tests (incl. property-based) for the byte-range grammar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HttpProtocolError
from repro.http import (
    RangeSpec,
    format_content_range,
    format_range_header,
    parse_content_range,
    parse_range_header,
    resolve_ranges,
)


def test_parse_simple_range():
    specs = parse_range_header("bytes=0-99")
    assert specs == [RangeSpec(0, 99)]


def test_parse_multi_range_with_spaces():
    specs = parse_range_header("bytes=0-9, 20-29 ,40-")
    assert specs == [RangeSpec(0, 9), RangeSpec(20, 29), RangeSpec(40, None)]


def test_parse_suffix_range():
    assert parse_range_header("bytes=-500") == [RangeSpec(None, 500)]


@pytest.mark.parametrize(
    "value",
    [
        "items=0-1",
        "bytes=",
        "bytes=5",
        "bytes=a-b",
        "bytes=9-5",
        "bytes=0-1,,2-3",
        # RFC 7233 positions are 1*DIGIT: what int() alone would take.
        "bytes=1_0-2_0",
        "bytes=+5-+9",
        "bytes=5 - 9",
        "bytes=\u0663-\u0669",
    ],
)
def test_parse_malformed_rejected(value):
    with pytest.raises(HttpProtocolError):
        parse_range_header(value)


def test_spec_without_bounds_rejected():
    with pytest.raises(HttpProtocolError):
        RangeSpec(None, None)


def test_resolve_clamps_to_size():
    assert RangeSpec(0, 999).resolve(100) == (0, 100)
    assert RangeSpec(50, None).resolve(100) == (50, 50)
    assert RangeSpec(None, 30).resolve(100) == (70, 30)
    assert RangeSpec(None, 500).resolve(100) == (0, 100)


def test_resolve_unsatisfiable():
    assert RangeSpec(100, 200).resolve(100) is None
    assert RangeSpec(None, 0).resolve(100) is None
    assert resolve_ranges([RangeSpec(100, None)], 100) == []


def test_resolve_ranges_drops_only_bad_members():
    specs = [RangeSpec(0, 9), RangeSpec(500, 600), RangeSpec(90, 99)]
    assert resolve_ranges(specs, 100) == [(0, 10), (90, 10)]


def test_format_range_header():
    header = format_range_header(
        [RangeSpec(0, 9), RangeSpec(None, 5), RangeSpec(7, None)]
    )
    assert header == "bytes=0-9,-5,7-"


def test_format_empty_rejected():
    with pytest.raises(ValueError):
        format_range_header([])


def test_from_offset_length():
    assert RangeSpec.from_offset_length(10, 5) == RangeSpec(10, 14)
    with pytest.raises(ValueError):
        RangeSpec.from_offset_length(10, 0)


def test_content_range_roundtrip():
    value = format_content_range(10, 20, 100)
    assert value == "bytes 10-29/100"
    assert parse_content_range(value) == (10, 20, 100)


def test_content_range_star_total():
    assert parse_content_range("bytes 0-0/*") == (0, 1, None)


@pytest.mark.parametrize(
    "value",
    [
        "items 0-1/2",
        "bytes 0-1",
        "bytes x-y/2",
        "bytes 5-1/10",
        "bytes 1_0-2_0/100",
        "bytes +0-9/+100",
        "bytes \u0660-\u0669/\u0661\u0660\u0660",
    ],
)
def test_content_range_malformed(value):
    with pytest.raises(HttpProtocolError):
        parse_content_range(value)


# -- property-based ----------------------------------------------------------

offset_lengths = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    ),
    min_size=1,
    max_size=50,
)


@given(offset_lengths)
def test_range_header_roundtrip(pairs):
    specs = [RangeSpec.from_offset_length(o, n) for o, n in pairs]
    assert parse_range_header(format_range_header(specs)) == specs


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**7),
)
def test_resolve_is_within_bounds(first, length, size):
    resolved = RangeSpec.from_offset_length(first, length).resolve(size)
    if resolved is None:
        assert first >= size
    else:
        offset, got = resolved
        assert 0 <= offset < size
        assert got >= 1
        assert offset + got <= size


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**12),
)
def test_content_range_property_roundtrip(offset, length, extra):
    total = offset + length + extra
    parsed = parse_content_range(format_content_range(offset, length, total))
    assert parsed == (offset, length, total)
