"""Incremental multipart/byteranges decoding (:class:`MultipartStream`).

The transfer engine feeds response chunks into the streaming decoder as
they arrive, so decode overlaps with the transfer. The contract: for
*any* chunking of a valid body the streamed parts equal the buffered
``decode_byteranges`` result, truncations raise the same
``HttpParseError`` family, and delimiter text split across chunk
boundaries never confuses the state machine.
"""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HttpError, HttpParseError
from repro.http import (
    RangePart,
    decode_byteranges,
    encode_byteranges,
    make_boundary,
)
from repro.http.multipart import MultipartStream

PARTS = [
    RangePart(offset=0, data=b"hello", total=100),
    RangePart(offset=50, data=b"world!" * 40, total=100),
    RangePart(offset=90, data=b"\r\n--X\r\ntricky", total=100),
]


def stream_decode(body, boundary, chunk_size):
    decoder = MultipartStream(boundary)
    for start in range(0, len(body), chunk_size):
        decoder.feed(body[start : start + chunk_size])
    return decoder.close()


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, 10_000])
def test_streamed_equals_buffered(chunk_size):
    boundary = make_boundary()
    body = encode_byteranges(PARTS, boundary)
    assert stream_decode(body, boundary, chunk_size) == decode_byteranges(
        body, boundary
    )


def test_done_after_terminator_and_epilogue_ignored():
    body = encode_byteranges(PARTS[:1], "B")
    decoder = MultipartStream("B")
    decoder.feed(body)
    assert decoder.done
    decoder.feed(b"trailing epilogue noise")  # ignored per RFC 2046
    assert decoder.close() == PARTS[:1]


def test_boundary_split_across_chunks():
    """The closing delimiter arriving one byte at a time must still
    terminate the stream."""
    body = encode_byteranges(PARTS, "SPLIT-ME")
    head, tail = body[:-15], body[-15:]
    decoder = MultipartStream("SPLIT-ME")
    decoder.feed(head)
    assert not decoder.done
    for index in range(len(tail)):
        decoder.feed(tail[index : index + 1])
    assert decoder.done
    assert decoder.close() == PARTS


def test_truncated_part_body_raises():
    body = encode_byteranges(PARTS, "B")
    decoder = MultipartStream("B")
    decoder.feed(body[: len(body) // 2])
    with pytest.raises(HttpParseError, match="body ended early"):
        decoder.close()


def test_missing_terminator_raises():
    parts = [RangePart(offset=0, data=b"xy", total=10)]
    body = encode_byteranges(parts, "B")
    assert body.endswith(b"--B--\r\n")
    decoder = MultipartStream("B")
    decoder.feed(body[: -len(b"--B--\r\n")])
    with pytest.raises(HttpParseError, match="without terminator"):
        decoder.close()


def test_unterminated_headers_raise():
    decoder = MultipartStream("B")
    decoder.feed(b"--B\r\nContent-Range: bytes 0-1/2")
    with pytest.raises(HttpParseError, match="headers not terminated"):
        decoder.close()


def test_garbage_where_a_delimiter_belongs_is_misaligned():
    """After a part comes a delimiter; anything else is refused, as
    the buffered decoder refuses it."""
    body = encode_byteranges(PARTS[:2], "BOUND")
    second = body.index(b"--BOUND", 1)
    bad = body[:second] + b"XXXXXXX" + body[second + 7 :]
    with pytest.raises(HttpParseError, match="misaligned"):
        decode_byteranges(bad, "BOUND")
    for chunk_size in (1, 5, len(bad)):
        with pytest.raises(HttpParseError, match="misaligned"):
            stream_decode(bad, "BOUND", chunk_size)


def test_part_without_content_range_rejected():
    decoder = MultipartStream("B")
    with pytest.raises(HttpParseError):
        decoder.feed(b"--B\r\nContent-Type: text/plain\r\n\r\nxx\r\n--B--\r\n")
        decoder.close()


@given(
    parts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.binary(min_size=1, max_size=200),
        ),
        min_size=1,
        max_size=6,
    ),
    chunk_size=st.integers(min_value=1, max_value=300),
)
def test_property_any_chunking_matches_buffered(parts, chunk_size):
    range_parts = [
        RangePart(offset=offset, data=data, total=20_000)
        for offset, data in parts
    ]
    boundary = make_boundary()
    body = encode_byteranges(range_parts, boundary)
    assert stream_decode(
        body, boundary, chunk_size
    ) == decode_byteranges(body, boundary)


# -- equivalence with the buffered decoder, for any chunking ------------------


def outcome(decode):
    """The ``(offset, data, total)`` list, or the error type raised."""
    try:
        parts = decode()
    except HttpError as exc:
        return type(exc)
    assert all(type(part.data) is bytes for part in parts)
    return [(part.offset, part.data, part.total) for part in parts]


def feed_all(boundary, chunks):
    decoder = MultipartStream(boundary)
    for chunk in chunks:
        decoder.feed(chunk)
    return decoder.close()


def test_every_split_and_every_truncation_matches_buffered():
    """Two-chunk splits at every offset put a chunk edge inside the
    preamble, the delimiter, the header block, the data and the CRLF
    after it; every prefix of the body is a truncation."""
    body = b"preamble\r\n" + encode_byteranges(PARTS, "B")
    whole = outcome(lambda: decode_byteranges(body, "B"))
    assert whole == [(p.offset, p.data, p.total) for p in PARTS]
    for cut in range(len(body) + 1):
        assert (
            outcome(lambda: feed_all("B", [body[:cut], body[cut:]]))
            == whole
        )
        prefix = body[:cut]
        expected = outcome(lambda: decode_byteranges(prefix, "B"))
        assert outcome(lambda: feed_all("B", [prefix])) == expected
        assert (
            outcome(
                lambda: feed_all(
                    "B", [prefix[i : i + 1] for i in range(cut)]
                )
            )
            == expected
        )


@given(
    parts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            # Zero-length parts have no valid Content-Range: both
            # decoders must refuse them alike.
            st.binary(min_size=0, max_size=300),
        ),
        min_size=1,
        max_size=6,
    ),
    preamble=st.binary(max_size=40),
    cuts=st.lists(st.integers(min_value=0, max_value=4000), max_size=12),
    keep=st.none() | st.integers(min_value=0, max_value=4000),
    corrupt=st.none()
    | st.tuples(st.integers(min_value=0), st.binary(min_size=1, max_size=4)),
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
)
def test_property_any_chunking_of_any_body_matches_buffered(
    parts, preamble, cuts, keep, corrupt, wrap
):
    range_parts = [
        RangePart(offset=offset, data=data, total=20_000)
        for offset, data in parts
    ]
    body = preamble + encode_byteranges(range_parts, "B7")
    if corrupt is not None:  # garbage over the start of one delimiter
        which, junk = corrupt
        delimiters = [found.start() for found in re.finditer(b"--B7", body)]
        at = delimiters[which % len(delimiters)]
        body = body[:at] + junk + body[at + len(junk) :]
    if keep is not None:
        body = body[: keep % (len(body) + 1)]
    edges = sorted({cut % (len(body) + 1) for cut in cuts} | {len(body)})
    chunks = [
        wrap(body[start:end]) for start, end in zip([0] + edges, edges)
    ]
    assert outcome(lambda: feed_all("B7", chunks)) == outcome(
        lambda: decode_byteranges(body, "B7")
    )


def test_parts_do_not_alias_a_mutable_chunk():
    body = bytearray(encode_byteranges(PARTS[:1], "B"))
    decoder = MultipartStream("B")
    decoder.feed(body)
    body[:] = bytes(len(body))
    assert decoder.close() == PARTS[:1]
