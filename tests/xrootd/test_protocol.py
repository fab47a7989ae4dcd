"""Tests for the XRootD frame and payload codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import XrootdError
from repro.xrootd import protocol as proto


def test_frame_roundtrip():
    wire = proto.encode_request(7, proto.KXR_READ, b"payload")
    reader = proto.FrameReader()
    reader.feed(wire)
    assert reader.next_frame() == (7, proto.KXR_READ, b"payload")
    assert reader.next_frame() is None


def test_frame_reader_incremental():
    wire = proto.encode_response(3, proto.STATUS_OK, b"x" * 100)
    reader = proto.FrameReader()
    for i in range(len(wire) - 1):
        reader.feed(wire[i : i + 1])
        if i < len(wire) - 2:
            assert reader.next_frame() is None
    reader.feed(wire[-1:])
    assert reader.next_frame() == (3, proto.STATUS_OK, b"x" * 100)


def test_multiple_frames_in_one_feed():
    wire = proto.encode_request(1, proto.KXR_PING) + proto.encode_request(
        2, proto.KXR_PING
    )
    reader = proto.FrameReader()
    reader.feed(wire)
    assert reader.next_frame()[0] == 1
    assert reader.next_frame()[0] == 2
    assert reader.next_frame() is None


def test_oversized_payload_rejected():
    with pytest.raises(XrootdError):
        proto.encode_request(1, proto.KXR_READ, b"x" * (proto.MAX_DLEN + 1))


def test_open_payload_roundtrip():
    payload = proto.encode_open("/data/événements.root")
    assert proto.decode_open(payload) == "/data/événements.root"


def test_open_reply_roundtrip():
    payload = proto.encode_open_reply(42, 700_000_000)
    assert proto.decode_open_reply(payload) == (42, 700_000_000)


def test_read_payload_roundtrip():
    payload = proto.encode_read(5, 123_456_789_012, 65536)
    assert proto.decode_read(payload) == (5, 123_456_789_012, 65536)


def test_readv_roundtrip():
    chunks = [(1, 0, 100), (1, 5000, 200), (2, 10, 30)]
    assert proto.decode_readv(proto.encode_readv(chunks)) == chunks


def test_readv_reply_roundtrip():
    pieces = [b"abc", b"", b"x" * 1000]
    assert proto.decode_readv_reply(proto.encode_readv_reply(pieces)) == (
        pieces
    )


def test_readv_reply_truncation_detected():
    wire = proto.encode_readv_reply([b"abcdef"])
    with pytest.raises(XrootdError):
        proto.decode_readv_reply(wire[:-2])
    with pytest.raises(XrootdError):
        proto.decode_readv_reply(wire + b"junk")


def test_stat_reply_roundtrip():
    assert proto.decode_stat_reply(proto.encode_stat_reply(123, True)) == (
        123,
        True,
    )
    assert proto.decode_stat_reply(proto.encode_stat_reply(0, False)) == (
        0,
        False,
    )


def test_error_roundtrip():
    payload = proto.encode_error(3011, "file not found")
    assert proto.decode_error(payload) == (3011, "file not found")


def test_close_roundtrip():
    assert proto.decode_close(proto.encode_close(17)) == 17


@given(
    st.lists(st.binary(max_size=500), min_size=0, max_size=10)
)
def test_readv_reply_property(pieces):
    assert proto.decode_readv_reply(proto.encode_readv_reply(pieces)) == (
        pieces
    )


# -- buffers in, buffers out (any chunking, aliasing: tests/test_bytequeue.py) -


def test_oversized_frame_header_is_rejected_every_time():
    reader = proto.FrameReader()
    reader.feed(proto.HEADER.pack(1, 0, proto.MAX_DLEN + 1))
    for _ in range(2):
        with pytest.raises(XrootdError):
            reader.next_frame()


def split(blob, cuts, kind=bytes):
    edges = sorted({0, len(blob), *(cut % (len(blob) + 1) for cut in cuts)})
    return [kind(blob[a:b]) for a, b in zip(edges, edges[1:])]


@given(
    st.lists(st.binary(max_size=300), max_size=8),
    st.lists(st.integers(min_value=0), max_size=10),
    st.sampled_from([bytes, memoryview]),
    st.integers(min_value=0),
    st.binary(min_size=1, max_size=5),
)
def test_readv_reply_over_any_split_equals_the_single_buffer(
    pieces, cuts, kind, prefix, junk
):
    reply = proto.encode_readv_reply(pieces)
    assert proto.decode_readv_reply(reply) == pieces
    for buffers in (split(reply, cuts, kind), [b"", *split(reply, cuts), b""]):
        chunks = proto.decode_readv_reply(buffers)
        assert chunks == pieces
        assert all(type(chunk) is bytes for chunk in chunks)
    # A reply cut short, or with bytes after its last chunk, is typed.
    short = reply[: prefix % len(reply)]
    for bad in (short, split(short, cuts), split(reply + junk, cuts, kind)):
        with pytest.raises(XrootdError):
            proto.decode_readv_reply(bad)


def test_readv_reply_every_proper_prefix_is_truncated():
    reply = proto.encode_readv_reply([b"abc", b"", b"x" * 40])
    for length in range(len(reply)):
        for buffers in (reply[:length], split(reply[:length], [3, 9, 10])):
            with pytest.raises(XrootdError):
                proto.decode_readv_reply(buffers)
    with pytest.raises(XrootdError):
        proto.decode_readv_reply([reply, b"", b"!"])


def test_encoders_are_the_join_of_the_gather_builders():
    pieces = [b"abc", b"", b"x" * 1000]
    reply = proto.gather_readv_reply([3, 0, 1000], pieces)
    assert reply[2::2] == pieces  # the chunks, as the objects given
    assert all(a is b for a, b in zip(reply[2::2], pieces))
    assert b"".join(reply) == proto.encode_readv_reply(pieces)
    frame = proto.gather_frame(9, proto.STATUS_OK, reply)
    assert frame[1:] == reply
    assert b"".join(frame) == proto.encode_response(
        9, proto.STATUS_OK, proto.encode_readv_reply(pieces)
    )
    with pytest.raises(XrootdError):
        proto.gather_frame(1, 0, [b"x" * proto.MAX_DLEN, b"y"])


# -- every decoder fails typed ------------------------------------------------

DECODERS = [
    getattr(proto, name)
    for name in proto.__all__
    if name.startswith("decode_")
]

VALID_PAYLOADS = [
    proto.encode_open("/data/événements.root"),
    proto.encode_open_reply(42, 700_000_000),
    proto.encode_read(5, 123_456_789_012, 65536),
    proto.encode_readv([(1, 0, 100), (1, 5000, 200)]),
    proto.encode_readv_reply([b"abc", b"", b"x" * 50]),
    proto.encode_close(17),
    proto.encode_stat_reply(123, True),
    proto.encode_error(3011, "file not found"),
]


@given(
    st.binary(max_size=64)
    | st.tuples(
        st.sampled_from(VALID_PAYLOADS),
        st.integers(min_value=0, max_value=80),
        st.binary(max_size=4),
    ).map(lambda drawn: drawn[0][: drawn[1]] + drawn[2])
)
def test_every_decoder_returns_a_value_or_a_typed_error(payload):
    assert len(DECODERS) == 8
    for decode in DECODERS:
        try:
            decode(payload)
        except XrootdError:
            pass


def test_malformed_open_and_readv_payloads_are_typed():
    for payload in (b"", b"\x00", b"\x00\x05ab", b"\x00\x02\xff\xfe"):
        with pytest.raises(XrootdError):
            proto.decode_open(payload)
    for decode in (proto.decode_readv, proto.decode_readv_reply):
        for payload in (b"", b"\x01"):
            with pytest.raises(XrootdError):
                decode(payload)
