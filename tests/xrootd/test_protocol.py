"""Tests for the XRootD frame and payload codecs."""

import random

import pytest
from hypothesis import given, settings
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
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
    st.binary(max_size=4096),
    st.integers(min_value=1, max_value=64),
)
def test_frame_roundtrip_any_split(streamid, code, payload, step):
    wire = proto.encode_request(streamid, code, payload)
    reader = proto.FrameReader()
    frames = []
    for i in range(0, len(wire), step):
        reader.feed(wire[i : i + step])
        while True:
            frame = reader.next_frame()
            if frame is None:
                break
            frames.append(frame)
    assert frames == [(streamid, code, payload)]


@given(
    st.lists(st.binary(max_size=500), min_size=0, max_size=10)
)
def test_readv_reply_property(pieces):
    assert proto.decode_readv_reply(proto.encode_readv_reply(pieces)) == (
        pieces
    )


# -- buffers in, buffers out: no staging, same frames -------------------------


def pop_all(reader):
    frames = []
    while True:
        frame = reader.next_frame()
        if frame is None:
            return frames
        frames.append(frame)


#: Payload sizes around every boundary the deframer knows: empty, the
#: header size, a receive burst, a response frame, a whole basket read.
FRAME_SIZES = st.sampled_from(
    [0, 1, 7, 8, 9, 4096, 65535, 65536, 262_144, 600 * 1024]
) | st.integers(min_value=0, max_value=600 * 1024)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=65535),
            st.integers(min_value=0, max_value=65535),
            FRAME_SIZES,
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([bytes, bytearray, memoryview]),
    st.data(),
)
def test_any_chunking_yields_the_same_frames(frames, kind, data):
    """A stream of request and response frames cut anywhere — inside a
    header too — and fed as any buffer type deframes to what it does
    fed whole."""
    rng = random.Random(len(frames))
    expected = [
        (streamid, code, rng.randbytes(size))
        for streamid, code, size in frames
    ]
    encoders = (proto.encode_request, proto.encode_response)
    wires = [
        encoders[index % 2](*frame) for index, frame in enumerate(expected)
    ]
    wire = b"".join(wires)
    starts = [sum(map(len, wires[:index])) for index in range(len(wires))]
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(wire)), max_size=12)
    )
    # Cuts near a frame's start, so headers straddle buffers.
    cuts += [
        min(max(starts[index] + delta, 0), len(wire))
        for index, delta in data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(wires) - 1),
                    st.integers(min_value=-8, max_value=16),
                ),
                max_size=6,
            )
        )
    ]
    edges = sorted({0, len(wire), *cuts})

    whole = proto.FrameReader()
    whole.feed(wire)
    assert pop_all(whole) == expected

    reader = proto.FrameReader()
    got = []
    for begin, end in zip(edges, edges[1:]):
        piece = kind(wire[begin:end])
        reader.feed(piece)
        if kind is bytearray:
            piece[:] = bytes(len(piece))  # the reader must not alias it
        got.extend(pop_all(reader))
    assert got == expected
    assert all(type(payload) is bytes for _, _, payload in got)


def test_next_pieces_hands_over_whole_bursts_and_views():
    """The payload of a frame that spans receive bursts is those bursts:
    a burst used up whole is the object that was fed, not a copy."""
    payload = bytes(range(256)) * 1024  # 256 KiB
    wire = proto.encode_response(5, proto.STATUS_OKSOFAR, payload)
    bursts = [wire[i : i + 65536] for i in range(0, len(wire), 65536)]
    reader = proto.FrameReader()
    for burst in bursts[:-1]:
        reader.feed(burst)
        assert reader.next_pieces() is None
    reader.feed(bursts[-1])
    streamid, status, pieces = reader.next_pieces()
    assert (streamid, status) == (5, proto.STATUS_OKSOFAR)
    assert b"".join(pieces) == payload
    assert [piece for piece in pieces if type(piece) is bytes] == bursts[1:]
    assert all(piece is burst for piece, burst in zip(pieces[1:], bursts[1:]))
    assert reader.next_pieces() is None


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
