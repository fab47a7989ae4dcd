"""The one receive buffer, and the deframer built on it.

Every decoder in the package reads from :class:`ByteQueue`; XRootD's
frames come off a :class:`Deframer`. What does not depend on a
protocol's grammar is tested here once: any chunking of the input gives what one feed gives, nothing
handed out aliases a mutable buffer that was fed, a buffer consumed
whole comes back as the object that went in, an oversized length is a
typed error on every call, and a header may straddle buffers.
"""

import random
import struct
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytequeue import ByteQueue, Deframer
from repro.errors import XrootdError
from repro.xrootd import protocol as xrootd

KINDS = [bytes, bytearray, memoryview]


# -- ByteQueue against a model ------------------------------------------------

U32 = struct.Struct(">I")

OPS = st.one_of(
    st.tuples(st.sampled_from(["take", "cut", "read"]), st.integers(0, 300)),
    st.tuples(st.just("unpack"), st.none()),
    st.tuples(st.just("find"), st.binary(min_size=1, max_size=3)),
)


@given(
    st.lists(st.binary(max_size=200), max_size=8),
    st.lists(OPS, max_size=30),
    st.sampled_from(KINDS),
    st.randoms(use_true_random=False),
)
def test_queue_matches_a_flat_buffer_under_any_chunking(
    chunks, ops, kind, rng
):
    """Whatever buffers the bytes arrive in, and with appends falling
    anywhere between the reads, every operation returns what it
    returns on the plain concatenation."""
    queue = ByteQueue()
    model = b""
    pending = [kind(chunk) for chunk in chunks]
    for name, arg in ops:
        while pending and rng.random() < 0.5:
            chunk = pending.pop(0)
            model += bytes(chunk)
            queue.append(chunk)
            if kind is bytearray:
                chunk[:] = bytes(len(chunk))
        assert len(queue) == len(model)
        if name == "find":
            assert queue.find(arg) == model.find(arg)
            continue
        if name == "unpack":
            if len(model) < U32.size:
                assert queue.unpack(U32) is None
            else:
                assert queue.unpack(U32) == U32.unpack_from(model)
                model = model[U32.size :]
            continue
        if name != "read" and arg > len(model):
            with pytest.raises(ValueError):
                getattr(queue, name)(arg)
            continue
        got = getattr(queue, name)(arg)
        if name == "cut":
            assert all(len(piece) for piece in got)
            got = b"".join(got)
        if name == "read":
            assert len(got) <= arg and bool(got) == bool(model and arg)
        else:
            assert len(got) == arg
        assert type(got) is bytes
        assert got == model[: len(got)]
        model = model[len(got) :]
    assert b"".join(queue.cut(len(queue))) == model


def test_a_buffer_consumed_whole_is_the_object_that_was_fed():
    burst = bytes(range(256)) * 16
    for consume in (
        lambda queue: queue.take(len(burst)),
        lambda queue: queue.read(len(burst) + 1),
        lambda queue: queue.cut(len(burst))[0],
    ):
        queue = ByteQueue()
        queue.append(burst)
        queue.append(b"tail")
        assert consume(queue) is burst
        assert queue.take(4) == b"tail"
        assert not queue
    # ... and a part of one is a slice (take, read) or a view (cut).
    queue = ByteQueue()
    queue.append(burst)
    assert queue.take(10) == burst[:10]
    assert queue.read(5) == burst[10:15]
    (view,) = queue.cut(7)
    assert type(view) is memoryview and view == burst[15:22]
    assert queue.read(1 << 20) == burst[22:]


def test_read_never_crosses_a_buffer_and_find_joins_only_on_a_miss():
    queue = ByteQueue()
    for chunk in (b"ab", b"cd\r", b"\nrest"):
        queue.append(chunk)
    assert queue.find(b"b") == 1  # in the head buffer: nothing joined
    assert queue.read(100) == b"ab"
    assert queue.find(b"\r\n") == 2  # straddles: joined, once
    assert queue.read(100) == b"cd\r\nrest"
    assert queue.find(b"x") == -1 and queue.read(1) == b""
    queue.append(b"again")
    queue.clear()
    assert len(queue) == 0 and queue.take(0) == b""


# -- the deframer -------------------------------------------------------------


class Protocol(NamedTuple):
    reader: Callable[[], Deframer]
    header: struct.Struct
    fields: tuple  # bit widths of the header fields before the length
    maximum: int
    error: type


PROTOCOLS = {
    "xrootd": Protocol(
        xrootd.FrameReader, xrootd.HEADER, (16, 16),
        xrootd.MAX_DLEN, XrootdError,
    ),
}

protocols = pytest.mark.parametrize(
    "proto", PROTOCOLS.values(), ids=PROTOCOLS.keys()
)


def field_values(proto, seed):
    """One value per header field, each within its width."""
    return tuple(
        (seed >> 8 * index) % (1 << bits)
        for index, bits in enumerate(proto.fields)
    )


def pop_all(reader):
    frames = []
    while True:
        frame = reader.next_frame()
        if frame is None:
            return frames
        frames.append(frame)


#: Payload sizes around every boundary a deframer knows: empty, the
#: header sizes, a receive burst, 64 KiB, a whole basket read.
FRAME_SIZES = st.sampled_from(
    [0, 1, 7, 8, 9, 10, 13, 4096, 65535, 65536, 262_144, 600 * 1024]
) | st.integers(min_value=0, max_value=600 * 1024)


@protocols
@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0), FRAME_SIZES),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(KINDS),
    st.data(),
)
def test_any_chunking_yields_the_same_frames(proto, frames, kind, data):
    """A stream of frames cut anywhere — inside a header too — and fed
    as any buffer type deframes to what it does fed whole."""
    rng = random.Random(len(frames))
    expected = [
        (*field_values(proto, seed), rng.randbytes(min(size, proto.maximum)))
        for seed, size in frames
    ]
    wires = [
        proto.header.pack(*fields, len(payload)) + payload
        for *fields, payload in expected
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

    whole = proto.reader()
    whole.feed(wire)
    assert pop_all(whole) == expected

    reader = proto.reader()
    got = []
    for begin, end in zip(edges, edges[1:]):
        piece = kind(wire[begin:end])
        reader.feed(piece)
        if kind is bytearray:
            piece[:] = bytes(len(piece))  # the reader must not alias it
        got.extend(pop_all(reader))
    assert got == expected
    assert all(type(frame[-1]) is bytes for frame in got)


@protocols
def test_a_header_straddling_buffers_decodes(proto):
    fields = field_values(proto, 0xFEDCBA9876543210)
    wire = proto.header.pack(*fields, 3) + b"abc"
    for cut in range(1, proto.header.size + 1):
        reader = proto.reader()
        reader.feed(wire[:cut])
        assert reader.next_frame() is None
        reader.feed(wire[cut:] + wire)
        assert pop_all(reader) == [(*fields, b"abc")] * 2


@protocols
def test_an_oversized_length_is_a_typed_error_every_time(proto):
    reader = proto.reader()
    zeros = field_values(proto, 0)
    header = proto.header.pack(*zeros, proto.maximum + 1)
    reader.feed(header[:3])
    assert reader.next_frame() is None
    reader.feed(header[3:])
    for _ in range(2):
        with pytest.raises(proto.error):
            reader.next_frame()
    at_the_cap = proto.reader()
    at_the_cap.feed(proto.header.pack(*zeros, proto.maximum))
    assert at_the_cap.next_frame() is None


@protocols
def test_payload_bursts_come_back_as_the_objects_that_were_fed(proto):
    """The payload of a frame that spans receive bursts is those
    bursts: one used up whole is the object that was fed, not a copy,
    and a payload that is exactly one burst is that burst."""
    payload = bytes(range(256)) * 1024  # 256 KiB
    fields = field_values(proto, 0x0505050505)
    wire = proto.header.pack(*fields, len(payload)) + payload
    bursts = [wire[i : i + 65536] for i in range(0, len(wire), 65536)]
    reader = proto.reader()
    for burst in bursts[:-1]:
        reader.feed(burst)
        assert reader.next_pieces() is None
    reader.feed(bursts[-1])
    *got, pieces = reader.next_pieces()
    assert tuple(got) == fields
    assert b"".join(pieces) == payload
    assert type(pieces[0]) is memoryview  # what follows the header
    assert len(pieces) == len(bursts)
    assert all(piece is burst for piece, burst in zip(pieces[1:], bursts[1:]))
    assert reader.next_pieces() is None

    reader.feed(wire[: proto.header.size])
    reader.feed(payload)
    assert reader.next_frame()[-1] is payload
