"""Tests for the sans-io HTTP codec (incremental parsing, framing)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import HttpParseError
from repro.http import (
    CONNECTION_CLOSED,
    NEED_DATA,
    Data,
    EndOfMessage,
    Headers,
    HttpParser,
    Request,
    Response,
    gather_request,
    read_message,
    serialize_request,
    serialize_response,
)
from repro.http.codec import (
    encode_chunk,
    encode_last_chunk,
    serialize_response_head,
)


def drain(parser):
    """Collect events until NEED_DATA / CONNECTION_CLOSED."""
    events = []
    while True:
        event = parser.next_event()
        if event in (NEED_DATA, CONNECTION_CLOSED):
            return events, event
        events.append(event)


def collect_message(events):
    """(head, body_bytes, saw_end) from an event list."""
    head = events[0]
    body = b"".join(e.data for e in events[1:] if isinstance(e, Data))
    saw_end = any(isinstance(e, EndOfMessage) for e in events)
    return head, body, saw_end


# -- request parsing ----------------------------------------------------------


def test_parse_get_request():
    parser = HttpParser("server")
    parser.receive_data(
        b"GET /data/file?x=1 HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n"
    )
    events, tail = drain(parser)
    head, body, done = collect_message(events)
    assert head.method == "GET"
    assert head.target == "/data/file?x=1"
    assert head.path == "/data/file"
    assert head.query == "x=1"
    assert head.headers.get("host") == "h"
    assert body == b""
    assert done
    assert tail == NEED_DATA


def test_parse_put_with_body():
    parser = HttpParser("server")
    parser.receive_data(
        b"PUT /up HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
    )
    events, _ = drain(parser)
    head, body, done = collect_message(events)
    assert head.method == "PUT"
    assert body == b"hello"
    assert done


def test_parse_request_byte_by_byte():
    wire = b"PUT /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
    parser = HttpParser("server")
    events = []
    for i in range(len(wire)):
        parser.receive_data(wire[i : i + 1])
        got, _ = drain(parser)
        events.extend(got)
    head, body, done = collect_message(events)
    assert head.method == "PUT"
    assert body == b"abc"
    assert done


def test_parse_pipelined_requests():
    parser = HttpParser("server")
    parser.receive_data(
        b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
    )
    events, _ = drain(parser)
    requests = [e for e in events if isinstance(e, Request)]
    ends = [e for e in events if isinstance(e, EndOfMessage)]
    assert [r.target for r in requests] == ["/a", "/b"]
    assert len(ends) == 2


def test_clean_eof_between_messages():
    parser = HttpParser("server")
    parser.receive_data(b"")
    assert parser.next_event() == CONNECTION_CLOSED
    assert parser.next_event() == CONNECTION_CLOSED  # stable


def test_eof_inside_head_is_error():
    parser = HttpParser("server")
    parser.receive_data(b"GET / HT")
    parser.receive_data(b"")
    with pytest.raises(HttpParseError):
        parser.next_event()


def test_eof_inside_body_is_error():
    parser = HttpParser("server")
    parser.receive_data(
        b"PUT /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
    )
    events, _ = drain(parser)
    parser.receive_data(b"")
    with pytest.raises(HttpParseError):
        drain(parser)


@pytest.mark.parametrize(
    "wire",
    [
        b"GET /\r\n\r\n",  # missing version
        b"GET / HTTP/2.0\r\n\r\n",  # unsupported version
        b"GET / HTTP/1.1\r\nBad Header\r\n\r\n",  # no colon
        b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",  # obs-fold
    ],
)
def test_malformed_requests_rejected(wire):
    parser = HttpParser("server")
    parser.receive_data(wire)
    with pytest.raises(HttpParseError):
        drain(parser)


def test_oversized_head_rejected():
    parser = HttpParser("server")
    parser.receive_data(b"GET / HTTP/1.1\r\nX: " + b"a" * 70000)
    with pytest.raises(HttpParseError):
        parser.next_event()


# -- response parsing --------------------------------------------------------


def test_parse_response_with_length():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody"
    )
    events, _ = drain(parser)
    head, body, done = collect_message(events)
    assert head.status == 200
    assert head.reason == "OK"
    assert body == b"body"
    assert done


def test_head_response_has_no_body():
    parser = HttpParser("client")
    parser.expect_response_to("HEAD")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n"
    )
    events, tail = drain(parser)
    head, body, done = collect_message(events)
    assert head.status == 200
    assert body == b""
    assert done
    assert tail == NEED_DATA


def test_204_and_304_have_no_body():
    for status in (204, 304):
        parser = HttpParser("client")
        parser.expect_response_to("GET")
        parser.receive_data(
            f"HTTP/1.1 {status} X\r\n\r\n".encode()
        )
        events, _ = drain(parser)
        _, body, done = collect_message(events)
        assert body == b""
        assert done


def test_response_read_until_eof():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(b"HTTP/1.0 200 OK\r\n\r\npart1")
    events, tail = drain(parser)
    assert tail == NEED_DATA
    parser.receive_data(b"part2")
    parser.receive_data(b"")
    more, tail = drain(parser)
    events.extend(more)
    _, body, done = collect_message(events)
    assert body == b"part1part2"
    assert done
    assert tail == CONNECTION_CLOSED


def test_pipelined_responses_use_method_queue():
    parser = HttpParser("client")
    parser.expect_response_to("HEAD")
    parser.expect_response_to("GET")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
    )
    events, _ = drain(parser)
    heads = [e for e in events if isinstance(e, Response)]
    bodies = b"".join(e.data for e in events if isinstance(e, Data))
    assert len(heads) == 2
    assert bodies == b"abc"  # only the GET's body


def test_chunked_response_body():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
    )
    events, _ = drain(parser)
    _, body, done = collect_message(events)
    assert body == b"Wikipedia"
    assert done


def test_chunked_with_extensions_and_trailers():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n"
    )
    events, _ = drain(parser)
    _, body, done = collect_message(events)
    assert body == b"abc"
    assert done


def test_chunked_incremental_delivery():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    wire = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
    )
    events = []
    for i in range(0, len(wire), 7):
        parser.receive_data(wire[i : i + 7])
        got, _ = drain(parser)
        events.extend(got)
    _, body, done = collect_message(events)
    assert body == b"Wikipedia"
    assert done


def test_bad_chunk_size_rejected():
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
    )
    with pytest.raises(HttpParseError):
        drain(parser)


def test_bad_role_rejected():
    with pytest.raises(ValueError):
        HttpParser("proxy")


# -- serialisation -----------------------------------------------------------


def test_serialize_request_adds_content_length():
    wire = serialize_request(
        Request("PUT", "/x", Headers([("Host", "h")]), body=b"abcd")
    )
    assert wire.startswith(b"PUT /x HTTP/1.1\r\n")
    assert b"Content-Length: 4\r\n" in wire
    assert wire.endswith(b"\r\n\r\nabcd")


def test_serialize_get_has_no_content_length():
    wire = serialize_request(Request("GET", "/x"))
    assert b"Content-Length" not in wire


def test_serialize_post_without_body_gets_zero_length():
    wire = serialize_request(Request("POST", "/x"))
    assert b"Content-Length: 0\r\n" in wire


@pytest.mark.parametrize(
    "request_, wire",
    [
        (
            Request("GET", "/x", Headers([("Host", "h")])),
            b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n",
        ),
        (
            Request("POST", "/x", Headers([("Host", "h")])),
            b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n",
        ),
        (
            Request("PUT", "/x", Headers([("Host", "h")]), body=b"abcd"),
            b"PUT /x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
        ),
    ],
    ids=["bodyless", "empty-body", "sized"],
)
def test_gather_request_joins_to_the_serialised_request(request_, wire):
    pieces = gather_request(request_)
    assert b"".join(pieces) == wire == serialize_request(request_)
    # The body rides as its own buffer, never copied behind the head.
    assert pieces[-1] is request_.body


def test_serialize_response_roundtrip():
    wire = serialize_response(
        Response(200, Headers([("Content-Type", "text/plain")]), b"hi")
    )
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(wire)
    events, _ = drain(parser)
    head, body, done = collect_message(events)
    assert head.status == 200
    assert head.content_type == "text/plain"
    assert body == b"hi"
    assert done


def test_serialize_response_head_with_streamed_length():
    head = serialize_response_head(Response(200), content_length=10)
    assert b"Content-Length: 10\r\n" in head


def test_serialize_204_has_no_content_length():
    wire = serialize_response(Response(204))
    assert b"Content-Length" not in wire


def test_chunk_encoding_helpers():
    assert encode_chunk(b"abc") == b"3\r\nabc\r\n"
    assert encode_last_chunk() == b"0\r\n\r\n"
    with pytest.raises(ValueError):
        encode_chunk(b"")


# -- property-based ----------------------------------------------------------


@given(st.binary(min_size=0, max_size=5000), st.integers(1, 97))
def test_request_roundtrip_any_split(body, step):
    request = Request(
        "PUT", "/path", Headers([("Host", "h"), ("X-N", "1")]), body=body
    )
    wire = serialize_request(request)
    parser = HttpParser("server")
    events = []
    for i in range(0, len(wire), step):
        parser.receive_data(wire[i : i + step])
        while True:
            event = parser.next_event()
            if event == NEED_DATA:
                break
            events.append(event)
    head, parsed_body, done = collect_message(events)
    assert head.method == "PUT"
    assert parsed_body == body
    assert done


@given(
    st.lists(st.binary(min_size=1, max_size=500), min_size=0, max_size=8),
    st.integers(1, 53),
)
def test_chunked_roundtrip_any_split(chunks, step):
    wire = bytearray(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    for chunk in chunks:
        wire += encode_chunk(chunk)
    wire += encode_last_chunk()
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    events = []
    for i in range(0, len(wire), step):
        parser.receive_data(bytes(wire[i : i + step]))
        while True:
            event = parser.next_event()
            if event == NEED_DATA:
                break
            events.append(event)
    _, body, done = collect_message(events)
    assert body == b"".join(chunks)
    assert done


# -- responses, any split, any buffer type ------------------------------------
#
# Body bytes bypass the parser's buffer when a piece is nothing but
# body, so the framing has to hold for every way of cutting the wire.

_FEED_AS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda piece: memoryview(bytes(piece)),
}


def response_wire(framing, body):
    """One serialised response with the given body framing."""
    if framing == "length":
        return serialize_response(Response(200, Headers(), body=body))
    if framing == "chunked":
        wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        for i in range(0, len(body), 300):
            wire += encode_chunk(body[i : i + 300])
        return wire + encode_last_chunk()
    return b"HTTP/1.0 200 OK\r\n\r\n" + body  # delimited by EOF


def canonical(events):
    """Event sequence with adjacent Data merged (splits move those)."""
    out = []
    for event in events:
        if isinstance(event, Data):
            assert type(event.data) is bytes and event.data
            if out and out[-1][0] == "data":
                out[-1] = ("data", out[-1][1] + event.data)
            else:
                out.append(("data", event.data))
        elif isinstance(event, EndOfMessage):
            out.append(("end",))
        else:
            out.append(("head", event.status, list(event.headers.items())))
    return out


def parse_split(wire, cuts, feed_as, pulls, n_responses=1, eof=True):
    """Events of ``wire`` cut at ``cuts``.

    After piece ``i`` at most ``pulls[i % len(pulls)]`` events are
    taken, so pieces also arrive while earlier ones are still queued.
    """
    parser = HttpParser("client")
    for _ in range(n_responses):
        parser.expect_response_to("GET")
    events = []
    bounds = [0] + sorted(cuts) + [len(wire)]
    for i, (low, high) in enumerate(zip(bounds, bounds[1:])):
        if low == high:
            continue
        piece = _FEED_AS[feed_as](wire[low:high])
        parser.receive_data(piece)
        if isinstance(piece, bytearray):
            piece[:] = bytes(len(piece))  # Data must not alias it
        for _ in range(pulls[i % len(pulls)]):
            event = parser.next_event()
            if event == NEED_DATA:
                break
            events.append(event)
    if eof:
        parser.receive_data(b"")
    events.extend(drain(parser)[0])
    return parser, events


_bodies = st.binary(min_size=0, max_size=2000)
_framings = st.sampled_from(["length", "chunked", "eof"])
_cuts = st.lists(st.integers(0, 5000), max_size=12)
_feeds = st.sampled_from(sorted(_FEED_AS))
_pulls = st.lists(st.integers(0, 4), min_size=1, max_size=6)
_ALL = [10**6]  # drain after every piece


@given(_framings, _bodies, _cuts, _feeds, _pulls)
def test_response_any_split_equals_unsplit(framing, body, cuts, feed, pulls):
    wire = response_wire(framing, body)
    cuts = [cut % (len(wire) + 1) for cut in cuts]
    _, whole = parse_split(wire, [], "bytes", _ALL)
    _, events = parse_split(wire, cuts, feed, pulls)
    assert canonical(events) == canonical(whole)
    head, parsed, done = collect_message(events)
    assert (head.status, parsed, done) == (200, body, True)


@given(
    st.sampled_from(["length", "chunked"]),
    _framings,
    st.binary(min_size=1, max_size=1500),
    _bodies,
    st.integers(1, 1500),
    _cuts,
    _feeds,
    _pulls,
)
def test_pipelined_responses_any_split(
    first, second, body1, body2, tail, cuts, feed, pulls
):
    wire1 = response_wire(first, body1)
    wire = wire1 + response_wire(second, body2)
    # One piece always carries the first body's tail (the last CRLF of
    # a chunked one included) together with the second head.
    straddle = [len(wire1) - min(tail, len(body1)), len(wire1) + 9]
    cuts = [cut % (len(wire) + 1) for cut in cuts]
    cuts = [c for c in cuts if not straddle[0] < c < straddle[1]]
    _, whole = parse_split(wire, [], "bytes", _ALL, n_responses=2)
    _, events = parse_split(
        wire, cuts + straddle, feed, pulls, n_responses=2
    )
    assert canonical(events) == canonical(whole)
    heads = [e for e in canonical(events) if e[0] == "head"]
    datas = [e[1] for e in canonical(events) if e[0] == "data"]
    assert len(heads) == 2
    assert datas == [body for body in (body1, body2) if body]
    assert canonical(events)[-1] == ("end",)


@given(
    st.sampled_from(["length", "chunked"]),
    st.binary(min_size=1, max_size=2000),
    st.integers(1, 2000),
    _cuts,
    _feeds,
    _pulls,
)
def test_eof_mid_body_raises_any_split(
    framing, body, missing, cuts, feed, pulls
):
    wire = response_wire(framing, body)
    head_len = wire.index(b"\r\n\r\n") + 4
    trailer = len(encode_last_chunk()) if framing == "chunked" else 0
    # Cut the wire short somewhere inside the body.
    keep = len(wire) - trailer - 1 - (missing - 1) % len(body)
    assert head_len <= keep < len(wire)
    cuts = [cut % (keep + 1) for cut in cuts]
    parser, events = parse_split(wire[:keep], cuts, feed, pulls, eof=False)
    parser.receive_data(b"")
    with pytest.raises(HttpParseError):
        events.extend(drain(parser)[0])
    _, parsed, done = collect_message(events)
    assert body.startswith(parsed) and not done
    with pytest.raises(HttpParseError):
        parser.receive_data(b"late")


def test_receive_data_after_eof_raises_in_every_state():
    for wire in (
        b"",
        b"HTTP/1.1 200 OK\r\nContent-Len",
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
        b"HTTP/1.0 200 OK\r\n\r\nab",
    ):
        parser = HttpParser("client")
        parser.expect_response_to("GET")
        if wire:
            parser.receive_data(wire)
        parser.receive_data(b"")
        with pytest.raises(HttpParseError):
            parser.receive_data(b"x")


def test_a_buffer_that_is_nothing_but_body_is_handed_over_as_it_is():
    """No staging: a received buffer of body bytes comes out as the
    object that went in, also when buffers queue up before a pull."""
    burst = bytes(range(256)) * 64
    wire = serialize_response(Response(200, Headers(), body=burst * 2))
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    parser.receive_data(wire[: -2 * len(burst)])
    parser.receive_data(burst)
    parser.receive_data(burst)
    events, last = drain(parser)
    assert last == NEED_DATA
    assert [type(event) for event in events[1:]] == [Data, Data, EndOfMessage]
    assert events[1].data is burst and events[2].data is burst


@pytest.mark.parametrize(
    "cut,owed",
    [(1, b"\n"), (2, b"\r\n"), (3, b"\n\r\n"), (4, b"\r\n\r\n")],
)
def test_head_owed_is_what_of_the_terminator_is_unmatched(cut, owed):
    """A receive that stops at ``head_owed`` ends at the terminator,
    never past it, wherever the previous receive cut the head."""
    wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n"
    parser = HttpParser("client")
    parser.expect_response_to("GET")
    assert parser.head_owed == b"\r\n\r\n"
    parser.receive_data(wire[: len(wire) - cut])
    assert drain(parser) == ([], NEED_DATA)
    assert parser.head_owed == owed
    parser.receive_data(wire[len(wire) - cut :] + b"abc")
    events, _ = drain(parser)
    assert isinstance(events[0], Response)
    assert parser.head_owed == b"\r\n\r\n"


# -- read_message: the one receive loop, driven by a scripted peer ------------


class ScriptedPeer:
    """A peer's bytes arriving in pieces cut at ``cuts``; a receive
    takes from the piece that has arrived. ``honour`` receives as
    sockets do: ``exactly=n`` waits for ``n`` bytes (short only at the
    close) and ``until`` takes nothing past its first match. Without
    it they receive as the simulator does: ``until`` is ignored and
    ``exactly`` only caps the piece."""

    def __init__(self, wire, cuts, honour):
        bounds = sorted({0, len(wire), *cuts})
        self.pieces = [wire[a:b] for a, b in zip(bounds, bounds[1:])]
        self.honour = honour

    def receive(self, exactly=None, until=None):
        return ("recv", exactly, until)

    def _take(self, count):
        piece = self.pieces.pop(0)
        if count < len(piece):
            self.pieces.insert(0, piece[count:])
        return piece[:count]

    def resolve(self, exactly, until):
        if not self.pieces:
            return b""
        if exactly is not None and self.honour:
            out = b""
            while len(out) < exactly and self.pieces:
                out += self._take(exactly - len(out))
            return out
        count = len(self.pieces[0])
        if exactly is not None:
            count = min(count, exactly)
        elif until is not None and self.honour:
            end = self.pieces[0].find(until)
            if end >= 0:
                count = end + len(until)
        return self._take(count)


def run_effects(op, peer, charged):
    """Drive ``op``: receives from ``peer``, charges into ``charged``."""
    result = None
    while True:
        try:
            effect = op.send(result)
        except StopIteration as stop:
            return stop.value
        if effect[0] == "charge":
            charged.append(effect[1])
            result = None
        else:
            result = peer.resolve(*effect[1:])


def encoded_response(framing, body):
    """``(method, wire, status, headers, body)`` of one response."""
    method, status, version, payload = "GET", 200, "HTTP/1.1", body
    if framing == "length":
        headers = [("Content-Length", str(len(body)))]
    elif framing == "chunked":
        headers = [("Transfer-Encoding", "chunked")]
        payload = b"".join(
            encode_chunk(body[i : i + 300]) for i in range(0, len(body), 300)
        ) + encode_last_chunk()
    elif framing == "eof":
        headers, version = [("Server", "eof")], "HTTP/1.0"
    else:  # bodyless, whatever the head declares
        headers = [("Content-Length", str(len(body)))]
        if framing == "HEAD":
            method = "HEAD"
        else:
            status, headers = int(framing), [("ETag", '"v1"')]
        payload = body = b""
    head = f"{version} {status} X\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return method, head.encode() + b"\r\n" + payload, status, headers, body


_read_framings = st.lists(
    st.sampled_from(["length", "chunked", "eof", "HEAD", "204", "304"]),
    max_size=2,
).filter(lambda framings: "eof" not in framings[:-1])


@given(
    _read_framings,
    st.lists(st.binary(max_size=700), min_size=2, max_size=2),
    _cuts,
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
    st.booleans(),
    st.booleans(),
)
@example(["length", "204"], [b"body", b""], [], [2, 0], True, False)
def test_read_message_any_split_either_receive(
    framings, bodies, cuts, terminator_cuts, honour, stream
):
    """Messages read back equal what was encoded, however the wire is
    cut (the head terminator at any of its bytes) and whether or not
    the receives honour their hints; a close before a message reads
    ``None``; with hints honoured, a collected message with no
    chunked body takes no byte of the next one."""
    messages = [encoded_response(f, b) for f, b in zip(framings, bodies)]
    wire, ends = b"", []
    for _, message, *_ in messages:
        terminator = len(wire) + message.index(b"\r\n\r\n")
        cuts = cuts + [terminator + terminator_cuts[len(ends)]]
        wire += message
        ends.append(len(wire))
    peer = ScriptedPeer(wire, [c % (len(wire) + 1) for c in cuts], honour)
    parser = HttpParser("client")
    for method, *_ in messages:
        parser.expect_response_to(method)
    charged, first_bytes, streamed = [], [], []

    def read():
        return run_effects(
            read_message(
                parser,
                peer.receive,
                (lambda head: streamed.append) if stream else None,
                charge=lambda count: ("charge", count),
                first_byte=lambda: first_bytes.append(parser.received),
            ),
            peer,
            charged,
        )

    for framing, (_, _, status, headers, body), end in zip(
        framings, messages, ends
    ):
        streamed.clear()
        first_bytes.clear()
        before = parser.received
        head = read()
        assert first_bytes == ([before] if parser.received > before else [])
        assert (head.status, list(head.headers.items())) == (status, headers)
        if stream:
            assert head.body == b"" and b"".join(streamed) == body
        else:
            assert head.body == body and not streamed
        if honour and not stream and framing != "chunked":
            assert parser.received == end
    first_bytes.clear()
    assert read() is None
    assert sum(charged) == parser.received == len(wire)
    assert all(charged) and first_bytes == []
