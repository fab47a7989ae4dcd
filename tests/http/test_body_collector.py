"""One received body, held once.

:class:`BodyCollector` turns the parser's :class:`Data` events into the
message body: the chunk itself when it is all of the body, one
preallocated ``bytearray`` for a sized body that arrives in pieces,
and a join for every body whose size the head does not bound.
"""

import pytest

from repro.http import codec
from repro.http.codec import (
    NEED_DATA,
    BodyCollector,
    Data,
    EndOfMessage,
    HttpParser,
)

BODY = bytes(range(256)) * 64  # 16 KiB


def collect(parser, feeds, method="GET"):
    """Feed ``feeds`` (``b""`` = EOF) and collect the first message's
    body; returns ``(body, parser.body_length at the head)``."""
    if parser.role == "client":
        parser.expect_response_to(method)
    feeds = iter(feeds)
    collector = length = None
    while True:
        event = parser.next_event()
        if event == NEED_DATA:
            parser.receive_data(next(feeds))
        elif isinstance(event, Data):
            collector.add(event.data)
        elif isinstance(event, EndOfMessage):
            return collector.body(), length
        else:  # the head
            length = parser.body_length
            collector = BodyCollector(length)


def head(framing):
    return b"HTTP/1.1 200 OK\r\n" + framing + b"\r\n"


def pieces(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]


def test_a_body_received_in_one_read_is_that_object():
    received = bytes(BODY)  # its own object, not a slice of the wire
    body, length = collect(
        HttpParser("client"),
        [head(b"Content-Length: %d\r\n" % len(BODY)), received],
    )
    assert length == len(BODY)
    assert body is received


def test_a_request_body_received_in_one_read_is_that_object():
    received = bytes(BODY)
    body, _ = collect(
        HttpParser("server"),
        [b"PUT /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(BODY),
         received],
    )
    assert body is received


def test_a_sized_body_in_pieces_lands_in_one_bytearray():
    body, length = collect(
        HttpParser("client"),
        [head(b"Content-Length: %d\r\n" % len(BODY)), *pieces(BODY, 1000)],
    )
    assert length == len(BODY)
    assert type(body) is bytearray
    assert body == BODY


def test_a_chunked_body_is_joined():
    wire = b"".join(
        b"%x\r\n%s\r\n" % (len(piece), piece) for piece in pieces(BODY, 3000)
    ) + b"0\r\n\r\n"
    body, length = collect(
        HttpParser("client"),
        [head(b"Transfer-Encoding: chunked\r\n"), *pieces(wire, 1000)],
    )
    assert length is None
    assert type(body) is bytes
    assert body == BODY


def test_a_read_until_eof_body_is_joined():
    body, length = collect(
        HttpParser("client"), [head(b""), *pieces(BODY, 1000), b""]
    )
    assert length is None
    assert type(body) is bytes
    assert body == BODY


def test_a_body_declared_above_the_bound_is_joined(monkeypatch):
    monkeypatch.setattr(codec, "MAX_PREALLOCATED_BODY", len(BODY) - 1)
    body, length = collect(
        HttpParser("client"),
        [head(b"Content-Length: %d\r\n" % len(BODY)), *pieces(BODY, 1000)],
    )
    assert length == len(BODY)
    assert type(body) is bytes
    assert body == BODY


def test_a_body_declared_at_the_bound_is_preallocated(monkeypatch):
    monkeypatch.setattr(codec, "MAX_PREALLOCATED_BODY", len(BODY))
    body, _ = collect(
        HttpParser("client"),
        [head(b"Content-Length: %d\r\n" % len(BODY)), *pieces(BODY, 1000)],
    )
    assert type(body) is bytearray


@pytest.mark.parametrize(
    "wire, method",
    [
        (head(b"Content-Length: 0\r\n"), "GET"),
        (b"HTTP/1.1 204 No Content\r\n\r\n", "GET"),
        (head(b"Content-Length: 5\r\n"), "HEAD"),
    ],
)
def test_a_message_without_a_body_has_length_zero(wire, method):
    body, length = collect(HttpParser("client"), [wire], method=method)
    assert (body, length) == (b"", 0)
