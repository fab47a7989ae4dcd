"""A multi-range 206 leaves every server app as a gather list.

``Response.pieces`` holds the multipart body as buffers — a large
payload standing alone, small neighbours joined — and the connection
loop writes them in one gather ``Send``. What is on the wire is what
the joined body was: these tests decode it back, app by app.
"""

from repro.concurrency import Abort, Send
from repro.core import DavixClient
from repro.http import (
    Headers,
    RangePart,
    Request,
    Response,
    decode_byteranges,
    encode_byteranges,
    gather_byteranges,
    gather_response,
    serialize_response,
    serialize_response_head,
)
from repro.http.multipart import GATHER_MIN, content_type_boundary
from repro.server import HttpServer, ObjectStore, ServedResponse, StorageApp
from repro.server.app import _send_result

from tests.helpers import proxy_outcomes, sim_world
from tests.server.test_proxy import proxy_world

CONTENT = bytes((i * 31 + 7) % 256 for i in range(4 * GATHER_MIN))
#: One payload large enough to stand alone between small ones.
READS = [(10, 20), (1000, GATHER_MIN + 5), (3 * GATHER_MIN, 64), (50, 7)]
RANGE = "bytes=" + ",".join(f"{o}-{o + n - 1}" for o, n in READS)
EXPECTED = [
    RangePart(offset=o, data=CONTENT[o : o + n], total=len(CONTENT))
    for o, n in READS
]


def test_multirange_206_is_a_gather_list_with_the_same_wire_bytes():
    store = ObjectStore()
    store.put("/data/blob", CONTENT)
    served = StorageApp(store).handle(
        Request("GET", "/data/blob", Headers([("Range", RANGE)]))
    )
    response = served.response
    assert response.status == 206 and response.body == b""
    boundary = content_type_boundary(response.content_type)
    body = b"".join(response.pieces)
    assert decode_byteranges(body, boundary) == EXPECTED
    assert body == encode_byteranges(EXPECTED, boundary)
    assert served.body_length == response.body_length == len(body)
    # The large payload is a buffer of its own; the rest is joined.
    assert [len(p) for p in response.pieces if len(p) >= GATHER_MIN] == [
        GATHER_MIN + 5
    ]
    assert len(response.pieces) == 3
    wire = gather_response(response)
    assert wire[1:] == list(response.pieces)
    assert serialize_response(response) == b"".join(wire)
    assert f"Content-Length: {len(body)}\r\n".encode() in wire[0]


def test_many_small_parts_are_one_buffer():
    parts = [
        RangePart(offset=i * 8192, data=b"x" * 4096, total=1 << 22)
        for i in range(256)
    ]
    assert len(gather_byteranges(parts, "B")) == 1


def test_both_apps_serve_the_same_fragments_end_to_end():
    want = [CONTENT[o : o + n] for o, n in READS]

    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/data/blob", CONTENT)
    HttpServer(server_rt, StorageApp(store), port=80).start()
    client = DavixClient(client_rt)
    assert client.pread_vec("http://server/data/blob", READS) == want

    client, proxy, _origin, store, _net = proxy_world()
    store.put("/blob", CONTENT)
    assert client.pread_vec("http://origin/blob", READS) == want
    # The repeat is assembled from the proxy's own pages.
    assert client.pread_vec("http://origin/blob", READS) == want
    outcomes = proxy_outcomes(proxy)
    assert outcomes["HIT"] + outcomes["STALE"] == 1


def test_reset_midway_cuts_a_gathered_response_at_the_same_byte():
    """The reset fault sends the first ``max(1, len(wire) // 2)`` bytes
    of the response — head included — without joining the body."""
    response = Response(
        206,
        Headers([("Content-Type", "multipart/byteranges; boundary=B")]),
        pieces=[b"a" * 10, b"b" * 1000, b"c" * 10],
    )
    wire = serialize_response(response)
    effects = list(
        _send_result("chan", ServedResponse(response, reset_midway=True))
    )
    assert isinstance(effects[0], Send) and isinstance(effects[1], Abort)
    sent = effects[0].data
    assert b"".join(sent) == wire[: max(1, len(wire) // 2)]
    head = serialize_response_head(response)
    assert sent[0] == head and sent[1] == b"a" * 10  # passed through whole
