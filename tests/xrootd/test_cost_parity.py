"""One server, two wires, one cost model.

The paper's job reads one file from one DPM server that speaks both
HTTP and XRootD. On the simulator, the same n-byte read must be answered
after the same service time over either wire: an HTTP GET with a Range
and a ``kXR_read`` wait the same time for their first reply byte.
"""

import pytest

from repro.concurrency import Close, Connect, Now, Recv, Send, SimRuntime
from repro.http import Request, serialize_request
from repro.net import LinkSpec, Network
from repro.server import HttpServer, ObjectStore, StorageApp
from repro.server.objectstore import service_time
from repro.sim import Environment
from repro.xrootd import XrdServer, serve_xrootd
from repro.xrootd import protocol as proto

PATH = "/data/f.root"
SIZE = 4 << 20
LATENCY = 0.01
#: Wires so fast that a request and a reply's first burst cross them in
#: nanoseconds: what a client waits for its first reply byte is the
#: round trip plus the server's service time, to within ``EPS`` seconds.
BANDWIDTH = 1e13
EPS = 1e-7


def dual_protocol_server():
    """A client runtime, and one store served over HTTP on port 80 and
    over XRootD on port 1094 by one simulated host."""
    net = Network(Environment())
    for host in ("client", "server"):
        net.add_host(host, access_bandwidth=BANDWIDTH)
    net.set_route(
        "client", "server", LinkSpec(latency=LATENCY, bandwidth=BANDWIDTH)
    )
    server_rt = SimRuntime(net, "server")
    store = ObjectStore(clock=server_rt.now)
    store.put(PATH, bytes(SIZE))
    HttpServer(server_rt, StorageApp(store), port=80).start()
    serve_xrootd(server_rt, XrdServer(store), port=1094)
    return SimRuntime(net, "client")


def first_byte(endpoint, setup, request):
    """Effect op: seconds from sending ``request`` to its first reply
    byte, on a fresh connection after the ``setup`` exchange."""
    channel = yield Connect(endpoint)
    for frame, expect in setup:
        yield Send(channel, frame)
        got = 0
        while got < expect:
            got += len((yield Recv(channel)))
    start = yield Now()
    yield Send(channel, request)
    yield Recv(channel)
    waited = (yield Now()) - start
    yield Close(channel)
    return waited


def http_wait(client_rt, offset, length):
    request = Request(
        "GET",
        PATH,
        {"Host": "server", "Range": f"bytes={offset}-{offset + length - 1}"},
    )
    return client_rt.run(
        first_byte(("server", 80), [], serialize_request(request))
    )


def xrootd_wait(client_rt, offset, length):
    opened = proto.encode_response(
        1, proto.STATUS_OK, proto.encode_open_reply(1, SIZE)
    )
    setup = [
        (
            proto.encode_request(1, proto.KXR_OPEN, proto.encode_open(PATH)),
            len(opened),
        )
    ]
    read = proto.encode_request(
        2, proto.KXR_READ, proto.encode_read(1, offset, length)
    )
    return client_rt.run(first_byte(("server", 1094), setup, read))


@pytest.mark.parametrize("length", [1, 64 << 10, 1 << 20, 3 << 20])
def test_a_read_waits_the_same_service_time_over_both_wires(length):
    client_rt = dual_protocol_server()
    http = http_wait(client_rt, 4096, length)
    xrootd = xrootd_wait(client_rt, 4096, length)
    assert http == pytest.approx(xrootd, abs=EPS)
    assert xrootd == pytest.approx(
        2 * LATENCY + service_time(length), abs=EPS
    )
