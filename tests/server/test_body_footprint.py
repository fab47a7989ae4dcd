"""A received HTTP body is held once, on both ends and both runtimes.

A sized body lands in one buffer on the receiving side and the store
adopts what the server received, so a 16 MiB PUT or GET peaks at about
one body. A peer's declared length alone allocates nothing: a head
claiming a terabyte, followed by a KiB and a close, costs a KiB and
ends in the parser's typed error.
"""

import random
import threading
import time
from functools import partial

import pytest

from repro.concurrency import (
    Accept,
    Close,
    Connect,
    Recv,
    Send,
    SimRuntime,
    Sleep,
    ThreadRuntime,
)
from repro.core import DavixClient, RequestParams, open_session
from repro.errors import (
    ConnectionClosed,
    DeadlineExceeded,
    HttpParseError,
    TransferTimeout,
)
from repro.http import BodyCollector, HttpParser, Request, codec, read_message
from repro.http.codec import (
    MAX_PREALLOCATED_BODY,
    encode_chunk,
    encode_last_chunk,
)
from repro.net import TcpOptions
from repro.obs import MetricsRegistry
from repro.server import ObjectStore, StorageApp, handlers, real_server
from repro.server import app as server_app

from tests.helpers import NO_RETRY, davix_world, put, sim_world, traced_peak

MIB = 1 << 20
BODY = random.Random(7).randbytes(16 * MIB)
#: A terabyte declared, one KiB sent.
HOSTILE_LENGTH = 1 << 40
TAIL = bytes(1024)


def read_request(channel):
    """Effect sub-op: one request, received as the server's loop does."""
    receive = partial(Recv, channel, timeout=server_app.KEEPALIVE_IDLE)
    return (yield from read_message(HttpParser("server"), receive))


# -- a 16 MiB PUT and GET -----------------------------------------------------


def put_then_get(client, url):
    """Footprints of a PUT of ``BODY`` to ``url`` and a GET of it back."""
    stored = traced_peak(lambda: client.put(url, BODY))
    fetched = traced_peak(lambda: client.get(url))
    assert fetched.result == BODY
    return stored.peak, fetched.peak


def test_a_16_mib_put_and_get_peak_at_one_body_sim():
    """On SimRuntime the TCP model's own buffers are Python bytes and
    traced too; on sockets the kernel holds them. Up to a window of
    bursts is in flight, and the model's send buffer is unbounded, so
    the server streams a GET's whole response into it before the first
    byte arrives. Past those, each side holds one body."""
    client, _app, store, _ = davix_world(bandwidth=1e9)
    put_peak, get_peak = put_then_get(client, "http://server/bulk")
    assert store.read("/bulk") == BODY
    in_flight = TcpOptions().max_window
    assert put_peak <= 1.1 * len(BODY) + in_flight
    assert get_peak <= 1.1 * len(BODY) + len(BODY)


def test_a_16_mib_put_and_get_peak_at_one_body_sockets():
    store = ObjectStore()
    client = DavixClient(ThreadRuntime())
    with real_server(StorageApp(store)) as server:
        put_peak, get_peak = put_then_get(
            client, f"http://127.0.0.1:{server.port}/bulk"
        )
        client.context.pool.clear()
    assert store.read("/bulk") == BODY
    assert put_peak <= 1.1 * len(BODY)
    assert get_peak <= 1.1 * len(BODY)


# -- hostile declared lengths -------------------------------------------------


def runtimes(kind):
    """``(client runtime, server runtime, listener, endpoint)``."""
    if kind == "sim":
        client_rt, server_rt = sim_world()
        return client_rt, server_rt, server_rt.listen(80), ("server", 80)
    runtime = ThreadRuntime()
    listener = runtime.listen(0)
    return runtime, runtime, listener, ("127.0.0.1", listener.port)


def exchange(kind, server, client):
    """Run ``server(channel)`` on the first accepted connection and
    ``client(endpoint)`` against it; returns what each ended with (a
    raised error is returned as itself), with the traced footprint."""
    client_rt, server_rt, listener, endpoint = runtimes(kind)

    def ended(op):
        try:
            return (yield from op)
        except (ConnectionClosed, HttpParseError, TransferTimeout) as exc:
            return exc

    def accept_one():
        channel = yield Accept(listener)
        try:
            return (yield from ended(server(channel)))
        finally:
            yield Close(channel)

    def both():
        task = server_rt.spawn(accept_one())
        client_ended = client_rt.run(ended(client(endpoint)))
        return server_rt.join(task), client_ended

    try:
        return traced_peak(both)
    finally:
        if kind == "sockets":
            listener.close()


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_hostile_request_length_costs_what_was_sent(kind):
    def client(endpoint):
        channel = yield Connect(endpoint)
        yield Send(
            channel,
            b"PUT /x HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s"
            % (HOSTILE_LENGTH, TAIL),
        )
        yield Close(channel)

    def server(channel):
        return (yield from read_request(channel))

    (server_ended, _), peak, _ = exchange(kind, server, client)
    # What handle_connection catches to drop the connection.
    assert isinstance(server_ended, HttpParseError)
    assert peak <= MIB


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_hostile_response_length_costs_what_was_sent(kind):
    def server(channel):
        yield Recv(channel)  # the request
        yield Send(
            channel,
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
            % (HOSTILE_LENGTH, TAIL),
        )

    def client(endpoint):
        session = yield from open_session(
            ("http", endpoint[0], endpoint[1]), endpoint, MetricsRegistry()
        )
        return (
            yield from session.request(
                Request("GET", "/x", {"Host": endpoint[0]})
            )
        )

    (_, client_ended), peak, _ = exchange(kind, server, client)
    assert isinstance(client_ended, (ConnectionClosed, HttpParseError))
    assert peak <= MIB


# -- a striped (Content-Range) upload -----------------------------------------


def test_the_completing_chunk_of_a_ranged_put_stores_its_buffer():
    """The upload buffer, once the last span lands, is the object: the
    completing chunk allocates nothing near the object's size."""
    app = StorageApp(ObjectStore())
    half = len(BODY) // 2
    total = len(BODY)
    first = put("/striped", BODY[:half],
                {"Content-Range": f"bytes 0-{half - 1}/{total}"})
    last = put("/striped", BODY[half:],
               {"Content-Range": f"bytes {half}-{total - 1}/{total}"})
    assert app.handle(first).response.status == 202
    served, peak, _ = traced_peak(lambda: app.handle(last))
    assert served.response.status == 201
    assert app.store.read("/striped") == BODY
    assert peak <= MIB


def test_a_hostile_upload_total_costs_what_was_sent():
    """A 1-byte chunk declaring a 32 TiB object is accepted and held as
    the byte it is."""
    app = StorageApp(ObjectStore())
    chunk = put("/huge", b"x", {"Content-Range": "bytes 0-0/35184372088832"})
    served, peak, _ = traced_peak(lambda: app.handle(chunk))
    assert served.response.status == 202
    assert peak <= MIB


@pytest.mark.parametrize("bound", [8, MAX_PREALLOCATED_BODY])
def test_a_ranged_upload_commits_its_chunks_in_arrival_order(
    monkeypatch, bound
):
    """Above the bound the chunks are kept and written at commit; the
    bytes stored are those of a preallocated upload: a later chunk
    overwrites an earlier one where they overlap."""
    monkeypatch.setattr(handlers, "MAX_PREALLOCATED_BODY", bound)
    app = StorageApp(ObjectStore())
    body = bytes(range(20))
    first = put("/big", b"\xff" * 12, {"Content-Range": "bytes 0-11/20"})
    last = put("/big", body[10:], {"Content-Range": "bytes 10-19/20"})
    assert app.handle(first).response.status == 202
    assert app.handle(last).response.status == 201
    assert app.store.read("/big") == b"\xff" * 10 + body[10:]


def test_abandoned_uploads_are_capped_oldest_first():
    metrics = MetricsRegistry()
    app = StorageApp(ObjectStore(), metrics=metrics)
    for i in range(handlers.MAX_PENDING_UPLOADS + 1):
        chunk = put(f"/u{i}", b"x", {"Content-Range": "bytes 0-0/2"})
        assert app.handle(chunk).response.status == 202
    assert len(app._uploads) == handlers.MAX_PENDING_UPLOADS
    assert "/u0" not in app._uploads
    assert metrics.value("server.uploads_evicted_total") == 1


# -- the rest of a sized body, received whole ---------------------------------

SMALL = BODY[: 64 << 10]
#: Between two sends: long enough that each is a receive of its own.
PAUSE = 0.03
#: ``SMALL`` as eight sends.
EIGHTHS = [SMALL[i:i + 8192] for i in range(0, len(SMALL), 8192)]
#: A receive timeout that several ``PAUSE``s outlast.
SHORT_WAIT = 0.1
#: How long a socket test may take before it counts as hung.
HUNG = 10.0


def watched(op, seen):
    """Run ``op``, appending ``(effect, what it resolved to or raised)``
    to ``seen`` for every effect it yields."""
    result = failure = None
    while True:
        try:
            step = op.send(result) if failure is None else op.throw(failure)
        except StopIteration as stop:
            return stop.value
        result = failure = None
        try:
            result = yield step
        except Exception as exc:  # delivered into ``op``
            failure = exc
        seen.append((step, result if failure is None else failure))


def receives(seen):
    """``(head receives, owed-body receives, plain receives)`` of
    ``seen``, each as the list of what those receives resolved to."""
    heads, owed, plain = [], [], []
    for step, outcome in seen:
        if isinstance(step, Recv):
            kind = (
                heads if step.until is not None
                else owed if step.exactly is not None
                else plain
            )
            kind.append(outcome)
    return heads, owed, plain


def bounded(fn):
    """``fn()`` in a thread of its own, failing instead of hanging
    when it takes longer than ``HUNG``."""
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(fn()))
    worker.daemon = True
    worker.start()
    worker.join(HUNG)
    assert not worker.is_alive(), f"still running after {HUNG}s"
    return outcome[0]


@pytest.fixture()
def added(monkeypatch):
    """The size of every piece :meth:`BodyCollector.add` is handed."""
    sizes = []
    add = BodyCollector.add

    def counted(collector, data):
        sizes.append(len(data))
        return add(collector, data)

    monkeypatch.setattr(BodyCollector, "add", counted)
    return sizes


def response_head(framing):
    return b"HTTP/1.1 200 OK\r\n" + framing + b"\r\n"


def sized(body):
    return response_head(b"Content-Length: %d\r\n" % len(body))


def answer(*pieces, linger=0.0):
    """A server that answers the request with ``pieces``: one send
    each, after a pause, so each is a receive of its own; then it
    waits ``linger`` seconds before it closes."""
    def server(channel):
        yield Recv(channel)  # the request
        for piece in pieces:
            yield Sleep(PAUSE)
            yield Send(channel, piece)
        if linger:
            yield Sleep(linger)
    return server


def get_watched(seen, timeout=None, deadline=None):
    def client(endpoint):
        session = yield from open_session(
            ("http", endpoint[0], endpoint[1]), endpoint, MetricsRegistry()
        )
        request = Request("GET", "/x", {"Host": endpoint[0]})
        response = yield from watched(
            session.request(request, timeout=timeout, deadline=deadline),
            seen,
        )
        return response.body
    return client


def get_pieces(kind, *pieces, timeout=None, linger=0.0):
    """``(client ended with, its head, owed-body and plain receives)``."""
    seen = []
    (_, ended), _, _ = exchange(
        kind, answer(*pieces, linger=linger), get_watched(seen, timeout)
    )
    return (ended, *receives(seen))


@pytest.fixture()
def recorded(monkeypatch):
    """Every completed ``Recv`` of either runtime, on either end, as
    ``(effect, bytes)``."""
    seen = []
    perform, recv = SimRuntime._perform, ThreadRuntime._recv

    def sim_perform(runtime, step):
        result = yield from perform(runtime, step)
        if isinstance(step, Recv):
            seen.append((step, result))
        return result

    def socket_recv(runtime, step):
        data = recv(runtime, step)
        seen.append((step, data))
        return data

    monkeypatch.setattr(SimRuntime, "_perform", sim_perform)
    monkeypatch.setattr(ThreadRuntime, "_recv", socket_recv)
    return seen


def test_16_mib_put_and_get_take_a_head_and_a_body_receive_on_sockets(
    recorded,
):
    """Each exchange is a head receive on each end and one receive of
    the whole body; the object stored and the body ``get`` returns are
    those receives' own ``bytes``, not copies of them."""
    store = ObjectStore()
    client = DavixClient(ThreadRuntime())

    def put_then_get(url):
        client.put(url, BODY)
        put = receives(recorded)
        recorded.clear()
        return put, client.get(url), receives(recorded)

    with real_server(StorageApp(store)) as server:
        put, fetched, get = bounded(
            lambda: put_then_get(f"http://127.0.0.1:{server.port}/bulk")
        )
        client.context.pool.clear()
    for heads, owed, plain in (put, get):
        # The request's head on the server, the response's on the client.
        assert len(heads) == 2 and plain == []
        assert all(head.endswith(b"\r\n\r\n") for head in heads)
        assert len(owed) == 1 and owed[0] == BODY
    stored = store.get("/bulk").content.view(0, len(BODY))
    assert stored.obj is put[1][0]
    assert fetched is get[1][0]


def test_a_16_mib_put_and_get_receive_as_often_as_before_on_the_sim(recorded):
    """The simulator's bursts are what plain receives were: a head
    receive per message and a receive per burst of each body, as many
    as before owed bodies were asked for whole."""
    client, _app, store, _ = davix_world(bandwidth=1e9)
    client.put("http://server/bulk", BODY)
    heads, owed, plain = receives(recorded)
    assert (len(heads), len(owed), len(plain)) == (2, 263, 0)
    recorded.clear()
    assert client.get("http://server/bulk") == BODY
    heads, owed, plain = receives(recorded)
    assert (len(heads), len(owed), len(plain)) == (2, 268, 0)
    assert max(map(len, owed)) == 65536


def test_a_body_sent_in_pieces_is_one_receive_on_sockets(added):
    body, heads, owed, plain = bounded(
        lambda: get_pieces("sockets", sized(SMALL), *EIGHTHS)
    )
    assert heads == [sized(SMALL)] and plain == []
    assert owed == [SMALL] and body is owed[0]
    assert added == [len(SMALL)]


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_body_split_over_many_receives_lands_in_place(kind, added):
    """On the simulator each burst is a receive; on sockets a receive
    timeout shorter than the sends' spacing cuts the body, each owed
    receive resolving short with what arrived. Either way the pieces
    land in one buffer."""
    body, heads, owed, plain = bounded(
        lambda: get_pieces(kind, sized(SMALL), *EIGHTHS, timeout=SHORT_WAIT)
    )
    assert type(body) is bytearray and body == SMALL
    assert len(heads) == 1 and plain == []
    assert added == list(map(len, owed))
    assert len(owed) == 8 if kind == "sim" else len(owed) >= 2


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_body_bytes_that_came_with_the_head_are_added_once(kind, added):
    body, heads, owed, _ = get_pieces(
        kind, sized(SMALL) + SMALL[:1000], SMALL[1000:]
    )
    assert body == SMALL
    assert sum(added) == len(SMALL)
    if kind == "sim":
        # The head's receive brought them; the rest is owed.
        assert added[0] == 1000 and len(owed) >= 1
    else:
        # The head's receive stops at the head: the body is one receive.
        assert heads == [sized(SMALL)] and owed == [SMALL]


@pytest.mark.parametrize("kind", ["sim"])  # on sockets a head is alone
def test_a_head_read_that_holds_the_whole_body_is_that_read(kind, added):
    small = SMALL[:4096]
    body, heads, owed, plain = get_pieces(kind, sized(small) + small)
    assert type(body) is bytes and body == small
    assert added == [len(small)] and (len(heads), owed, plain) == (1, [], [])


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_an_eof_mid_body_is_the_parsers_error(kind):
    ended, _, owed, _ = bounded(
        lambda: get_pieces(kind, sized(SMALL), SMALL[:1000])
    )
    assert isinstance(ended, HttpParseError)
    assert str(ended) == f"EOF with {len(SMALL) - 1000} body bytes missing"
    assert owed == [SMALL[:1000], b""]  # the 1000 bytes, then the EOF


def test_a_stalled_body_resolves_short_then_times_out():
    """Half the body, then nothing for longer than the receive
    timeout: the owed receive resolves with the half, the next one
    raises."""
    half = len(SMALL) // 2
    ended, _, owed, _ = bounded(
        lambda: get_pieces(
            "sockets", sized(SMALL), SMALL[:half],
            timeout=SHORT_WAIT, linger=5 * SHORT_WAIT,
        )
    )
    assert owed[0] == SMALL[:half]
    assert isinstance(owed[1], TransferTimeout) and len(owed) == 2
    assert isinstance(ended, TransferTimeout)


def test_a_trickled_body_ends_at_the_deadline():
    """A byte every 0.1 s never trips a 1 s receive timeout, but the
    request's 0.5 s deadline bounds the owed receive as a whole."""
    deadline, epsilon = 0.5, 0.25
    runtime = ThreadRuntime()
    listener = runtime.listen(0)

    def trickle():
        channel = yield Accept(listener)
        try:
            yield Recv(channel)  # the request
            yield Send(channel, sized(SMALL))
            for _ in range(40):
                yield Sleep(0.1)
                yield Send(channel, b"x")
        except ConnectionClosed:
            pass  # the client gave up
        finally:
            yield Close(channel)

    client = DavixClient(ThreadRuntime())
    params = RequestParams(
        deadline=deadline, operation_timeout=1.0, retry_policy=NO_RETRY
    )

    def fetch():
        started = time.monotonic()
        try:
            client.get(f"http://127.0.0.1:{listener.port}/x", params=params)
        except DeadlineExceeded:
            return time.monotonic() - started

    task = runtime.spawn(trickle())
    try:
        elapsed = bounded(fetch)
    finally:
        client.context.pool.clear()
        runtime.join(task)
        listener.close()
    assert elapsed is not None and elapsed <= deadline + epsilon


def test_a_head_cut_inside_its_terminator_still_yields_the_body(added):
    """The first receive ends inside the head's blank line, so the
    next one stops at what of the terminator is still unmatched: it
    takes the head's last two bytes and no body, and the whole body
    is one owed receive."""
    wire = sized(SMALL)
    body, heads, owed, _ = bounded(
        lambda: get_pieces("sockets", wire[:-2], wire[-2:] + SMALL)
    )
    assert body == SMALL and type(body) is bytes
    assert heads == [wire[:-2], b"\r\n"]
    assert sum(added) == len(SMALL) and len(owed) <= 1


@pytest.mark.parametrize("kind", ["sim", "sockets"])
@pytest.mark.parametrize("framing", ["chunked", "until-eof", "oversized"])
def test_other_bodies_keep_the_chunk_path(kind, framing, monkeypatch):
    if framing == "chunked":
        wire = response_head(b"Transfer-Encoding: chunked\r\n") + b"".join(
            map(encode_chunk, EIGHTHS)
        ) + encode_last_chunk()
    elif framing == "until-eof":
        wire = response_head(b"") + SMALL
    else:
        monkeypatch.setattr(codec, "MAX_PREALLOCATED_BODY", 1000)
        wire = sized(SMALL) + SMALL
    body, heads, owed, plain = get_pieces(kind, wire[:100], wire[100:])
    assert type(body) is bytes and body == SMALL
    assert len(heads) + len(plain) >= 2 and owed == []


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_request_body_split_over_many_receives_lands_in_place(
    kind, added, monkeypatch
):
    """As for a response: on sockets the server's receive timeout,
    shortened here, cuts the owed receives."""
    monkeypatch.setattr(server_app, "KEEPALIVE_IDLE", SHORT_WAIT)

    def client(endpoint):
        channel = yield Connect(endpoint)
        yield Send(
            channel,
            b"PUT /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(SMALL),
        )
        for piece in EIGHTHS:
            yield Sleep(PAUSE)
            yield Send(channel, piece)
        yield Close(channel)

    seen = []

    def server(channel):
        request = yield from watched(
            read_request(channel), seen
        )
        return request.body

    (body, _), _, _ = bounded(lambda: exchange(kind, server, client))
    heads, owed, plain = receives(seen)
    assert type(body) is bytearray and body == SMALL
    assert len(heads) == 1 and plain == []
    assert added == list(map(len, owed))
    assert len(owed) == 8 if kind == "sim" else len(owed) >= 2
