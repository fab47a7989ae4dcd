"""Shared test helpers: a minimal effect-based HTTP client and sim
world builders (used to exercise the server before/beside the davix
client)."""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Callable, NamedTuple, Optional

from repro.concurrency import Close, Connect, Recv, Send, SimRuntime
from repro.errors import ConnectionClosed
from repro.http import (
    CONNECTION_CLOSED,
    NEED_DATA,
    BodyCollector,
    Data,
    EndOfMessage,
    HttpParser,
    Request,
    Response,
    serialize_request,
)
from repro.net import LinkSpec, Network
from repro.resilience import RetryPolicy
from repro.sim import Environment

#: ``RequestParams(retry_policy=NO_RETRY)``: the first failure is final.
NO_RETRY = RetryPolicy(max_attempts=1)


class Footprint(NamedTuple):
    """What :func:`traced_peak` saw of one call."""

    result: Any
    #: The most bytes traced above the start while the call ran.
    peak: int
    #: The bytes still traced above the start once it had returned.
    held: int


def traced_peak(
    fn: Callable[[], Any],
    settled: Optional[Callable[[int], bool]] = None,
) -> Footprint:
    """Run ``fn()`` under tracemalloc (started here unless it already
    runs) and measure it against the bytes traced when it was called.

    ``settled``, a test on ``held``, is for a server thread that may
    still be finishing the request it has just answered: ``held`` is
    re-read until the test passes, for up to five seconds.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        deadline = time.monotonic() + 5.0
        while settled is not None and not settled(current - base):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
            current = tracemalloc.get_traced_memory()[0]
        return Footprint(result, peak - base, current - base)
    finally:
        if started_here:
            tracemalloc.stop()


def immediate(attempts: int) -> RetryPolicy:
    """``attempts`` tries with no backoff between them."""
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter="none")


def read_response(channel, parser):
    """Effect sub-op: read one complete response."""
    head = body = None
    while True:
        event = parser.next_event()
        if event == NEED_DATA:
            data = yield Recv(channel)
            parser.receive_data(data)
            continue
        if event == CONNECTION_CLOSED:
            raise ConnectionClosed("server closed mid-exchange")
        if isinstance(event, Response):
            head = event
            body = BodyCollector(parser.body_length)
        elif isinstance(event, Data):
            body.add(event.data)
        elif isinstance(event, EndOfMessage):
            head.body = body.body()
            return head


def http_exchange(endpoint, requests, options=None):
    """Effect op: send ``requests`` on one connection, sequentially."""
    channel = yield Connect(endpoint, options)
    parser = HttpParser("client")
    responses = []
    for request in requests:
        request.headers.setdefault("Host", endpoint[0])
        parser.expect_response_to(request.method)
        yield Send(channel, serialize_request(request))
        response = yield from read_response(channel, parser)
        responses.append(response)
    yield Close(channel)
    return responses


def one_request(endpoint, request, options=None):
    """Effect op: single request/response on a fresh connection."""
    responses = yield from http_exchange(endpoint, [request], options)
    return responses[0]


def left_idle(endpoint, request):
    """Effect op: one request on a fresh keep-alive connection, which is
    then left open and idle; returns ``(channel, response)``."""
    channel = yield Connect(endpoint)
    parser = HttpParser("client")
    request.headers.setdefault("Host", endpoint[0])
    parser.expect_response_to(request.method)
    yield Send(channel, serialize_request(request))
    response = yield from read_response(channel, parser)
    return channel, response


def sim_world(latency=0.001, bandwidth=1e8, seed=0, jitter=0.0):
    """(client_runtime, server_runtime) on a 2-host simulated network."""
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client",
        "server",
        LinkSpec(latency=latency, bandwidth=bandwidth, jitter=jitter),
    )
    return SimRuntime(net, "client"), SimRuntime(net, "server")


def get(path, headers=None):
    return Request("GET", path, headers or {})


def put(path, body, headers=None):
    return Request("PUT", path, headers or {}, body=body)


def davix_world(
    latency=0.001,
    bandwidth=1e8,
    seed=0,
    config=None,
    faults=None,
    replicas=None,
    params=None,
    breaker=None,
):
    """A DavixClient wired to a simulated storage server.

    Returns (client, app, store, server_runtime).
    """
    from repro.core import Context, DavixClient
    from repro.server import HttpServer, ObjectStore, StorageApp

    client_rt, server_rt = sim_world(
        latency=latency, bandwidth=bandwidth, seed=seed
    )
    store = ObjectStore(clock=server_rt.now)
    app = StorageApp(store, config=config, faults=faults, replicas=replicas)
    HttpServer(server_rt, app, port=80).start()
    context = Context(params=params, breaker=breaker)
    client = DavixClient(client_rt, context=context)
    return client, app, store, server_rt


def scan_columns(reader, lanes=1):
    """Effect sub-op: {branch: records} of every entry of an opened
    ``reader``, read one entry at a time through a ``TTreeCache`` that
    refills ``lanes`` windows at once."""
    from repro.rootio import TTreeCache

    cache = TTreeCache(reader, lanes=lanes)
    columns = {name: [] for name in cache.branch_names}
    for entry in range(reader.meta.n_entries):
        record = yield from cache.read_entry(entry)
        for name, value in record.items():
            columns[name].append(value)
    return {name: b"".join(parts) for name, parts in columns.items()}
