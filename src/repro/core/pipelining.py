"""Classic HTTP/1.1 pipelining client — the baseline davix rejects.

Sends all requests back-to-back on **one** connection and reads the
responses strictly in order, exactly as RFC 7230 §6.3.2 allows. Used by
the FIG1-HOL experiment to demonstrate the head-of-line blocking the
paper's Section 2.2 describes: one slow (large) response delays every
response queued behind it, however small.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.concurrency import Close, Connect, Now, Recv, Send
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

__all__ = ["pipeline_requests"]


def pipeline_requests(
    endpoint: Tuple[str, int],
    requests: Sequence[Request],
    tcp_options=None,
):
    """Effect op: pipeline ``requests`` on one connection.

    Returns ``(responses, completion_times)`` where
    ``completion_times[i]`` is the time the *i*-th response finished
    arriving — the per-request latency distribution is the HOL
    evidence.
    """
    channel = yield Connect(endpoint, tcp_options)
    parser = HttpParser("client")

    wire = bytearray()
    for request in requests:
        request.headers.setdefault("Host", endpoint[0])
        parser.expect_response_to(request.method)
        wire += serialize_request(request)
    # The pipeline: every request leaves before any response returns.
    yield Send(channel, bytes(wire))

    responses: List[Response] = []
    completions: List[float] = []
    head: Optional[Response] = None
    body: Optional[BodyCollector] = None
    while len(responses) < len(requests):
        event = parser.next_event()
        if event == NEED_DATA:
            data = yield Recv(channel)
            parser.receive_data(data)
            continue
        if event == CONNECTION_CLOSED:
            raise ConnectionClosed(
                f"server closed after {len(responses)} of "
                f"{len(requests)} pipelined responses"
            )
        if isinstance(event, Response):
            head = event
            body = BodyCollector(parser.body_length)
        elif isinstance(event, Data):
            body.add(event.data)
        elif isinstance(event, EndOfMessage):
            head.body = body.body()
            responses.append(head)
            completions.append((yield Now()))
    yield Close(channel)
    return responses, completions
