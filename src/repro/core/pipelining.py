"""Classic HTTP/1.1 pipelining client — the baseline davix rejects.

Sends all requests back-to-back on **one** connection and reads the
responses strictly in order, exactly as RFC 7230 §6.3.2 allows. Used by
the FIG1-HOL experiment to demonstrate the head-of-line blocking the
paper's Section 2.2 describes: one slow (large) response delays every
response queued behind it, however small.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence, Tuple

from repro.concurrency import Close, Connect, Now, Recv, Send
from repro.errors import ConnectionClosed
from repro.http import (
    HttpParser,
    Request,
    Response,
    gather_request,
    read_message,
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
    wire = []
    for request in requests:
        request.headers.setdefault("Host", endpoint[0])
        parser.expect_response_to(request.method)
        wire += gather_request(request)
    # The pipeline: every request leaves, in one gather write, before
    # any response returns.
    yield Send(channel, wire)

    receive = partial(Recv, channel)
    responses: List[Response] = []
    completions: List[float] = []
    for _ in requests:
        response = yield from read_message(parser, receive)
        if response is None:
            raise ConnectionClosed(
                f"server closed after {len(responses)} of "
                f"{len(requests)} pipelined responses"
            )
        responses.append(response)
        completions.append((yield Now()))
    yield Close(channel)
    return responses, completions
