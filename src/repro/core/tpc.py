"""HTTP third-party copy: multi-stream server-to-server transfers.

WLCG storage federations replicate datasets with the WebDAV COPY verb
driven in two modes: **pull** (COPY sent to the destination with a
``Source`` header — the destination fetches) and **push** (COPY sent to
the source with a remote ``Destination`` — the source uploads). Either
way the object bytes flow site-to-site; the orchestrating client only
sees control traffic plus a stream of ``Perf Marker`` progress frames
on the pending ``202 Accepted`` response, terminated by a
``success:``/``failure:`` line ("Systematic benchmarking of HTTPS third
party copy on 100Gbps links using XRootD", PAPERS.md).

This module is the *active side* of that protocol, run by the storage
server as deferred work (the server acts as a davix client towards its
peer):

* the object is split into fixed-size chunks
  (:func:`~repro.http.ranges.plan_chunks`, the planning rule
  :mod:`repro.core.multistream` shares);
* chunks move over N concurrent ranged GET (pull) or ranged PUT (push)
  lanes via :func:`~repro.concurrency.bounded_gather`, each lane
  retrying its chunk in place on transient failure
  (:func:`_move_chunk`) on top of the per-request
  :class:`~repro.resilience.RetryPolicy`;
* pulls guard every range with ``If-Match`` so a source update
  mid-transfer surfaces as a clean failure instead of a version mix;
* the transfer ends with an RFC 3230 ``Digest`` comparison
  (``Want-Digest: adler32`` on the wire) — a mismatch is *never*
  reported as success and the destination is not committed.

Transfer spans join the orchestrating client's trace (the handler
passes the parsed ``Traceparent``), and per-chunk request spans
propagate onwards to the peer server, so one trace covers client,
active server and passive server.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.concurrency import Now, bounded_gather
from repro.core.request import execute_request
from repro.errors import DavixError, NetworkError, RequestError
from repro.http import Headers, Request, Response, Url, text_response
from repro.http.ranges import format_content_range, plan_chunks

__all__ = [
    "PERF_MARKER_MEDIA_TYPE",
    "PerfMarker",
    "TpcSummary",
    "parse_digest_header",
    "format_marker_stream",
    "parse_marker_stream",
    "run_pull",
    "run_push",
]

#: Content type of the 202 COPY response body (WLCG convention).
PERF_MARKER_MEDIA_TYPE = "text/perf-marker-stream"

#: RFC 3230 digest algorithm used end to end.
DIGEST = "adler32"

#: Chunk-level retry budget on top of the per-request policy.
CHUNK_RETRIES = 2


@dataclass(frozen=True)
class PerfMarker:
    """One progress frame of the perf-marker stream."""

    timestamp: float
    stripe_index: int
    stripe_count: int
    bytes_transferred: int


@dataclass
class TpcSummary:
    """Parsed client view of a finished third-party copy."""

    ok: bool
    message: str
    markers: List[PerfMarker] = field(default_factory=list)

    @property
    def bytes_transferred(self) -> int:
        if not self.markers:
            return 0
        return max(marker.bytes_transferred for marker in self.markers)


def parse_digest_header(value: Optional[str]) -> dict:
    """RFC 3230 ``Digest: algo=value, ...`` -> ``{algo: value}``."""
    digests = {}
    if not value:
        return digests
    for part in value.split(","):
        name, sep, digest = part.partition("=")
        if sep:
            digests[name.strip().lower()] = digest.strip()
    return digests


# -- perf-marker stream (wire format) -----------------------------------------


def format_marker_stream(
    markers: List[PerfMarker], status_line: str
) -> bytes:
    """Render the 202 response body: frames then the status line."""
    lines: List[str] = []
    for marker in markers:
        lines += [
            "Perf Marker",
            f"Timestamp: {marker.timestamp:.6f}",
            f"Stripe Index: {marker.stripe_index}",
            f"Stripe Bytes Transferred: {marker.bytes_transferred}",
            f"Total Stripe Count: {marker.stripe_count}",
            "End",
        ]
    lines.append(status_line)
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_marker_stream(text) -> TpcSummary:
    """Parse a perf-marker body back into a :class:`TpcSummary`."""
    if not isinstance(text, str):  # any bytes-like body
        text = str(text, "utf-8", "replace")
    markers: List[PerfMarker] = []
    frame: dict = {}
    ok = False
    message = "transfer ended without a status line"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "Perf Marker":
            frame = {}
        elif line == "End":
            markers.append(
                PerfMarker(
                    timestamp=float(frame.get("Timestamp", 0.0)),
                    stripe_index=int(frame.get("Stripe Index", 0)),
                    stripe_count=int(frame.get("Total Stripe Count", 0)),
                    bytes_transferred=int(
                        frame.get("Stripe Bytes Transferred", 0)
                    ),
                )
            )
        elif line.startswith("success:"):
            ok = True
            message = line[len("success:"):].strip()
        elif line.startswith("failure:"):
            ok = False
            message = line[len("failure:"):].strip()
        else:
            name, sep, value = line.partition(":")
            if sep:
                frame[name.strip()] = value.strip()
    return TpcSummary(ok=ok, message=message, markers=markers)


# -- the transfer engine ------------------------------------------------------


@dataclass
class _Progress:
    """Shared state of one transfer across its lanes.

    The chunk plan, the accounting every lane stamps (bytes, retries,
    one marker per finished chunk) and the two ways a transfer that
    got past its setup ends: :meth:`fail` and :meth:`succeed`. Both
    end the ``tpc-transfer`` span with the transfer's result, which
    :func:`~repro.obs.events.request_events` folds into its ``tpc``
    row.
    """

    context: object
    #: The other site: GET source of a pull, PUT target of a push.
    peer: Url
    mode: str
    path: str
    size: int
    #: Concurrent transfer lanes asked for (clamped to the chunk count).
    streams: int
    chunk_size: int
    span: object
    metrics: object
    bytes: int = 0
    retries: int = 0
    markers: List[PerfMarker] = field(default_factory=list)

    def __post_init__(self):
        self.chunks = plan_chunks(self.size, self.chunk_size)
        self.streams = max(1, min(self.streams, len(self.chunks) or 1))
        self.span.set(
            streams=self.streams, chunks=len(self.chunks), bytes=self.size
        )

    def chunk_done(self, index: int, length: int, now: float) -> None:
        self.bytes += length
        self.markers.append(
            PerfMarker(
                timestamp=now,
                stripe_index=index % self.streams,
                stripe_count=self.streams,
                bytes_transferred=self.bytes,
            )
        )

    def _end(self, ok, **error):
        """End the span with the result: the bytes moved and the
        chunks finished, which replace the planned ones."""
        self.span.end(
            path=self.path,
            streams=self.streams,
            chunks=len(self.markers),
            bytes=self.size if ok else self.bytes,
            retries=self.retries,
            digest=DIGEST,
            ok=ok,
            **error,
        )

    def _respond(self, status_line, headers=()) -> Response:
        """The pending COPY's 202: marker frames, then the verdict."""
        return Response(
            202,
            Headers([("Content-Type", PERF_MARKER_MEDIA_TYPE), *headers]),
            format_marker_stream(self.markers, status_line),
        )

    def fail(self, reason) -> Response:
        """End in ``failure:`` — bytes may have moved, nothing committed."""
        self.metrics.counter("tpc.failures_total", stage="transfer").inc()
        self._end(False, error=str(reason))
        return self._respond(f"failure: {reason}")

    def succeed(self, created, headers) -> Response:
        """End in ``success:`` — the object is verified and committed."""
        metrics, mode = self.metrics, self.mode
        metrics.counter("tpc.transfers_total", mode=mode).inc()
        metrics.counter("tpc.bytes_total", mode=mode).inc(self.size)
        metrics.counter("tpc.chunks_total").inc(len(self.markers))
        metrics.counter("tpc.streams_total").inc(self.streams)
        self._end(True)
        return self._respond(f"success: Created {created}", headers)


def _setup_failure(metrics, span, reason) -> Response:
    """A 502 before any bytes moved (source unreachable/missing)."""
    metrics.counter("tpc.failures_total", stage="setup").inc()
    span.end(error=str(reason))
    return text_response(502, f"third-party copy failed: {reason}")


def _move_chunk(progress, index, offset, length, build, accept):
    """Effect sub-op: move one chunk over its lane, retrying in place.

    Each attempt opens a ``tpc-chunk`` span and sends the request
    ``build(offset, length)`` to the peer. ``accept(reply, offset,
    length)`` judges the reply: it returns the span's closing
    attributes when the chunk landed, ``None`` when the same request
    is worth repeating, and raises when no retry can help. A failed
    request or a rejected reply spends one of :data:`CHUNK_RETRIES`; past
    the budget the lane raises the last failure.
    """
    context = progress.context
    attempts = 0
    while True:
        lane = progress.span.child(
            "tpc-chunk", chunk=index, offset=offset, nbytes=length
        )
        ended = {}
        try:
            reply, _ = yield from execute_request(
                context,
                progress.peer,
                build(offset, length),
                context.params,
                idempotent=True,
                parent_span=lane,
            )
        except (DavixError, NetworkError) as exc:
            ended, failure = {"error": repr(exc)}, exc
        else:
            ended = {"status": reply.status}
            landed = accept(reply, offset, length)
            if landed is not None:
                now = yield Now()
                progress.chunk_done(index, length, now)
                ended = landed
                return length
            failure = RequestError(
                f"chunk {index} at offset {offset}: HTTP {reply.status}",
                status=reply.status,
            )
        finally:
            lane.end(**ended)
        attempts += 1
        progress.retries += 1
        progress.metrics.counter("tpc.stream_retries_total").inc()
        if attempts > CHUNK_RETRIES:
            raise failure


def _move_chunks(progress, chunks, build, accept):
    """Effect sub-op: drain ``chunks`` over the transfer's lanes.

    Returns the first chunk's failure in plan order (``None`` when
    all landed).
    """
    outcomes = yield from bounded_gather(
        [
            partial(_move_chunk, progress, index, *chunk, build, accept)
            for index, chunk in enumerate(chunks)
        ],
        limit=progress.streams,
        name=f"tpc-{progress.mode}",
    )
    errors = [outcome.error for outcome in outcomes if not outcome.ok]
    return errors[0] if errors else None


def run_pull(
    context,
    store,
    destination_path: str,
    source,
    streams: int,
    chunk_size: int,
    metrics,
    trace_ctx=None,
):
    """Effect op: pull ``source`` into ``store`` at ``destination_path``.

    Runs on the *destination* server. Returns the Response for the
    pending COPY: 502 on setup failure, otherwise 202 with the
    perf-marker stream (``success:`` only after the digest verified
    and the object committed).
    """
    source_url = Url.parse(source)
    span = context.tracer.start(
        "tpc-transfer",
        root=trace_ctx is None,
        remote=trace_ctx,
        mode="pull",
        source=str(source_url),
        destination=destination_path,
    )

    head = Request(
        "HEAD",
        source_url.target,
        Headers([("Want-Digest", DIGEST)]),
    )
    try:
        response, _ = yield from execute_request(
            context, source_url, head, context.params, parent_span=span
        )
    except (DavixError, NetworkError) as exc:
        return _setup_failure(metrics, span, exc)
    if response.status >= 400:
        return _setup_failure(
            metrics, span, f"source HEAD returned {response.status}"
        )
    size = response.headers.get_int("Content-Length") or 0
    etag = response.headers.get("ETag")
    content_type = response.headers.get(
        "Content-Type", "application/octet-stream"
    )
    expected = parse_digest_header(response.headers.get("Digest")).get(
        DIGEST
    )
    progress = _Progress(
        context, source_url, "pull", destination_path, size, streams,
        chunk_size, span, metrics,
    )
    assembly = bytearray(size)

    def ranged_get(offset, length):
        headers = Headers(
            [("Range", f"bytes={offset}-{offset + length - 1}")]
        )
        if etag is not None:
            # A source update mid-transfer must fail, not mix versions.
            headers.set("If-Match", etag)
        return Request("GET", source_url.target, headers)

    def store_range(reply, offset, length):
        if reply.status == 412:
            raise RequestError(
                f"source changed mid-transfer (If-Match {etag} failed)",
                status=412,
            )
        if reply.status not in (200, 206) or len(reply.body) != length:
            return None
        # Through a view, which copies the body once, not twice.
        memoryview(assembly)[offset:offset + length] = reply.body
        return {"ok": True}

    error = yield from _move_chunks(
        progress, progress.chunks, ranged_get, store_range
    )
    if error is not None:
        return progress.fail(error)
    actual = f"{zlib.adler32(assembly):08x}"
    if expected is not None and actual != expected:
        metrics.counter("tpc.digest_mismatch_total").inc()
        return progress.fail(
            f"digest mismatch: source {DIGEST}={expected}, "
            f"received {DIGEST}={actual}",
        )
    # The store adopts the assembly buffer: no second copy.
    obj = store.put(destination_path, assembly, content_type)
    return progress.succeed(
        destination_path,
        [("ETag", obj.etag), ("Digest", f"{DIGEST}={actual}")],
    )


def run_push(
    context,
    store,
    source_path: str,
    destination,
    streams: int,
    chunk_size: int,
    metrics,
    trace_ctx=None,
):
    """Effect op: push ``source_path`` from ``store`` to ``destination``.

    Runs on the *source* server. Chunks upload as ranged PUTs
    (``Content-Range``); the destination commits once coverage is
    complete and answers with its ``Digest``, which must match the
    local checksum or the remote copy is deleted and the transfer
    reported failed.
    """
    dest_url = Url.parse(destination)
    span = context.tracer.start(
        "tpc-transfer",
        root=trace_ctx is None,
        remote=trace_ctx,
        mode="push",
        source=source_path,
        destination=str(dest_url),
    )
    obj = store.get(source_path)
    size = obj.size
    local_digest = obj.checksum(DIGEST)
    progress = _Progress(
        context, dest_url, "push", source_path, size, streams,
        chunk_size, span, metrics,
    )
    commit = {}

    def ranged_put(offset, length):
        headers = Headers(
            [
                ("Content-Type", obj.content_type),
                ("Want-Digest", DIGEST),
            ]
        )
        if size > 0:
            headers.set(
                "Content-Range", format_content_range(offset, length, size)
            )
        body = store.read(source_path, offset, length)
        return Request("PUT", dest_url.target, headers, body)

    def note_commit(reply, offset, length):
        if reply.status not in (201, 202, 204):
            return None
        if reply.status in (201, 204):
            # Coverage complete: the destination committed the object.
            commit["digest"] = parse_digest_header(
                reply.headers.get("Digest")
            ).get(DIGEST)
        return {"ok": True, "status": reply.status}

    # A zero-length object plans to no chunks: one plain PUT carries it.
    error = yield from _move_chunks(
        progress, progress.chunks or [(0, 0)], ranged_put, note_commit
    )
    if error is not None:
        return progress.fail(error)
    if "digest" not in commit:
        return progress.fail("destination never committed the upload")
    remote_digest = commit["digest"]
    if remote_digest is not None and remote_digest != local_digest:
        metrics.counter("tpc.digest_mismatch_total").inc()
        # Leave no corrupt replica behind; best effort.
        try:
            yield from execute_request(
                context,
                dest_url,
                Request("DELETE", dest_url.target),
                context.params,
                parent_span=span,
            )
        except (DavixError, NetworkError):
            pass
        return progress.fail(
            f"digest mismatch: local {DIGEST}={local_digest}, "
            f"destination {DIGEST}={remote_digest}",
        )
    return progress.succeed(
        dest_url.decoded_path,
        [("Digest", f"{DIGEST}={local_digest}")],
    )
