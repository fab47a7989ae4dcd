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

* the object is split into fixed-size chunks (:func:`plan_chunks`, the
  same planning rule as :mod:`repro.core.multistream`);
* chunks move over N concurrent ranged GET (pull) or ranged PUT (push)
  lanes via :func:`~repro.concurrency.bounded_gather`, each lane
  retrying its chunk on transient failure on top of the per-request
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

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.concurrency import Now, bounded_gather
from repro.errors import DavixError, NetworkError, RequestError
from repro.http import Headers, Request, Response, Url, text_response

__all__ = [
    "PERF_MARKER_MEDIA_TYPE",
    "TpcConfig",
    "PerfMarker",
    "TpcSummary",
    "plan_chunks",
    "parse_digest_header",
    "format_marker_stream",
    "parse_marker_stream",
    "run_pull",
    "run_push",
]

#: Content type of the 202 COPY response body (WLCG convention).
PERF_MARKER_MEDIA_TYPE = "text/perf-marker-stream"


@dataclass(frozen=True)
class TpcConfig:
    """Knobs of one third-party transfer (the active side)."""

    #: Concurrent transfer lanes (clamped to the chunk count).
    streams: int = 4
    #: Bytes per ranged GET/PUT chunk.
    chunk_size: int = 8 * 1024 * 1024
    #: RFC 3230 digest algorithm used end to end.
    digest: str = "adler32"
    #: Chunk-level retry budget on top of the per-request policy.
    chunk_retries: int = 2

    def __post_init__(self):
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.digest not in ("adler32", "md5"):
            raise ValueError(f"unsupported digest {self.digest!r}")
        if self.chunk_retries < 0:
            raise ValueError("chunk_retries must be >= 0")


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


def plan_chunks(size: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``size`` bytes into ``(offset, length)`` chunks.

    The final chunk absorbs the remainder (it may be a single byte);
    a zero-length object plans to no chunks at all.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (offset, min(chunk_size, size - offset))
        for offset in range(0, size, chunk_size)
    ]


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


def _compute_digest(data, algo: str) -> str:
    if algo == "adler32":
        return f"{zlib.adler32(bytes(data)) & 0xFFFFFFFF:08x}"
    if algo == "md5":
        return hashlib.md5(bytes(data)).hexdigest()
    raise ValueError(f"unsupported digest {algo!r}")


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
    if isinstance(text, bytes):
        text = text.decode("utf-8", "replace")
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


class _Progress:
    """Shared accounting of one transfer across its lanes."""

    __slots__ = ("bytes", "retries", "markers", "streams")

    def __init__(self, streams: int):
        self.bytes = 0
        self.retries = 0
        self.markers: List[PerfMarker] = []
        self.streams = streams

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


def _setup_failure(metrics, span, reason) -> Response:
    """A 502 before any bytes moved (source unreachable/missing)."""
    if metrics is not None:
        metrics.counter("tpc.failures_total", stage="setup").inc()
    span.end(error=str(reason))
    return text_response(502, f"third-party copy failed: {reason}")


def _transfer_failure(metrics, span, progress, reason) -> Response:
    """A 202 whose marker stream ends in ``failure:`` (bytes moved)."""
    if metrics is not None:
        metrics.counter("tpc.failures_total", stage="transfer").inc()
    span.end(error=str(reason))
    body = format_marker_stream(progress.markers, f"failure: {reason}")
    return Response(
        202, Headers([("Content-Type", PERF_MARKER_MEDIA_TYPE)]), body
    )


def _emit_event(events, mode, path, size, config, progress, started,
                now, ok, error=None):
    if events is None:
        return
    duration = now - started
    events.emit(
        "tpc",
        mode=mode,
        path=path,
        bytes=size if ok else progress.bytes,
        streams=progress.streams,
        chunks=len(progress.markers),
        retries=progress.retries,
        duration=duration,
        throughput=(size / duration) if ok and duration > 0 else 0.0,
        digest=config.digest,
        ok=ok,
        **({"error": str(error)} if error else {}),
    )


def _count_success(metrics, mode, size, progress):
    if metrics is None:
        return
    metrics.counter("tpc.transfers_total", mode=mode).inc()
    metrics.counter("tpc.bytes_total", mode=mode).inc(size)
    metrics.counter("tpc.chunks_total").inc(len(progress.markers))
    metrics.counter("tpc.streams_total").inc(progress.streams)


def run_pull(
    context,
    store,
    destination_path: str,
    source,
    config: Optional[TpcConfig] = None,
    metrics=None,
    events=None,
    trace_ctx=None,
):
    """Effect op: pull ``source`` into ``store`` at ``destination_path``.

    Runs on the *destination* server. Returns the Response for the
    pending COPY: 502 on setup failure, otherwise 202 with the
    perf-marker stream (``success:`` only after the digest verified
    and the object committed).
    """
    from repro.core.request import execute_request

    config = config or TpcConfig()
    source_url = source if isinstance(source, Url) else Url.parse(source)
    span = context.tracer.start(
        "tpc-transfer",
        root=trace_ctx is None,
        remote=trace_ctx,
        mode="pull",
        source=str(source_url),
        destination=destination_path,
    )
    started = yield Now()

    head = Request(
        "HEAD",
        source_url.target,
        Headers([("Want-Digest", config.digest)]),
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
        config.digest
    )

    chunks = plan_chunks(size, config.chunk_size)
    streams = max(1, min(config.streams, len(chunks) or 1))
    span.set(streams=streams, chunks=len(chunks), bytes=size)
    progress = _Progress(streams)
    assembly = bytearray(size)

    def chunk_op(index, offset, length):
        def op():
            attempts = 0
            while True:
                lane = span.child(
                    "tpc-chunk", chunk=index, offset=offset, nbytes=length
                )
                headers = Headers(
                    [("Range", f"bytes={offset}-{offset + length - 1}")]
                )
                if etag is not None:
                    headers.set("If-Match", etag)
                request = Request("GET", source_url.target, headers)
                try:
                    reply, _ = yield from execute_request(
                        context,
                        source_url,
                        request,
                        context.params,
                        idempotent=True,
                        parent_span=lane,
                    )
                except (DavixError, NetworkError) as exc:
                    lane.end(error=repr(exc))
                    attempts += 1
                    progress.retries += 1
                    if metrics is not None:
                        metrics.counter("tpc.stream_retries_total").inc()
                    if attempts > config.chunk_retries:
                        raise
                    continue
                if reply.status == 412:
                    lane.end(status=412)
                    raise RequestError(
                        "source changed mid-transfer "
                        f"(If-Match {etag} failed)",
                        status=412,
                    )
                if (
                    reply.status not in (200, 206)
                    or len(reply.body) != length
                ):
                    lane.end(status=reply.status)
                    attempts += 1
                    progress.retries += 1
                    if metrics is not None:
                        metrics.counter("tpc.stream_retries_total").inc()
                    if attempts > config.chunk_retries:
                        raise RequestError(
                            f"chunk {index} at offset {offset}: "
                            f"HTTP {reply.status}",
                            status=reply.status,
                        )
                    continue
                assembly[offset:offset + length] = reply.body
                now = yield Now()
                progress.chunk_done(index, length, now)
                lane.end(ok=True)
                return length

        return op

    outcomes = yield from bounded_gather(
        [chunk_op(i, o, n) for i, (o, n) in enumerate(chunks)],
        limit=streams,
        name="tpc-pull",
    )
    now = yield Now()
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        reason = failed[0].error
        _emit_event(events, "pull", destination_path, size, config,
                    progress, started, now, ok=False, error=reason)
        return _transfer_failure(metrics, span, progress, reason)

    actual = _compute_digest(assembly, config.digest)
    if expected is not None and actual != expected:
        if metrics is not None:
            metrics.counter("tpc.digest_mismatch_total").inc()
        reason = (
            f"digest mismatch: source {config.digest}={expected}, "
            f"received {config.digest}={actual}"
        )
        _emit_event(events, "pull", destination_path, size, config,
                    progress, started, now, ok=False, error=reason)
        return _transfer_failure(metrics, span, progress, reason)

    obj = store.put(destination_path, bytes(assembly), content_type)
    _count_success(metrics, "pull", size, progress)
    _emit_event(events, "pull", destination_path, size, config,
                progress, started, now, ok=True)
    span.end(ok=True, retries=progress.retries)
    body = format_marker_stream(
        progress.markers, f"success: Created {destination_path}"
    )
    headers = Headers(
        [
            ("Content-Type", PERF_MARKER_MEDIA_TYPE),
            ("ETag", obj.etag),
            ("Digest", f"{config.digest}={actual}"),
        ]
    )
    return Response(202, headers, body)


def run_push(
    context,
    store,
    source_path: str,
    destination,
    config: Optional[TpcConfig] = None,
    metrics=None,
    events=None,
    trace_ctx=None,
):
    """Effect op: push ``source_path`` from ``store`` to ``destination``.

    Runs on the *source* server. Chunks upload as ranged PUTs
    (``Content-Range``); the destination commits once coverage is
    complete and answers with its ``Digest``, which must match the
    local checksum or the remote copy is deleted and the transfer
    reported failed.
    """
    from repro.core.request import execute_request

    config = config or TpcConfig()
    dest_url = (
        destination
        if isinstance(destination, Url)
        else Url.parse(destination)
    )
    span = context.tracer.start(
        "tpc-transfer",
        root=trace_ctx is None,
        remote=trace_ctx,
        mode="push",
        source=source_path,
        destination=str(dest_url),
    )
    started = yield Now()
    obj = store.get(source_path)
    size = obj.size
    local_digest = obj.checksum(config.digest)

    chunks = plan_chunks(size, config.chunk_size)
    streams = max(1, min(config.streams, len(chunks) or 1))
    span.set(streams=streams, chunks=len(chunks), bytes=size)
    progress = _Progress(streams)
    commit = {}

    def upload_op(index, offset, length):
        def op():
            attempts = 0
            while True:
                lane = span.child(
                    "tpc-chunk", chunk=index, offset=offset, nbytes=length
                )
                headers = Headers(
                    [
                        ("Content-Type", obj.content_type),
                        ("Want-Digest", config.digest),
                    ]
                )
                if size > 0:
                    headers.set(
                        "Content-Range",
                        f"bytes {offset}-{offset + length - 1}/{size}",
                    )
                body = store.read(source_path, offset, length)
                request = Request(
                    "PUT", dest_url.target, headers, body
                )
                try:
                    reply, _ = yield from execute_request(
                        context,
                        dest_url,
                        request,
                        context.params,
                        idempotent=True,
                        parent_span=lane,
                    )
                except (DavixError, NetworkError) as exc:
                    lane.end(error=repr(exc))
                    attempts += 1
                    progress.retries += 1
                    if metrics is not None:
                        metrics.counter("tpc.stream_retries_total").inc()
                    if attempts > config.chunk_retries:
                        raise
                    continue
                if reply.status not in (201, 202, 204):
                    lane.end(status=reply.status)
                    attempts += 1
                    progress.retries += 1
                    if metrics is not None:
                        metrics.counter("tpc.stream_retries_total").inc()
                    if attempts > config.chunk_retries:
                        raise RequestError(
                            f"chunk {index} at offset {offset}: "
                            f"HTTP {reply.status}",
                            status=reply.status,
                        )
                    continue
                if reply.status in (201, 204):
                    commit["digest"] = parse_digest_header(
                        reply.headers.get("Digest")
                    ).get(config.digest)
                    commit["etag"] = reply.headers.get("ETag")
                now = yield Now()
                progress.chunk_done(index, length, now)
                lane.end(ok=True, status=reply.status)
                return length

        return op

    if chunks:
        thunks = [upload_op(i, o, n) for i, (o, n) in enumerate(chunks)]
    else:
        # Zero-length object: a single plain PUT carries it whole.
        thunks = [upload_op(0, 0, 0)]
    outcomes = yield from bounded_gather(
        thunks, limit=streams, name="tpc-push"
    )
    now = yield Now()
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        reason = failed[0].error
        _emit_event(events, "push", source_path, size, config,
                    progress, started, now, ok=False, error=reason)
        return _transfer_failure(metrics, span, progress, reason)
    if "digest" not in commit:
        reason = "destination never committed the upload"
        _emit_event(events, "push", source_path, size, config,
                    progress, started, now, ok=False, error=reason)
        return _transfer_failure(metrics, span, progress, reason)

    remote_digest = commit["digest"]
    if remote_digest is not None and remote_digest != local_digest:
        if metrics is not None:
            metrics.counter("tpc.digest_mismatch_total").inc()
        reason = (
            f"digest mismatch: local {config.digest}={local_digest}, "
            f"destination {config.digest}={remote_digest}"
        )
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
        _emit_event(events, "push", source_path, size, config,
                    progress, started, now, ok=False, error=reason)
        return _transfer_failure(metrics, span, progress, reason)

    _count_success(metrics, "push", size, progress)
    _emit_event(events, "push", source_path, size, config,
                progress, started, now, ok=True)
    span.end(ok=True, retries=progress.retries)
    body = format_marker_stream(
        progress.markers, f"success: Created {dest_url.decoded_path}"
    )
    headers = Headers(
        [
            ("Content-Type", PERF_MARKER_MEDIA_TYPE),
            ("Digest", f"{config.digest}={local_digest}"),
        ]
    )
    return Response(202, headers, body)
