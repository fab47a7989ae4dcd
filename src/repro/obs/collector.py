"""Cluster-wide telemetry collection: sink, wire format, collector.

Per-process telemetry (tracer ring buffers, metric registries) answers
"what did *this* node do"; federation-scale tuning needs "where did
this second go *across* nodes". A node's telemetry is its finished
spans plus snapshots of its metric registry — every offline row is a
fold over a span (:func:`~repro.obs.events.request_events`). This
module is the transport layer of that story:

* :class:`TelemetrySink` — attached to a node's ``Tracer`` as its
  ``sink`` hook. Recording is a bounds check and an append of an
  object reference (the hot path stays cheap — see
  ``bench_collector_overhead``); serialisation happens at drain time.
  The queue is bounded and drop-counting, and a flush is deterministic:
  records encode in emit order with canonical JSON, so two seeded runs
  produce byte-identical artefacts.
* The **wire format** — JSON lines, one record per line, two record
  types (see below). ``encode_*`` / :func:`record_to_json` produce it,
  :func:`parse_records` consumes it.
* :class:`TelemetryCollector` — the ingest store behind the
  ``POST /v1/telemetry`` endpoint every server app can mount
  (``ServerConfig(collector=...)``) and the target of in-process
  flushes. :mod:`repro.obs.analyze` reads its records back out.

Wire format (one JSON object per line, keys sorted)::

    {"type":"span","node":"client","name":"request",
     "trace":"<32 hex>","span":"<16 hex>","parent":"<16 hex>"|null,
     "remote":false,"start":1.5,"end":2.5,"attrs":{...}}
    {"type":"metrics","node":"origin","ts":9.0,
     "series":{"name{label=v}":value,...}}

Span/trace IDs are rendered in the same hex widths the ``Traceparent``
header carries, which is exactly what lets the assembler join client
and server spans minted on different nodes.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.propagation import format_span_id, format_trace_id

__all__ = [
    "TELEMETRY_PATH",
    "TELEMETRY_CONTENT_TYPE",
    "TelemetrySink",
    "TelemetryCollector",
    "encode_span",
    "encode_metrics",
    "record_to_json",
    "records_to_json_lines",
    "parse_records",
    "push_telemetry",
]

#: Default mount path of the collector ingest endpoint.
TELEMETRY_PATH = "/v1/telemetry"

#: Content type of a telemetry batch.
TELEMETRY_CONTENT_TYPE = "application/x-ndjson"


def _norm(value):
    """Normalise one field for stable JSON (integral floats -> ints)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _norm(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_norm(inner) for inner in value]
    return value


def _json_safe(value):
    """Span attributes are arbitrary objects; the wire is JSON only."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def encode_span(span, node: str) -> Dict[str, object]:
    """One finished :class:`~repro.obs.tracing.Span` as a wire record."""
    parent = span.parent_id
    return {
        "type": "span",
        "node": node,
        "name": span.name,
        "trace": format_trace_id(span.trace_id),
        "span": format_span_id(span.span_id),
        "parent": None if parent is None else format_span_id(parent),
        "remote": bool(getattr(span, "remote", False)),
        "start": span.start,
        "end": span.end_time if span.end_time is not None else span.start,
        "attrs": _json_safe(span.attrs),
    }


def encode_metrics(
    series: Dict[str, object], node: str, ts: float
) -> Dict[str, object]:
    """One registry snapshot (``MetricsRegistry.snapshot()``) as a
    wire record. Snapshots are cumulative; the analyzer keeps the last
    one per node."""
    return {
        "type": "metrics",
        "node": node,
        "ts": ts,
        "series": _json_safe(series),
    }


def record_to_json(record: Dict[str, object]) -> str:
    """One record as its canonical JSON line.

    Keys sorted and integral floats as ints, so artefacts diff
    byte-for-byte across seeded runs. Wire records and the rows folded
    from spans all encode through it."""
    return json.dumps(_norm(dict(record)), sort_keys=True)


def records_to_json_lines(records: Iterable[Dict[str, object]]) -> str:
    """Records as JSONL in the given order."""
    return "\n".join(record_to_json(record) for record in records)


def parse_records(text: str) -> List[Dict[str, object]]:
    """Inverse of :func:`records_to_json_lines` (blank lines skipped).

    Raises ``ValueError`` on a line that is not a JSON object, or that
    nests too deeply to decode, so the ingest endpoint rejects the
    whole batch.
    """
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            try:
                record = json.loads(line)
            except RecursionError:
                raise ValueError("a record nests too deeply") from None
            if not isinstance(record, dict):
                raise ValueError("a telemetry record must be a JSON object")
            records.append(record)
    return records


class TelemetrySink:
    """Bounded, drop-counting queue between one node and the collector.

    Wire it into a node's tracer as its ``sink`` hook::

        sink = TelemetrySink(node="client", target=collector)
        tracer.sink = sink.record_span

    ``record_*`` enqueue object *references* — nothing is serialised
    until :meth:`drain`, which encodes the queue in record order and
    empties it. Delivery is either in-process (``target`` is a
    :class:`TelemetryCollector`; :meth:`flush` hands the encoded
    records straight over) or over HTTP (:func:`push_telemetry` POSTs
    a drained batch as a JSONL body).
    """

    def __init__(
        self,
        node: str,
        capacity: int = 65536,
        target: Optional["TelemetryCollector"] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        self.target = target
        self.clock = clock or (lambda: 0.0)
        self.dropped = 0
        self._queue: List[tuple] = []

    # -- hot-path hooks (cheap: bounds check + append) ------------------------

    def record_span(self, span) -> None:
        """``Tracer.sink`` hook: one finished span."""
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return
        self._queue.append(("span", span))

    def record_metrics(self, registry, ts: Optional[float] = None) -> None:
        """Snapshot a :class:`~repro.obs.MetricsRegistry` into the
        queue (called at flush points, not per-request)."""
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return
        stamp = self.clock() if ts is None else ts
        self._queue.append(("metrics", registry.snapshot(), stamp))

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- drain / delivery ------------------------------------------------------

    def drain(self) -> List[Dict[str, object]]:
        """Encode and clear the queue; records come out in emit order."""
        records: List[Dict[str, object]] = []
        for item in self._queue:
            if item[0] == "span":
                records.append(encode_span(item[1], self.node))
            else:
                records.append(encode_metrics(item[1], self.node, item[2]))
        self._queue.clear()
        return records

    def flush(
        self, target: Optional["TelemetryCollector"] = None
    ) -> List[Dict[str, object]]:
        """Drain and deliver in-process to ``target`` (or the bound
        one). With no target at all the drained records are simply
        returned — callers may POST them via :func:`push_telemetry`."""
        records = self.drain()
        collector = target if target is not None else self.target
        if collector is not None and records:
            collector.ingest(records)
        return records


class TelemetryCollector:
    """The cluster-wide ingest store behind ``POST /v1/telemetry``.

    Accepts wire records (already-parsed dicts or JSONL bodies) from
    any number of nodes and retains them in arrival order, bounded and
    drop-counting like every other telemetry buffer in the tree.
    :mod:`repro.obs.analyze` assembles its records into trace trees.
    """

    def __init__(self, capacity: int = 1_000_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self.batches = 0
        self._records: List[Dict[str, object]] = []

    def ingest(self, records: Iterable[Dict[str, object]]) -> int:
        """Store one batch of parsed records; returns how many were
        accepted (the rest counted in ``dropped``)."""
        accepted = 0
        for record in records:
            if len(self._records) >= self.capacity:
                self.dropped += 1
                continue
            self._records.append(record)
            accepted += 1
        self.batches += 1
        return accepted

    def ingest_lines(self, text: str) -> int:
        """Parse and store one JSONL batch (the HTTP body form)."""
        return self.ingest(parse_records(text))

    # -- read side ------------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Every retained record in arrival order."""
        return list(self._records)

    def spans(self) -> List[Dict[str, object]]:
        return [r for r in self._records if r.get("type") == "span"]

    def nodes(self) -> List[str]:
        """Distinct reporting nodes, in first-seen order."""
        seen: List[str] = []
        for record in self._records:
            node = record.get("node")
            if isinstance(node, str) and node not in seen:
                seen.append(node)
        return seen

    def to_json_lines(self) -> str:
        """The retained records as canonical JSONL — the artefact the
        CI perf-smoke job uploads and ``davix-tool trace`` reads."""
        return records_to_json_lines(self._records)

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


def push_telemetry(context, url: str, sink: TelemetrySink):
    """Effect sub-op: POST the sink's drained backlog to a collector
    endpoint as one JSONL batch.

    Drains *before* building the request so the batch excludes the
    spans the push itself produces. A 2xx commits the drain; anything
    else re-queues nothing (telemetry is lossy by design — the drop
    counter on the server side still tells the story).
    """
    from repro.core.request import execute_request
    from repro.http.headers import Headers
    from repro.http.messages import Request
    from repro.http.uri import Url

    records = sink.drain()
    if not records:
        return None
    body = (records_to_json_lines(records) + "\n").encode("utf-8")
    target = Url.parse(url)
    request = Request(
        "POST",
        target.target,
        Headers([("Content-Type", TELEMETRY_CONTENT_TYPE)]),
        body,
    )
    response, _ = yield from execute_request(context, target, request)
    return response
