"""The request record, folded from spans, and the wide-event log.

Each request is recorded once, as its span: the client's ``request``
span (method, url, status, host, origin, retries, redirects and the
nine ``phases``) and the server's ``server-request`` span (method,
path, status, client, bytes_sent). :func:`request_events` folds
finished spans into the flat rows HammerCloud-style offline analysis
mines — one per request, per side, joined across sides by the
propagated trace ID — and the access log (:func:`common_log_format`)
and the SLO verdicts (:func:`~repro.obs.slo.slo_verdicts`) read those
rows. A request that failed without a response still gets a row, with
``status`` 0.

:class:`EventLog` holds the records that are not requests: the
proxy's per-request cache split and the third-party-copy transfers,
plus whatever a workload appends. The JSONL codec of both is the
collector's (:func:`~repro.obs.collector.records_to_json_lines`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List

from repro.obs.propagation import format_span_id, format_trace_id

__all__ = ["EventLog", "request_events", "common_log_format"]


def request_events(spans: Iterable) -> List[Dict[str, object]]:
    """The request rows of finished ``spans``, in end order.

    A client ``request`` span that reached a terminal outcome (it
    carries ``status``) gives a ``side="client"`` row with one
    ``phase_*`` field per phase; a ``server-request`` span gives a
    ``side="server"`` row whose ``trace_id`` and ``parent_span_id``
    name the client's span when the request carried a
    ``Traceparent`` (empty otherwise).
    """
    rows: List[Dict[str, object]] = []
    for span in spans:
        attrs = span.attrs
        if span.name == "request" and "status" in attrs:
            row: Dict[str, object] = {
                "kind": "request",
                "side": "client",
                "ts": span.start,
                "method": attrs["method"],
                "url": attrs["url"],
                "host": attrs["host"],
                "origin": attrs["origin"],
                "status": attrs["status"],
                "duration": span.end_time - span.start,
                "retries": attrs["retries"],
                "redirects": attrs["redirects"],
                "trace_id": format_trace_id(span.trace_id),
                "span_id": format_span_id(span.span_id),
            }
            for phase, seconds in attrs["phases"].items():
                row["phase_" + phase.replace("-", "_")] = seconds
            rows.append(row)
        elif span.name == "server-request":
            trace_id = parent_span_id = ""
            if span.remote:
                trace_id = format_trace_id(span.trace_id)
                parent_span_id = format_span_id(span.parent_id)
            rows.append(
                {
                    "kind": "request",
                    "side": "server",
                    "ts": span.start,
                    "client": attrs["client"],
                    "method": attrs["method"],
                    "path": attrs["path"],
                    "status": attrs["status"],
                    "bytes_sent": attrs["bytes_sent"],
                    "duration": span.end_time - span.start,
                    "trace_id": trace_id,
                    "parent_span_id": parent_span_id,
                }
            )
    return rows


def common_log_format(event: Dict[str, object]) -> str:
    """A server request row as an Apache common-log-format line.

    The access log is this fold over the server's request rows. The
    timestamp is in (simulated) seconds; the propagated trace ID is
    appended when the request carried one, so one grep joins the line
    to the client's spans.
    """
    line = (
        f'{event["client"]} - - [{event["ts"]:.6f}] '
        f'"{event["method"]} {event["path"]} HTTP/1.1" '
        f'{event["status"]} {event["bytes_sent"]} '
        f'{event["duration"]:.6f}'
    )
    if event["trace_id"]:
        line += f' trace={event["trace_id"]}'
    return line


class EventLog:
    """Bounded ring of wide events (oldest dropped first).

    ``sink`` is an optional callable invoked with each record as it is
    emitted (see :class:`~repro.obs.collector.TelemetrySink`).
    """

    def __init__(self, capacity: int = 100_000, sink=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sink = sink
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.total_events = 0

    def emit(self, kind: str, **fields) -> Dict[str, object]:
        """Record one event; returns the stored record."""
        record: Dict[str, object] = {"kind": kind}
        record.update(fields)
        self._events.append(record)
        self.total_events += 1
        if self.sink is not None:
            self.sink(record)
        return record

    def records(self) -> List[Dict[str, object]]:
        """Retained events in emit order (copies of the refs, not deep)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)
