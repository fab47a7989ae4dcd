"""Every offline row, folded from spans.

Each request is recorded once, as its span: the client's ``request``
span (method, url, status, host, origin, retries, redirects and the
nine ``phases``) and the server's ``server-request`` span (method,
path, status, client, bytes_sent). A caching proxy's serving span also
carries the request's cache split (url, outcome, served_bytes,
from_cache_bytes), and a third-party copy's ``tpc-transfer`` span ends
with the transfer's result. :func:`request_events` folds finished
spans into the flat rows HammerCloud-style offline analysis mines —
one per request, per side, joined across sides by the propagated
trace ID, plus one ``proxy`` row per proxied request and one ``tpc``
row per transfer — and the access log (:func:`common_log_format`) and
the SLO verdicts (:func:`~repro.obs.slo.slo_verdicts`) read those
rows. A request that failed without a response still gets a row, with
``status`` 0. The JSONL codec of the rows is the collector's
(:func:`~repro.obs.collector.records_to_json_lines`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.propagation import format_span_id, format_trace_id

__all__ = ["request_events", "common_log_format"]


def request_events(spans: Iterable) -> List[Dict[str, object]]:
    """The rows of finished ``spans``, in end order.

    A client ``request`` span that reached a terminal outcome (it
    carries ``status``) gives a ``side="client"`` row with one
    ``phase_*`` field per phase; a ``server-request`` span gives a
    ``side="server"`` row whose ``trace_id`` and ``parent_span_id``
    name the client's span when the request carried a
    ``Traceparent`` (empty otherwise), followed by a ``proxy`` row
    when a caching proxy recorded its cache ``outcome`` on it. A
    ``tpc-transfer`` span that got past its setup (it carries ``ok``)
    gives one ``tpc`` row.
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
            if "outcome" in attrs:
                rows.append(
                    {
                        "kind": "proxy",
                        "ts": span.start,
                        "url": attrs["url"],
                        "outcome": attrs["outcome"],
                        "status": attrs["status"],
                        "served_bytes": attrs["served_bytes"],
                        "from_cache_bytes": attrs["from_cache_bytes"],
                        "trace_id": trace_id,
                    }
                )
        elif span.name == "tpc-transfer" and "ok" in attrs:
            duration = span.end_time - span.start
            ok = attrs["ok"]
            row = {
                "kind": "tpc",
                "mode": attrs["mode"],
                "path": attrs["path"],
                "bytes": attrs["bytes"],
                "streams": attrs["streams"],
                "chunks": attrs["chunks"],
                "retries": attrs["retries"],
                "duration": duration,
                "throughput": (
                    attrs["bytes"] / duration if ok and duration > 0 else 0.0
                ),
                "digest": attrs["digest"],
                "ok": ok,
            }
            if "error" in attrs:
                row["error"] = attrs["error"]
            rows.append(row)
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
