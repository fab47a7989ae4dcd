"""Observability layer: metrics, tracing, propagation, row folds, SLOs.

The composition point is :class:`~repro.core.context.Context` — it owns
one :class:`MetricsRegistry` and one :class:`Tracer`, and every layer
on the request path (pool, session, vectored I/O, failover,
multistream) records into them; the server side (every
:class:`~repro.server.envelope.Envelope` app) accepts its own registry
and tracer so both ends of a simulated run are visible — and
*joinable*, because the client propagates a W3C-style ``Traceparent``
header (:mod:`repro.obs.propagation`) that the server threads into its
spans. A request's span is its one record, and so is a proxy's cache
split and a third-party copy's result: :func:`request_events` folds
finished spans into flat rows, and the access log
(:func:`common_log_format`) and the SLO/error-budget verdicts
(:func:`slo_verdicts`) read those rows after the run. Per-request
phase breakdowns live in :mod:`repro.obs.phases`. See
``docs/OBSERVABILITY.md``.
"""

from repro._lazy import exports

_EXPORTS = {
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "DEFAULT_BUCKETS": ".metrics",
    "Span": ".tracing",
    "Tracer": ".tracing",
    "NULL_SPAN": ".tracing",
    "TRACEPARENT_HEADER": ".propagation",
    "TraceContext": ".propagation",
    "format_trace_id": ".propagation",
    "format_span_id": ".propagation",
    "format_traceparent": ".propagation",
    "parse_traceparent": ".propagation",
    "inject_traceparent": ".propagation",
    "PHASES": ".phases",
    "PhaseRecorder": ".phases",
    "request_events": ".events",
    "common_log_format": ".events",
    "SloPolicy": ".slo",
    "slo_verdicts": ".slo",
    "render_metrics": ".export",
    "metrics_to_json_lines": ".export",
    "TELEMETRY_PATH": ".collector",
    "TELEMETRY_CONTENT_TYPE": ".collector",
    "TelemetrySink": ".collector",
    "TelemetryCollector": ".collector",
    "parse_records": ".collector",
    "push_telemetry": ".collector",
    "record_to_json": ".collector",
    "records_to_json_lines": ".collector",
    "SpanRecord": ".analyze",
    "TraceTree": ".analyze",
    "CriticalPath": ".analyze",
    "ProvenanceLedger": ".analyze",
    "assemble_traces": ".analyze",
    "critical_path": ".analyze",
    "stragglers": ".analyze",
    "byte_provenance": ".analyze",
    "render_waterfall": ".analyze",
    "render_critical_path": ".analyze",
    "render_provenance": ".analyze",
    "render_trace_summary": ".analyze",
    "render_trace_diff": ".analyze",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
