"""Exporters: human-readable tables and JSON-lines for metrics/spans.

Two consumers, two formats:

* operators eyeballing a benchmark or ``davix-tool stats`` get aligned
  text tables (:func:`render_metrics`) and an indented span tree
  (:func:`render_span_tree`);
* downstream tooling gets deterministic JSON lines — one object per
  series or span, sorted by name/label, integral floats emitted as
  ints — so outputs diff cleanly and golden tests stay stable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, format_series
from repro.obs.tracing import Span, Tracer

__all__ = [
    "render_metrics",
    "metrics_to_json_lines",
    "prometheus_exposition",
    "render_span_tree",
    "spans_to_json_lines",
]

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _num(value: float):
    """Integral floats as ints, so counters export as ``7`` not ``7.0``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def render_metrics(registry: MetricsRegistry, title: str = "metrics") -> str:
    """Aligned two-column table of every series in the registry."""
    rows: List[tuple] = []
    for instrument in registry.series():
        series = format_series(instrument.name, instrument.labels)
        if instrument.kind == "histogram":
            mean = instrument.mean
            p99 = instrument.percentile(0.99)
            detail = (
                f"count={instrument.count} sum={instrument.sum:.6g}"
            )
            if mean is not None:
                detail += f" mean={mean:.6g} p99={p99:.6g}"
            rows.append((series, detail))
        else:
            rows.append((series, f"{_num(instrument.value)}"))
    if not rows:
        return f"{title}: (empty)"
    width = max(len(series) for series, _ in rows)
    lines = [f"{title}:"]
    for series, value in rows:
        lines.append(f"  {series:<{width}}  {value}")
    return "\n".join(lines)


def metrics_to_json_lines(registry: MetricsRegistry) -> str:
    """One JSON object per series, deterministically ordered."""
    lines = []
    for instrument in registry.series():
        record: Dict[str, object] = {
            "type": instrument.kind,
            "name": instrument.name,
            "labels": dict(instrument.labels),
        }
        if instrument.kind == "histogram":
            record.update(
                count=instrument.count,
                sum=_num(instrument.sum),
                min=_num(instrument.min) if instrument.min is not None else None,
                max=_num(instrument.max) if instrument.max is not None else None,
                buckets={
                    str(_num(bound)): count
                    for bound, count in zip(
                        instrument.buckets, instrument.bucket_counts
                    )
                    if count
                },
            )
        else:
            record["value"] = _num(instrument.value)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def _prom_name(name: str) -> str:
    """A legal Prometheus metric name (dots and dashes -> underscores)."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_label_value(value: str) -> str:
    """Escape a label value per the text-format grammar."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels, extra=()) -> str:
    """``{k="v",...}`` or empty; label keys stay in sorted series order."""
    pairs = [
        f'{_prom_name(key)}="{_prom_label_value(value)}"'
        for key, value in tuple(labels) + tuple(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _prom_value(value: float) -> str:
    number = _num(value)
    return repr(number) if isinstance(number, float) else str(number)


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format (0.0.4).

    Deterministic: families sorted by name, series by label key, one
    ``# TYPE`` line per family. Histograms render the convention in
    full — cumulative ``_bucket`` counts ending at ``le="+Inf"``, plus
    ``_sum`` and ``_count``. Ends with a trailing newline as the
    format requires.
    """
    lines: List[str] = []
    current_family = None
    for instrument in registry.series():
        name = _prom_name(instrument.name)
        if name != current_family:
            lines.append(f"# TYPE {name} {instrument.kind}")
            current_family = name
        if instrument.kind == "histogram":
            cumulative = 0
            for bound, count in zip(
                instrument.buckets, instrument.bucket_counts
            ):
                cumulative += count
                labels = _prom_labels(
                    instrument.labels, extra=(("le", str(_num(bound))),)
                )
                lines.append(f"{name}_bucket{labels} {cumulative}")
            cumulative += instrument.bucket_counts[-1]
            labels = _prom_labels(
                instrument.labels, extra=(("le", "+Inf"),)
            )
            lines.append(f"{name}_bucket{labels} {cumulative}")
            plain = _prom_labels(instrument.labels)
            lines.append(
                f"{name}_sum{plain} {_prom_value(instrument.sum)}"
            )
            lines.append(f"{name}_count{plain} {instrument.count}")
        else:
            labels = _prom_labels(instrument.labels)
            lines.append(
                f"{name}{labels} {_prom_value(instrument.value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def render_span_tree(tracer: Tracer) -> str:
    """Indented tree of finished spans, one trace after another."""
    spans = tracer.finished()
    if not spans:
        return "trace: (empty)"
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    known = {span.span_id for span in spans}

    def walk(span: Span, depth: int, out: List[str]) -> None:
        duration = span.duration
        timing = f"{duration:.6f}s" if duration is not None else "open"
        attrs = ""
        if span.attrs:
            inner = " ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            attrs = f" [{inner}]"
        out.append(f"{'  ' * depth}{span.name} {timing}{attrs}")
        for child in sorted(
            by_parent.get(span.span_id, []), key=lambda s: s.start
        ):
            walk(child, depth + 1, out)

    # Roots: no parent, or the parent fell out of the ring buffer.
    roots = [
        span
        for span in spans
        if span.parent_id is None or span.parent_id not in known
    ]
    lines: List[str] = []
    for root in sorted(roots, key=lambda s: (s.trace_id, s.start)):
        walk(root, 0, lines)
    return "\n".join(lines)


def spans_to_json_lines(tracer: Tracer) -> str:
    """One JSON object per finished span, in end order."""
    lines = []
    for span in tracer.finished():
        record = {
            "type": "span",
            "name": span.name,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "start": _num(span.start),
            "end": _num(span.end_time),
            "attrs": {k: str(v) for k, v in sorted(span.attrs.items())},
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)
