"""Metric exporters: a text table, JSON lines and Prometheus text.

Three consumers, three formats:

* operators eyeballing a benchmark or ``davix-tool stats`` get an
  aligned text table (:func:`render_metrics`);
* downstream tooling gets deterministic JSON lines — one object per
  series, sorted by name/label, integral floats emitted as ints — so
  outputs diff cleanly and golden tests stay stable;
* scrapers get the Prometheus text exposition.

Spans export as the collector's wire records
(:func:`~repro.obs.collector.encode_span`) and render as the
analyzer's waterfall (:func:`~repro.obs.analyze.render_waterfall`).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry, format_series

__all__ = [
    "render_metrics",
    "metrics_to_json_lines",
    "prometheus_exposition",
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
