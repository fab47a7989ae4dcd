"""Metric exporters: a text table and JSON lines.

Two consumers, two formats:

* operators eyeballing a benchmark or ``davix-tool stats`` get an
  aligned text table (:func:`render_metrics`);
* downstream tooling gets deterministic JSON lines — one object per
  series, sorted by name/label, integral floats emitted as ints — so
  outputs diff cleanly and golden tests stay stable.

Spans export as the collector's wire records
(:func:`~repro.obs.collector.encode_span`) and render as the
analyzer's waterfall (:func:`~repro.obs.analyze.render_waterfall`).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry, format_series

__all__ = ["render_metrics", "metrics_to_json_lines"]


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
