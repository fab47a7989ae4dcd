"""HammerCloud-style run report rendered from the wide-event log.

HammerCloud's value was never the raw numbers — it was the one page an
operator reads after a campaign: how long executions took per site, and
where the time went. :func:`render_report` produces that page from a
JSONL event log (the output of
:meth:`~repro.workloads.hammercloud.Campaign.event_json_lines` or any
list of event dicts): per-cell execution statistics from the ``run``
events, a per-profile phase breakdown from the client-side ``request``
events, and SLO verdicts folded from those same requests by
:func:`~repro.obs.slo.slo_verdicts`.

Everything renders with fixed ``%.6f`` formatting over deterministic
simulated timings, so two seeded repetitions of the same campaign
produce byte-identical reports — the property the golden tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.stats import percentile
from repro.obs.phases import PHASES
from repro.obs.slo import SloPolicy, slo_verdicts

__all__ = ["render_report"]


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    """Space-aligned table lines (two-space indent, two-space gutter)."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  " + "  ".join(
            cell.ljust(width) for cell, width in zip(header, widths)
        ).rstrip()
    ]
    for row in rows:
        lines.append(
            "  " + "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return lines


def _run_section(events: List[dict]) -> List[str]:
    cells: Dict[Tuple[str, str], List[float]] = {}
    for event in events:
        key = (str(event["protocol"]), str(event["profile"]))
        cells.setdefault(key, []).append(float(event["wall_seconds"]))
    rows = []
    for (protocol, profile), times in sorted(cells.items()):
        rows.append(
            [
                protocol,
                profile,
                str(len(times)),
                _fmt(sum(times) / len(times)),
                _fmt(percentile(times, 50)),
                _fmt(percentile(times, 95)),
            ]
        )
    lines = ["Executions (wall seconds)"]
    lines += _table(
        ["protocol", "profile", "n", "mean", "p50", "p95"], rows
    )
    return lines


def _phase_section(events: List[dict]) -> List[str]:
    """Mean per-request phase breakdown per profile (client side)."""
    by_profile: Dict[str, List[dict]] = {}
    for event in events:
        by_profile.setdefault(str(event.get("profile", "?")), []).append(
            event
        )
    lines = ["Phase breakdown (client, mean seconds per request)"]
    header = ["profile", "requests"] + list(PHASES)
    rows = []
    for profile, profile_events in sorted(by_profile.items()):
        row = [profile, str(len(profile_events))]
        for phase in PHASES:
            field = "phase_" + phase.replace("-", "_")
            total = sum(
                float(event.get(field, 0.0)) for event in profile_events
            )
            row.append(_fmt(total / len(profile_events)))
        rows.append(row)
    lines += _table(header, rows)
    return lines


def _cache_section(events: List[dict]) -> List[str]:
    """Per-cell page-cache counters summed over ``cache`` events."""
    fields = (
        "hits",
        "misses",
        "partial_hits",
        "origin_bytes_saved",
        "evicted_bytes",
        "invalidations",
    )
    cells: Dict[Tuple[str, str], Dict[str, int]] = {}
    for event in events:
        key = (
            str(event.get("protocol", "?")),
            str(event.get("profile", "?")),
        )
        agg = cells.setdefault(key, {field: 0 for field in fields})
        for field in fields:
            agg[field] += int(event.get(field, 0))
    rows = []
    for (protocol, profile), agg in sorted(cells.items()):
        lookups = (
            agg["hits"] + agg["partial_hits"] + agg["misses"]
        )
        served = agg["hits"] + agg["partial_hits"]
        ratio = served / lookups if lookups else 0.0
        rows.append(
            [protocol, profile]
            + [str(agg[field]) for field in fields]
            + [f"{ratio * 100:.2f}%"]
        )
    lines = ["Page cache (cache.* counters)"]
    lines += _table(
        ["protocol", "profile", "cache.hit", "cache.miss",
         "cache.partial_hit", "cache.origin_bytes_saved",
         "cache.evicted_bytes", "cache.invalidations", "hit_ratio"],
        rows,
    )
    return lines


def _ntuple_section(events: List[dict]) -> List[str]:
    """Per-cell columnar-scan counters summed over ``ntuple`` events."""
    fields = (
        "pages_fetched_total",
        "bytes_fetched_total",
        "clusters_decoded_total",
        "checksum_failures_total",
    )
    cells: Dict[Tuple[str, str], Dict[str, float]] = {}
    for event in events:
        key = (
            str(event.get("protocol", "?")),
            str(event.get("profile", "?")),
        )
        agg = cells.setdefault(
            key, {field: 0 for field in fields + ("decode_seconds",)}
        )
        for field in fields:
            agg[field] += int(event.get(field, 0))
        agg["decode_seconds"] += float(event.get("decode_seconds", 0.0))
    rows = []
    for (protocol, profile), agg in sorted(cells.items()):
        rows.append(
            [protocol, profile]
            + [str(int(agg[field])) for field in fields]
            + [_fmt(agg["decode_seconds"])]
        )
    lines = ["Columnar scan (ntuple.* counters)"]
    lines += _table(
        ["protocol", "profile", "ntuple.pages_fetched",
         "ntuple.bytes_fetched", "ntuple.clusters_decoded",
         "ntuple.checksum_failures", "decode_seconds"],
        rows,
    )
    return lines


def _telemetry_section(records: List[dict]) -> List[str]:
    """Collector rollup: per-node record counts, trace assembly health
    and the top critical-path buckets across every assembled trace."""
    from repro.obs.analyze import _aggregate_critical, assemble_traces

    nodes: Dict[str, Dict[str, int]] = {}
    for record in records:
        node = str(record.get("node", "?"))
        kind = str(record.get("type", "?"))
        per = nodes.setdefault(
            node, {"span": 0, "event": 0, "metrics": 0}
        )
        if kind in per:
            per[kind] += 1
    lines = ["Cluster telemetry"]
    rows = [
        [node, str(per["span"]), str(per["event"]), str(per["metrics"])]
        for node, per in sorted(nodes.items())
    ]
    lines += _table(["node", "spans", "events", "metrics"], rows)

    trees = assemble_traces(records)
    single = sum(1 for tree in trees if tree.is_single_tree)
    orphans = sum(len(tree.orphans) for tree in trees)
    lines.append(
        f"  traces={len(trees)} single_tree={single}"
        f" orphan_spans={orphans}"
    )
    buckets = _aggregate_critical(records)
    total = sum(buckets.values())
    if buckets:
        top = sorted(
            buckets.items(), key=lambda item: (-item[1], item[0])
        )[:8]
        lines.append("  Top critical-path buckets:")
        lines += _table(
            ["node", "bucket", "seconds", "share"],
            [
                [
                    node,
                    label,
                    _fmt(width),
                    f"{width / total * 100:.2f}%" if total else "-",
                ]
                for (node, label), width in top
            ],
        )
    return lines


def _tpc_section(events: List[dict]) -> List[str]:
    """Per-mode third-party-copy rollup over ``tpc`` events."""
    by_mode: Dict[str, List[dict]] = {}
    for event in events:
        by_mode.setdefault(str(event.get("mode", "?")), []).append(event)
    rows = []
    for mode, transfers in sorted(by_mode.items()):
        ok = [e for e in transfers if e.get("ok")]
        throughputs = sorted(
            float(e.get("throughput", 0.0)) for e in ok
        )
        rows.append(
            [
                mode,
                str(len(transfers)),
                str(len(ok)),
                str(sum(int(e.get("bytes", 0)) for e in ok)),
                str(sum(int(e.get("retries", 0)) for e in transfers)),
                _fmt(percentile(throughputs, 50)) if throughputs else "-",
            ]
        )
    lines = ["Third-party copies (tpc events)"]
    lines += _table(
        ["mode", "transfers", "ok", "bytes", "retries",
         "p50_throughput"],
        rows,
    )
    return lines


def _slo_section(
    events: List[dict], policy: SloPolicy
) -> List[str]:
    lines = [
        "SLO verdicts (availability>="
        f"{policy.availability * 100:.2f}%, "
        f"p{policy.latency_objective * 100:.0f} latency<="
        f"{policy.latency_threshold:.6f}s)"
    ]
    rows = [
        [
            verdict["origin"],
            str(verdict["requests"]),
            f"{verdict['availability'] * 100:.4f}%",
            f"{verdict['latency_attainment'] * 100:.4f}%",
            _fmt(verdict["latency"]),
            _fmt(verdict["budget_remaining"]),
            verdict["verdict"],
        ]
        for verdict in slo_verdicts(events, policy)
    ]
    lines += _table(
        [
            "origin",
            "requests",
            "availability",
            "latency_ok",
            "p_latency",
            "budget",
            "verdict",
        ],
        rows,
    )
    return lines


def render_report(
    events: Iterable[dict],
    policy: Optional[SloPolicy] = None,
    telemetry: Optional[Iterable[dict]] = None,
) -> str:
    """The HammerCloud-style run summary for an event log.

    ``events`` is any iterable of wide-event dicts (parsed JSONL);
    ``run`` events feed the execution table, client-side ``request``
    events feed the phase breakdown and the SLO verdicts, ``cache``
    events (page-cache-armed campaigns) feed the cache counters,
    ``ntuple`` events (columnar campaigns) feed the scan counters, and
    ``tpc`` events feed the third-party-copy rollup. ``telemetry`` is
    an optional list of collector records
    (:meth:`~repro.obs.TelemetryCollector.records`) rendered as the
    cluster-telemetry section.
    Sections with no events are omitted; an empty log renders a single
    stub line.
    """
    policy = policy or SloPolicy()
    events = list(events)
    runs = [e for e in events if e.get("kind") == "run"]
    requests = [
        e
        for e in events
        if e.get("kind") == "request" and e.get("side") == "client"
    ]
    sections: List[List[str]] = []
    if runs:
        sections.append(_run_section(runs))
    if requests:
        sections.append(_phase_section(requests))
        sections.append(_slo_section(requests, policy))
    caches = [e for e in events if e.get("kind") == "cache"]
    if caches:
        sections.append(_cache_section(caches))
    scans = [e for e in events if e.get("kind") == "ntuple"]
    if scans:
        sections.append(_ntuple_section(scans))
    copies = [e for e in events if e.get("kind") == "tpc"]
    if copies:
        sections.append(_tpc_section(copies))
    telemetry = list(telemetry) if telemetry is not None else []
    if telemetry:
        sections.append(_telemetry_section(telemetry))
    title = "HammerCloud run report"
    lines = [title, "=" * len(title)]
    if not sections:
        lines.append("(no events)")
    for section in sections:
        lines.append("")
        lines.extend(section)
    return "\n".join(lines) + "\n"
