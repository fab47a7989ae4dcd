"""Cross-node trace assembly and attribution analysis.

Reads the wire records a :class:`~repro.obs.collector.TelemetryCollector`
gathered from every node and answers the two questions per-process
telemetry cannot:

* **Where did this second go?** — :func:`assemble_traces` joins client
  and server spans (matched through the propagated ``Traceparent``
  IDs) into :class:`TraceTree` objects; :func:`critical_path` then
  partitions the root span's interval over the tree so that every
  sub-interval is attributed to exactly one ``(node, label)`` bucket.
  The arithmetic runs on :class:`fractions.Fraction` over the raw
  timestamps, so the bucket total equals the root duration *exactly* —
  not approximately — even though timestamps are floats.
* **Which node served this byte?** — :func:`byte_provenance` folds the
  client's delivery-time ``provenance.bytes_total`` counters, the
  per-request served/from-cache split on the proxy's serving spans and
  the results on the TPC transfer spans into a
  :class:`ProvenanceLedger` whose buckets sum to the bytes the
  application actually received.

The ``davix-tool trace`` subcommand renders all of this (waterfall,
critical path, provenance, and a two-run diff).

Attribution rules
-----------------

Within one span's interval, time covered by a child belongs to that
child (recursively); when children overlap, the one that ends *last*
wins the overlap — the straggler rule, which is what surfaces the slow
decode lane or TPC stream instead of averaging it away. Time no child
covers is the span's own: bucketed as ``(node, span-name)``, e.g.
``("client", "request")`` for wire waits the client span did not
delegate, ``("proxy", "gap-fetch")`` for the proxy's cache bookkeeping
around its upstream fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "SpanRecord",
    "TraceTree",
    "CriticalPath",
    "ProvenanceLedger",
    "span_records",
    "assemble_traces",
    "critical_path",
    "stragglers",
    "byte_provenance",
    "render_waterfall",
    "render_critical_path",
    "render_provenance",
    "render_trace_summary",
    "render_trace_diff",
]


@dataclass
class SpanRecord:
    """One span as collected: IDs in wire (hex) form, float times."""

    node: str
    name: str
    trace: str
    span: str
    parent: Optional[str]
    remote: bool
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "SpanRecord":
        return cls(
            node=str(record.get("node", "?")),
            name=str(record.get("name", "?")),
            trace=str(record.get("trace", "")),
            span=str(record.get("span", "")),
            parent=record.get("parent"),
            remote=bool(record.get("remote", False)),
            start=float(record.get("start", 0.0)),
            end=float(record.get("end", 0.0)),
            attrs=dict(record.get("attrs") or {}),
        )


def span_records(records: Iterable[Dict[str, object]]) -> List[SpanRecord]:
    """The span records of a collected batch, in arrival order."""
    return [
        SpanRecord.from_record(record)
        for record in records
        if record.get("type") == "span"
    ]


class TraceTree:
    """One assembled trace: a root, a child index, and any orphans.

    ``orphans`` are spans whose parent ID never arrived at the
    collector — in a healthy collection there are none; a dropped
    batch or an un-instrumented hop shows up here first.
    """

    def __init__(self, trace: str, spans: List[SpanRecord]):
        self.trace = trace
        self.spans = spans
        by_id: Dict[str, SpanRecord] = {s.span: s for s in spans}
        self.children: Dict[str, List[SpanRecord]] = {}
        roots: List[SpanRecord] = []
        orphans: List[SpanRecord] = []
        for span in spans:
            if span.parent is None:
                roots.append(span)
            elif span.parent in by_id:
                self.children.setdefault(span.parent, []).append(span)
            else:
                orphans.append(span)
        for kids in self.children.values():
            kids.sort(key=lambda s: (s.start, s.end, s.span))
        if roots:
            roots.sort(key=lambda s: (s.start, s.end, s.span))
            self.root: Optional[SpanRecord] = roots[0]
            # Extra parentless spans are *also* roots of their own
            # subtrees; a single-tree trace has exactly one.
            orphans.extend(roots[1:])
        elif orphans:
            # No true root collected: promote the earliest orphan so
            # the tree is still renderable, keep the rest flagged.
            orphans.sort(key=lambda s: (s.start, s.end, s.span))
            self.root = orphans[0]
            orphans = orphans[1:]
        else:
            self.root = None
        self.orphans = orphans

    @property
    def is_single_tree(self) -> bool:
        return self.root is not None and not self.orphans

    def nodes(self) -> List[str]:
        """Distinct reporting nodes in this trace, first-seen order."""
        seen: List[str] = []
        for span in self.spans:
            if span.node not in seen:
                seen.append(span.node)
        return seen

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        return self.children.get(span.span, [])

    def walk(self) -> List[Tuple[int, SpanRecord]]:
        """Depth-first ``(depth, span)`` pairs from the root."""
        out: List[Tuple[int, SpanRecord]] = []
        if self.root is None:
            return out
        stack: List[Tuple[int, SpanRecord]] = [(0, self.root)]
        while stack:
            depth, span = stack.pop()
            out.append((depth, span))
            for child in reversed(self.children_of(span)):
                stack.append((depth + 1, child))
        return out


def assemble_traces(
    records: Iterable[Dict[str, object]]
) -> List[TraceTree]:
    """Join collected spans into per-trace trees.

    Spans from different nodes land in the same tree because the
    ``Traceparent`` join gave the server span the client's trace ID
    and the client's span ID as its parent — the same hex strings both
    sides put on the wire.
    """
    by_trace: Dict[str, List[SpanRecord]] = {}
    order: List[str] = []
    for span in span_records(records):
        if span.trace not in by_trace:
            by_trace[span.trace] = []
            order.append(span.trace)
        by_trace[span.trace].append(span)
    return [TraceTree(trace, by_trace[trace]) for trace in order]


# -- critical path ------------------------------------------------------------


class CriticalPath:
    """Exact attribution of one root span's duration.

    ``entries`` maps ``(node, label) -> Fraction`` seconds;
    :attr:`total` and :attr:`root_duration` are equal by construction
    (the partition telescopes), and both are Fractions so the equality
    is exact, not approximate. :meth:`seconds` gives float views for
    rendering.
    """

    def __init__(self, tree: TraceTree):
        self.tree = tree
        self.entries: Dict[Tuple[str, str], Fraction] = {}

    def _add(self, node: str, label: str, amount: Fraction) -> None:
        if amount <= 0:
            return
        key = (node, label)
        self.entries[key] = self.entries.get(key, Fraction(0)) + amount

    @property
    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    @property
    def root_duration(self) -> Fraction:
        root = self.tree.root
        if root is None:
            return Fraction(0)
        return Fraction(root.end) - Fraction(root.start)

    def seconds(self) -> List[Tuple[str, str, float]]:
        """``(node, label, seconds)`` sorted by descending share."""
        rows = [
            (node, label, float(amount))
            for (node, label), amount in self.entries.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows


def critical_path(tree: TraceTree) -> CriticalPath:
    """Partition the root interval over the tree (straggler rule).

    Every instant of ``[root.start, root.end]`` is attributed to
    exactly one span: the deepest covering span whose end time is the
    latest among overlapping siblings. Self time lands in the span's
    own ``(node, name)`` bucket.
    """
    path = CriticalPath(tree)
    root = tree.root
    if root is None:
        return path
    _partition(
        tree, root, Fraction(root.start), Fraction(root.end), path
    )
    return path


def _partition(
    tree: TraceTree,
    span: SpanRecord,
    lo: Fraction,
    hi: Fraction,
    path: CriticalPath,
) -> None:
    if hi <= lo:
        return
    kids = []
    for child in tree.children_of(span):
        start = max(Fraction(child.start), lo)
        end = min(Fraction(child.end), hi)
        if end > start:
            kids.append((start, end, child))
    if not kids:
        path._add(span.node, span.name, hi - lo)
        return
    cuts = {lo, hi}
    for start, end, _child in kids:
        cuts.add(start)
        cuts.add(end)
    points = sorted(cuts)
    for a, b in zip(points, points[1:]):
        covering = [
            child
            for start, end, child in kids
            if start <= a and end >= b
        ]
        if not covering:
            path._add(span.node, span.name, b - a)
            continue
        # Straggler rule: the child finishing last owns the overlap —
        # ties broken by latest start, then span id, for determinism.
        winner = max(
            covering, key=lambda c: (c.end, c.start, c.span)
        )
        _partition(tree, winner, a, b, path)


# -- stragglers ---------------------------------------------------------------


def _group_key(name: str) -> str:
    """Sibling spans of one fan-out share a name modulo a numeric
    suffix (``tpc-stream-0`` … ``tpc-stream-3``)."""
    return name.rstrip("0123456789").rstrip("-_")


def stragglers(
    tree: TraceTree, threshold: float = 0.10
) -> List[Dict[str, object]]:
    """Fan-out groups (decode lanes, TPC streams) where the slowest
    sibling ends more than ``threshold`` of the group wall-clock after
    the runner-up. One dict per flagged group."""
    flagged: List[Dict[str, object]] = []
    for parent_id, kids in sorted(tree.children.items()):
        groups: Dict[str, List[SpanRecord]] = {}
        for child in kids:
            groups.setdefault(_group_key(child.name), []).append(child)
        for key, members in sorted(groups.items()):
            if len(members) < 2:
                continue
            members = sorted(members, key=lambda s: (s.end, s.span))
            last, runner_up = members[-1], members[-2]
            first_start = min(s.start for s in members)
            wall = last.end - first_start
            slack = last.end - runner_up.end
            if wall > 0 and slack / wall > threshold:
                flagged.append(
                    {
                        "group": key,
                        "node": last.node,
                        "straggler": last.name,
                        "span": last.span,
                        "members": len(members),
                        "slack_seconds": slack,
                        "wall_seconds": wall,
                    }
                )
    return flagged


# -- byte provenance ----------------------------------------------------------


@dataclass
class ProvenanceLedger:
    """Where every delivered byte came from.

    ``page_cache`` and ``network`` are the client's delivery-time
    split (each byte handed to the application charged to exactly one
    of the two); ``proxy_cache``/``origin`` refine the network bucket
    using the proxy's own served/from-cache split; ``tpc`` counts
    bytes moved peer-to-peer by third-party-copy streams. The identity
    ``total == page_cache + network + tpc`` holds exactly.
    """

    page_cache: int = 0
    network: int = 0
    proxy_cache: int = 0
    origin: int = 0
    tpc: int = 0
    #: The proxy's own view (may exceed the client's delivered bytes
    #: when the client trims page-aligned overfetch).
    proxy_served: int = 0
    proxy_from_cache: int = 0
    proxy_from_origin: int = 0

    @property
    def total(self) -> int:
        """Every delivered byte, across all sources."""
        return self.page_cache + self.network + self.tpc


def _series_value(series: Dict[str, object], key: str) -> int:
    value = series.get(key, 0)
    if isinstance(value, (list, tuple)):  # histogram (count, sum)
        return int(value[1])
    return int(value)


def byte_provenance(
    records: Iterable[Dict[str, object]]
) -> ProvenanceLedger:
    """Fold collected records into a :class:`ProvenanceLedger`.

    Metric snapshots are cumulative, so only the *last* snapshot per
    node contributes; a proxy's ``server-request`` spans (those that
    carry a cache ``outcome``) and ``tpc-transfer`` spans (those that
    carry ``ok``) are per-request and simply sum.
    """
    ledger = ProvenanceLedger()
    last_metrics: Dict[str, Dict[str, object]] = {}
    for record in records:
        rtype = record.get("type")
        if rtype == "metrics":
            last_metrics[str(record.get("node", "?"))] = (
                record.get("series") or {}
            )
        elif rtype == "span":
            name, attrs = record.get("name"), record.get("attrs") or {}
            if name == "server-request" and "outcome" in attrs:
                served = int(attrs.get("served_bytes", 0))
                from_cache = int(attrs.get("from_cache_bytes", 0))
                ledger.proxy_served += served
                ledger.proxy_from_cache += from_cache
                ledger.proxy_from_origin += served - from_cache
            elif name == "tpc-transfer" and attrs.get("ok"):
                ledger.tpc += int(attrs.get("bytes", 0))
    for series in last_metrics.values():
        ledger.page_cache += _series_value(
            series, "provenance.bytes_total{source=page-cache}"
        )
        ledger.network += _series_value(
            series, "provenance.bytes_total{source=network}"
        )
    # The network bytes the proxy says it served from its page store;
    # clamped because the proxy may have served (page-aligned) bytes
    # the client trimmed before delivery.
    ledger.proxy_cache = min(ledger.network, ledger.proxy_from_cache)
    ledger.origin = ledger.network - ledger.proxy_cache
    return ledger


# -- rendering ----------------------------------------------------------------


def _fmt_seconds(value: float) -> str:
    return f"{value:.6f}"


def render_waterfall(tree: TraceTree, width: int = 40) -> str:
    """ASCII waterfall of one trace: depth-indented spans with bars
    positioned on the root's timeline."""
    lines: List[str] = []
    root = tree.root
    if root is None:
        return "(empty trace)"
    span_total = max(root.duration, 0.0)
    lines.append(
        f"trace {tree.trace}  root={root.name}"
        f"  duration={_fmt_seconds(root.duration)}s"
        f"  nodes={','.join(tree.nodes())}"
    )
    for depth, span in tree.walk():
        if span_total > 0:
            left = int(
                (span.start - root.start) / span_total * width
            )
            extent = max(
                1, int(round(span.duration / span_total * width))
            )
            left = min(left, width - 1)
            extent = min(extent, width - left)
        else:
            left, extent = 0, width
        bar = " " * left + "#" * extent
        bar = bar.ljust(width)
        label = "  " * depth + f"{span.node}:{span.name}"
        mark = " *" if span.remote else ""
        lines.append(
            f"  [{bar}] {_fmt_seconds(span.duration)}s  {label}{mark}"
        )
    if tree.orphans:
        lines.append(f"  ! {len(tree.orphans)} orphan span(s):")
        for span in tree.orphans:
            lines.append(
                f"    - {span.node}:{span.name} span={span.span}"
                f" parent={span.parent}"
            )
    return "\n".join(lines)


def render_critical_path(path: CriticalPath) -> str:
    """The critical-path buckets as a table, largest share first."""
    total = float(path.root_duration)
    lines = [
        f"critical path  root={_fmt_seconds(total)}s"
        f"  (attributed={_fmt_seconds(float(path.total))}s)"
    ]
    for node, label, seconds in path.seconds():
        share = (seconds / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"  {_fmt_seconds(seconds)}s  {share:5.1f}%"
            f"  {node}:{label}"
        )
    flagged = stragglers(path.tree)
    for item in flagged:
        lines.append(
            f"  straggler: {item['node']}:{item['straggler']}"
            f" (+{_fmt_seconds(float(item['slack_seconds']))}s over"
            f" {item['members']} × {item['group']})"
        )
    return "\n".join(lines)


def render_provenance(ledger: ProvenanceLedger) -> str:
    """The byte ledger as a table."""
    total = ledger.total
    rows = [
        ("page-cache hit", ledger.page_cache),
        ("proxy partial hit", ledger.proxy_cache),
        ("origin fetch", ledger.origin),
        ("tpc stream", ledger.tpc),
    ]
    lines = [f"byte provenance  total delivered={total}"]
    for label, value in rows:
        share = (value / total * 100.0) if total > 0 else 0.0
        lines.append(f"  {value:>14d}  {share:5.1f}%  {label}")
    if ledger.proxy_served:
        lines.append(
            f"  proxy view: served={ledger.proxy_served}"
            f" from-cache={ledger.proxy_from_cache}"
            f" from-origin={ledger.proxy_from_origin}"
        )
    return "\n".join(lines)


def render_trace_summary(
    records: Sequence[Dict[str, object]],
    limit: int = 3,
) -> str:
    """The full ``davix-tool trace`` rendering of one collected run:
    per-trace waterfalls + critical paths for the ``limit`` longest
    multi-node traces, then the run-wide provenance ledger."""
    trees = assemble_traces(records)
    lines: List[str] = []
    single = sum(1 for t in trees if t.is_single_tree)
    orphans = sum(len(t.orphans) for t in trees)
    nodes = sorted(
        {s.node for t in trees for s in t.spans}
    )
    lines.append(
        f"collected {len(list(records))} records,"
        f" {len(trees)} trace(s) ({single} single-tree,"
        f" {orphans} orphan span(s)) from nodes:"
        f" {', '.join(nodes) if nodes else '(none)'}"
    )
    interesting = [t for t in trees if t.root is not None]
    interesting.sort(
        key=lambda t: (-(len(t.nodes())), -t.root.duration, t.trace)
    )
    for tree in interesting[:limit]:
        lines.append("")
        lines.append(render_waterfall(tree))
        lines.append(render_critical_path(critical_path(tree)))
    ledger = byte_provenance(records)
    lines.append("")
    lines.append(render_provenance(ledger))
    return "\n".join(lines) + "\n"


def _aggregate_critical(
    records: Sequence[Dict[str, object]]
) -> Dict[Tuple[str, str], float]:
    """Run-wide ``(node, label) -> seconds`` over every full trace."""
    out: Dict[Tuple[str, str], float] = {}
    for tree in assemble_traces(records):
        if tree.root is None:
            continue
        for (node, label), amount in critical_path(tree).entries.items():
            out[(node, label)] = out.get((node, label), 0.0) + float(
                amount
            )
    return out


def render_trace_diff(
    records_a: Sequence[Dict[str, object]],
    records_b: Sequence[Dict[str, object]],
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Compare two runs bucket by bucket (critical path + bytes)."""
    agg_a = _aggregate_critical(records_a)
    agg_b = _aggregate_critical(records_b)
    keys = sorted(set(agg_a) | set(agg_b))
    lines = [
        f"trace diff  {label_a} vs {label_b}",
        f"  {'bucket':<36} {label_a:>12} {label_b:>12} {'delta':>12}",
    ]
    for node, label in keys:
        a = agg_a.get((node, label), 0.0)
        b = agg_b.get((node, label), 0.0)
        lines.append(
            f"  {node + ':' + label:<36}"
            f" {_fmt_seconds(a):>12} {_fmt_seconds(b):>12}"
            f" {b - a:>+12.6f}"
        )
    ledger_a = byte_provenance(records_a)
    ledger_b = byte_provenance(records_b)
    lines.append(
        f"  bytes: page-cache {ledger_a.page_cache} -> "
        f"{ledger_b.page_cache}, proxy {ledger_a.proxy_cache} -> "
        f"{ledger_b.proxy_cache}, origin {ledger_a.origin} -> "
        f"{ledger_b.origin}, tpc {ledger_a.tpc} -> {ledger_b.tpc}"
    )
    return "\n".join(lines) + "\n"
