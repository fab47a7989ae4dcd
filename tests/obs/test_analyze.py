"""Trace assembly and analysis on hand-built collector records:
orphan handling, the exact critical-path partition (straggler rule),
fan-out straggler detection and the byte-provenance ledger clamps."""

from fractions import Fraction

from repro.obs.analyze import (
    assemble_traces,
    byte_provenance,
    critical_path,
    render_critical_path,
    render_provenance,
    render_waterfall,
    stragglers,
)

TRACE = "0" * 24 + "deadbeef"


def span(name, span_id, parent, start, end, node="client", **attrs):
    return {
        "type": "span",
        "node": node,
        "name": name,
        "trace": TRACE,
        "span": span_id,
        "parent": parent,
        "remote": parent is not None and node != "client",
        "start": start,
        "end": end,
        "attrs": attrs,
    }


# -- assembly -----------------------------------------------------------------


def test_cross_node_spans_join_into_one_tree():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        span("exchange", "b2", "a1", 0.1, 0.9),
        span("server-request", "c3", "b2", 0.2, 0.8, node="server"),
    ]
    (tree,) = assemble_traces(records)
    assert tree.is_single_tree
    assert tree.nodes() == ["client", "server"]
    assert [s.name for _, s in tree.walk()] == [
        "request", "exchange", "server-request"
    ]
    assert [d for d, _ in tree.walk()] == [0, 1, 2]


def test_missing_parent_flags_an_orphan():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        span("recv", "b2", "gone", 0.1, 0.9),
    ]
    (tree,) = assemble_traces(records)
    assert not tree.is_single_tree
    assert [s.span for s in tree.orphans] == ["b2"]


def test_two_parentless_spans_are_root_plus_orphan():
    records = [
        span("request", "a1", None, 0.5, 1.0),
        span("request", "b2", None, 0.0, 0.4),
    ]
    (tree,) = assemble_traces(records)
    assert tree.root.span == "b2"  # earliest start wins the root
    assert [s.span for s in tree.orphans] == ["a1"]


def test_rootless_trace_promotes_earliest_orphan():
    records = [
        span("recv", "b2", "gone", 0.3, 0.9),
        span("send", "c3", "gone", 0.1, 0.2),
    ]
    (tree,) = assemble_traces(records)
    assert tree.root.span == "c3"
    assert [s.span for s in tree.orphans] == ["b2"]
    assert not tree.is_single_tree


def test_distinct_trace_ids_assemble_separately():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        dict(span("request", "a1", None, 0.0, 1.0), trace="f" * 32),
    ]
    trees = assemble_traces(records)
    assert [t.trace for t in trees] == [TRACE, "f" * 32]


# -- critical path ------------------------------------------------------------


def test_partition_attributes_self_time_and_child_time():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        span("recv", "b2", "a1", 0.25, 0.75),
    ]
    (tree,) = assemble_traces(records)
    path = critical_path(tree)
    assert path.entries == {
        ("client", "request"): Fraction(1, 2),  # 0-0.25 and 0.75-1
        ("client", "recv"): Fraction(1, 2),
    }
    assert path.total == path.root_duration == Fraction(1)


def test_straggler_rule_gives_overlap_to_the_last_finisher():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        span("stream-0", "b2", "a1", 0.0, 0.6),
        span("stream-1", "c3", "a1", 0.0, 1.0),
    ]
    (tree,) = assemble_traces(records)
    path = critical_path(tree)
    # stream-1 ends last: it owns the whole overlapped interval.
    assert path.entries == {("client", "stream-1"): Fraction(1)}


def test_partition_is_exact_on_awkward_float_times():
    times = [0.1, 0.30000000000000004, 0.7000000000000001]
    records = [
        span("request", "a1", None, times[0], 0.9),
        span("x", "b2", "a1", times[1], times[2]),
        span("y", "c3", "b2", times[1], 0.5),
    ]
    (tree,) = assemble_traces(records)
    path = critical_path(tree)
    assert path.total == path.root_duration  # exact, not approx
    assert path.root_duration == Fraction(0.9) - Fraction(times[0])


def test_child_time_outside_the_root_window_is_clipped():
    records = [
        span("request", "a1", None, 0.2, 0.8),
        span("early", "b2", "a1", 0.0, 0.4),
        span("late", "c3", "a1", 0.6, 1.5),
    ]
    (tree,) = assemble_traces(records)
    path = critical_path(tree)
    assert path.total == path.root_duration
    assert path.root_duration == Fraction(0.8) - Fraction(0.2)
    assert path.entries[("client", "early")] == (
        Fraction(0.4) - Fraction(0.2)
    )
    assert path.entries[("client", "late")] == (
        Fraction(0.8) - Fraction(0.6)
    )


def test_stragglers_flags_the_slow_sibling_only():
    records = [
        span("copy", "a1", None, 0.0, 2.0),
        span("tpc-stream-0", "b2", "a1", 0.0, 1.0),
        span("tpc-stream-1", "c3", "a1", 0.0, 1.05),
        span("tpc-stream-2", "d4", "a1", 0.0, 2.0),
    ]
    (tree,) = assemble_traces(records)
    (flag,) = stragglers(tree, threshold=0.10)
    assert flag["group"] == "tpc-stream"
    assert flag["straggler"] == "tpc-stream-2"
    assert flag["members"] == 3
    assert flag["slack_seconds"] == 2.0 - 1.05
    # A tight fan-out is not flagged.
    assert stragglers(tree, threshold=0.60) == []


# -- byte provenance ----------------------------------------------------------


def metrics_record(node, page_cache, network):
    return {
        "type": "metrics",
        "node": node,
        "ts": 1.0,
        "series": {
            "provenance.bytes_total{source=page-cache}": page_cache,
            "provenance.bytes_total{source=network}": network,
        },
    }


def span_record(node, name, **attrs):
    """A finished span's wire record; only name and attrs matter here."""
    return {
        "type": "span",
        "node": node,
        "name": name,
        "trace": "0" * 32,
        "span": "0" * 16,
        "parent": None,
        "remote": False,
        "start": 0.0,
        "end": 1.0,
        "attrs": attrs,
    }


def proxy_event(served, from_cache):
    """The serving span of one request the proxy answered."""
    return span_record(
        "proxy", "server-request", status=206, outcome="PARTIAL",
        served_bytes=served, from_cache_bytes=from_cache,
    )


def test_ledger_splits_network_by_proxy_events():
    ledger = byte_provenance(
        [
            metrics_record("client", 100, 900),
            proxy_event(600, 400),
            # An origin's serving span carries no cache split.
            span_record("origin", "server-request", status=200),
        ]
    )
    assert ledger.page_cache == 100
    assert ledger.network == 900
    assert ledger.proxy_cache == 400
    assert ledger.origin == 500
    assert ledger.total == 1000


def test_ledger_clamps_proxy_cache_to_delivered_network_bytes():
    # Proxy page-aligned overfetch: it served more from cache than the
    # client delivered; the clamp keeps origin non-negative.
    ledger = byte_provenance(
        [
            metrics_record("client", 0, 300),
            proxy_event(900, 800),
        ]
    )
    assert ledger.proxy_cache == 300
    assert ledger.origin == 0
    assert ledger.proxy_from_cache == 800
    assert ledger.proxy_from_origin == 100


def test_only_the_last_metrics_snapshot_per_node_counts():
    ledger = byte_provenance(
        [
            metrics_record("client", 10, 20),
            metrics_record("client", 30, 40),  # cumulative — wins
            metrics_record("client-b", 1, 2),
        ]
    )
    assert ledger.page_cache == 31
    assert ledger.network == 42


def test_failed_tpc_transfers_do_not_count():
    ledger = byte_provenance(
        [
            span_record("site", "tpc-transfer", ok=True, bytes=50),
            span_record("site", "tpc-transfer", ok=False, bytes=999),
            # Without ``ok`` a span is no transfer row (a setup failure).
            span_record("site", "tpc-transfer", bytes=999, error="502"),
        ]
    )
    assert ledger.tpc == 50
    assert ledger.total == 50


def test_histogram_valued_series_count_their_sum():
    ledger = byte_provenance(
        [
            {
                "type": "metrics",
                "node": "client",
                "ts": 0.0,
                "series": {
                    "provenance.bytes_total{source=network}": (3, 120)
                },
            }
        ]
    )
    assert ledger.network == 120


# -- rendering ----------------------------------------------------------------


def test_renderers_cover_the_assembled_tree():
    records = [
        span("request", "a1", None, 0.0, 1.0),
        span("recv", "b2", "a1", 0.25, 0.75),
    ]
    (tree,) = assemble_traces(records)
    waterfall = render_waterfall(tree)
    assert "request" in waterfall and "recv" in waterfall
    path_text = render_critical_path(critical_path(tree))
    assert "attributed=" in path_text
    assert "client recv" in path_text or "recv" in path_text
    ledger_text = render_provenance(
        byte_provenance([metrics_record("client", 1, 1)])
    )
    assert "total delivered=2" in ledger_text
