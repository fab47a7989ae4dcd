"""Telemetry pipeline: campaign request rows and wide events,
determinism and the HammerCloud-style run report (library, CLI and
golden properties)."""

import io

from repro.net.profiles import PROFILES
from repro.obs import SloPolicy, parse_records
from repro.rootio.generator import BranchSpec, DatasetSpec
from repro.workloads import AnalysisConfig, Campaign
from repro.workloads.report import render_report


def tiny_spec(n_entries=200):
    return DatasetSpec(
        name="hep_events",
        n_entries=n_entries,
        branches=(
            BranchSpec("a", event_size=512, compress_ratio=0.5),
            BranchSpec("b", event_size=256, compress_ratio=0.5),
        ),
        basket_entries=100,
        seed=3,
    )


def fast_cfg():
    return AnalysisConfig(per_event_cpu=0.0002, learn_entries=0)


def run_campaign(repetitions=2, protocols=("davix",)):
    campaign = Campaign(
        spec=tiny_spec(),
        config=fast_cfg(),
        repetitions=repetitions,
        base_seed=42,
    )
    profiles = [PROFILES[name] for name in ("lan", "geant", "wan")]
    campaign.run_matrix(profiles, protocols=protocols)
    return campaign


def test_campaign_collects_tagged_wide_events():
    campaign = run_campaign(repetitions=1)
    runs = [e for e in campaign.events if e["kind"] == "run"]
    requests = [e for e in campaign.events if e["kind"] == "request"]
    assert len(runs) == 3  # one per (davix, profile) repetition
    assert requests  # davix repetitions log per-request events
    for event in requests:
        assert event["side"] == "client"
        assert event["protocol"] == "davix"
        assert event["profile"] in ("lan", "geant", "wan")
        assert event["repetition"] == 0
        assert len(event["trace_id"]) == 32
        assert "phase_ttfb" in event


def test_campaign_telemetry_is_deterministic_across_repeats():
    """The acceptance property: two seeded runs of the same 3-profile
    campaign export byte-identical JSONL and render byte-identical
    reports."""
    first = run_campaign()
    second = run_campaign()
    assert first.event_json_lines() == second.event_json_lines()
    assert first.report() == second.report()


def test_report_sections_and_formatting():
    campaign = run_campaign(repetitions=1)
    report = campaign.report()
    lines = report.splitlines()
    assert lines[0] == "HammerCloud run report"
    assert lines[1] == "=" * len(lines[0])
    assert "Executions (wall seconds)" in report
    assert "Phase breakdown (client, mean seconds per request)" in report
    assert "SLO verdicts" in report
    assert "server:80" in report
    assert report.endswith("\n")
    # Every davix cell appears in the executions table.
    for profile in ("lan", "geant", "wan"):
        assert any(
            line.split()[:2] == ["davix", profile] for line in lines
        )


def test_cache_armed_campaign_reports_cache_counters():
    """A campaign whose params arm the page cache emits one ``cache``
    event per davix repetition and the report grows a cache section."""
    from repro.core import RequestParams, TransferConfig

    campaign = Campaign(
        spec=tiny_spec(),
        config=fast_cfg(),
        repetitions=2,
        base_seed=42,
        params=RequestParams(
            transfer=TransferConfig(page_cache_bytes=32 << 20)
        ),
    )
    campaign.run_matrix([PROFILES["wan"]], protocols=("davix",))
    cache_events = [
        e for e in campaign.events if e["kind"] == "cache"
    ]
    assert len(cache_events) == 2  # one per repetition
    for event in cache_events:
        assert event["protocol"] == "davix"
        assert event["profile"] == "wan"
        assert event["hits"] + event["misses"] + event["partial_hits"] > 0
    report = campaign.report()
    assert "Page cache (cache.* counters)" in report
    assert "cache.hit" in report
    assert "cache.origin_bytes_saved" in report
    # Without cache params the section never appears (goldens stable).
    assert "Page cache" not in run_campaign(repetitions=1).report()


def test_tpc_events_grow_a_copy_section():
    """``tpc`` wide events render the per-mode third-party-copy
    rollup; failed transfers count but contribute no bytes."""
    events = [
        {
            "kind": "tpc", "mode": "pull", "ok": True,
            "bytes": 1_000_000, "retries": 1, "throughput": 5e8,
        },
        {
            "kind": "tpc", "mode": "pull", "ok": True,
            "bytes": 1_000_000, "retries": 0, "throughput": 7e8,
        },
        {
            "kind": "tpc", "mode": "push", "ok": False,
            "bytes": 0, "retries": 2, "throughput": 0.0,
        },
    ]
    report = render_report(events)
    assert "Third-party copies (tpc events)" in report
    pull = next(
        line for line in report.splitlines()
        if line.split()[:1] == ["pull"]
    )
    assert pull.split() == [
        "pull", "2", "2", "2000000", "1", "600000000.000000"
    ]
    push = next(
        line for line in report.splitlines()
        if line.split()[:1] == ["push"]
    )
    assert push.split() == ["push", "1", "0", "0", "2", "-"]
    # Without tpc events the section never appears (goldens stable).
    assert "Third-party" not in run_campaign(repetitions=1).report()


def test_report_of_empty_log_is_a_stub():
    assert render_report([]) == (
        "HammerCloud run report\n"
        "======================\n"
        "(no events)\n"
    )


def test_cli_report_matches_library_rendering(tmp_path):
    from repro.cli import build_parser, cmd_report

    campaign = run_campaign(repetitions=1)
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(campaign.event_json_lines() + "\n")

    args = build_parser().parse_args(["report", str(events_path)])
    out = io.StringIO()
    assert cmd_report(args, out=out) == 0
    # The CLI defaults mirror SloPolicy's defaults exactly.
    assert out.getvalue() == campaign.report(policy=SloPolicy())
    assert out.getvalue() == campaign.report()


def test_event_json_lines_roundtrip():
    campaign = run_campaign(repetitions=1)
    parsed = parse_records(campaign.event_json_lines())
    assert len(parsed) == len(campaign.events)
    kinds = {event["kind"] for event in parsed}
    assert kinds == {"run", "request"}


def test_collector_armed_campaign_reports_cluster_telemetry():
    """A campaign wearing a TelemetryCollector grows the cluster
    telemetry section: per-node record counts, trace-assembly health
    and the top critical-path buckets."""
    from repro.obs.collector import TelemetryCollector

    collector = TelemetryCollector()
    campaign = Campaign(
        spec=tiny_spec(),
        config=fast_cfg(),
        repetitions=2,
        base_seed=42,
        collector=collector,
    )
    campaign.run_matrix([PROFILES["lan"]], protocols=("davix",))
    assert len(collector) > 0
    report = campaign.report()
    assert "Cluster telemetry" in report
    assert "orphan_spans=0" in report
    assert "Top critical-path buckets:" in report
    # Client sinks are per (profile, repetition); the server reports
    # under its own node name.
    for node in ("client-lan-r0", "client-lan-r1", "server"):
        assert node in report
    # Without a collector the section never appears (goldens stable).
    assert "Cluster telemetry" not in run_campaign(
        repetitions=1
    ).report()


def test_ntuple_campaign_reports_columnar_scan_counters():
    """A columnar (ntuple-format) campaign with a collector emits one
    ``ntuple`` event per repetition and the report grows the scan
    section; basket-format campaigns never do."""
    from repro.obs.collector import TelemetryCollector
    from repro.workloads import AnalysisConfig

    campaign = Campaign(
        spec=tiny_spec(),
        config=AnalysisConfig(
            per_event_cpu=0.0002, learn_entries=0, format="ntuple"
        ),
        repetitions=2,
        base_seed=42,
        collector=TelemetryCollector(),
    )
    campaign.run_matrix([PROFILES["lan"]], protocols=("davix",))
    scans = [e for e in campaign.events if e["kind"] == "ntuple"]
    assert len(scans) == 2  # one per repetition
    for event in scans:
        assert event["pages_fetched_total"] > 0
        assert event["bytes_fetched_total"] > 0
        assert event["clusters_decoded_total"] > 0
        assert event["decode_seconds"] > 0.0
    report = campaign.report()
    assert "Columnar scan (ntuple.* counters)" in report
    assert "ntuple.pages_fetched" in report
    assert "Columnar scan" not in run_campaign(repetitions=1).report()


def test_collector_campaign_artifact_is_deterministic():
    """Two seeded repeats of a collector-armed campaign export
    byte-identical telemetry JSONL (the CI artifact property)."""
    from repro.obs.collector import TelemetryCollector

    def run():
        campaign = Campaign(
            spec=tiny_spec(),
            config=fast_cfg(),
            repetitions=2,
            base_seed=42,
            collector=TelemetryCollector(),
        )
        campaign.run_matrix([PROFILES["lan"]], protocols=("davix",))
        return campaign

    first, second = run(), run()
    artifact = first.telemetry_json_lines()
    assert artifact
    assert artifact == second.telemetry_json_lines()
    assert first.report() == second.report()
