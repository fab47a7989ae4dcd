"""HammerCloud-style campaign: repeated executions with statistics.

The paper averaged 576 HammerCloud executions over 12 days per data
point. Simulated time is free, so the campaign runs N independent
repetitions (different jitter seeds) per (protocol, profile) cell and
reports the same aggregate: the mean execution time.

The campaign is also the telemetry pipeline's head-end: every davix
repetition runs on its own :class:`~repro.core.context.Context` whose
rows (folded from its spans) are collected — tagged with protocol,
profile and repetition — alongside one ``run`` summary event per
repetition, and exported as
JSONL (:meth:`Campaign.event_json_lines`) or rendered as the
HammerCloud-style page (:meth:`Campaign.report`). ``python -m
repro.workloads.hammercloud`` runs a small campaign and writes both.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import Context, RequestParams
from repro.net.profiles import NetProfile
from repro.obs.collector import records_to_json_lines
from repro.obs.events import request_events
from repro.obs.slo import SloPolicy
from repro.rootio.generator import DatasetSpec
from repro.workloads.analysis import AnalysisConfig, AnalysisReport
from repro.workloads.report import render_report
from repro.workloads.runner import Scenario, run_scenario

__all__ = ["CellStats", "Campaign", "results_to_csv"]


@dataclass
class CellStats:
    """Aggregate over the repetitions of one campaign cell."""

    protocol: str
    profile: str
    reports: List[AnalysisReport] = field(default_factory=list)

    @property
    def times(self) -> List[float]:
        return [report.wall_seconds for report in self.reports]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def stdev(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return statistics.stdev(self.times)

    @property
    def minimum(self) -> float:
        return min(self.times)

    @property
    def maximum(self) -> float:
        return max(self.times)

    def __repr__(self) -> str:
        return (
            f"<CellStats {self.protocol}@{self.profile} "
            f"mean={self.mean:.2f}s n={len(self.reports)}>"
        )


def results_to_csv(results: Dict[Tuple[str, str], "CellStats"]) -> str:
    """Render a campaign matrix as CSV (one row per repetition)."""
    lines = [
        "protocol,profile,repetition,wall_seconds,events,bytes_fetched,"
        "remote_reads,refills"
    ]
    for (protocol, profile), cell in sorted(results.items()):
        for index, report in enumerate(cell.reports):
            lines.append(
                f"{protocol},{profile},{index},"
                f"{report.wall_seconds:.6f},{report.events_read},"
                f"{report.bytes_fetched},{report.remote_reads},"
                f"{report.refills}"
            )
    return "\n".join(lines) + "\n"


class Campaign:
    """Run the full (protocol x profile) matrix of analysis jobs."""

    def __init__(
        self,
        spec: DatasetSpec,
        config: AnalysisConfig,
        repetitions: int = 3,
        base_seed: int = 42,
        materialize: bool = False,
        params: Optional[RequestParams] = None,
        collector=None,
    ):
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.spec = spec
        self.config = config
        self.repetitions = repetitions
        self.base_seed = base_seed
        self.materialize = materialize
        #: Davix request params worn by every repetition's context —
        #: e.g. ``TransferConfig(page_cache_bytes=...)`` arms the client
        #: page cache, adding one ``cache`` event per repetition.
        self.params = params
        #: Optional :class:`~repro.obs.TelemetryCollector`: when set,
        #: every davix repetition's context wears a node-namespaced
        #: :class:`~repro.obs.TelemetrySink` (and the in-sim storage
        #: server gets one too), flushed here after each run — the
        #: cluster-wide trace artifact ``davix-tool trace`` reads.
        self.collector = collector
        #: Wide events accumulated across every cell run so far: the
        #: rows folded from each davix repetition's spans
        #: (tagged with protocol/profile/repetition) plus one ``run``
        #: summary event per repetition of either protocol.
        self.events: List[dict] = []

    def run_cell(
        self, protocol: str, profile: NetProfile
    ) -> CellStats:
        """All repetitions of one (protocol, profile) cell."""
        stats = CellStats(protocol=protocol, profile=profile.name)
        for repetition in range(self.repetitions):
            scenario = Scenario(
                profile=profile,
                protocol=protocol,
                spec=self.spec,
                config=self.config,
                seed=self.base_seed + repetition,
                materialize=self.materialize,
            )
            # Each davix repetition gets a fresh context so its spans
            # cover exactly one execution.
            sink = None
            if protocol == "davix" and self.collector is not None:
                from repro.obs.collector import TelemetrySink

                sink = TelemetrySink(
                    f"client-{profile.name}-r{repetition}"
                )
            context = (
                Context(params=self.params, telemetry=sink)
                if protocol == "davix"
                else None
            )
            report = run_scenario(
                scenario, context=context, collector=self.collector
            )
            stats.reports.append(report)
            tags = {
                "protocol": protocol,
                "profile": profile.name,
                "repetition": repetition,
            }
            if context is not None:
                for event in request_events(context.tracer.finished()):
                    merged = dict(event)
                    merged.update(tags)
                    self.events.append(merged)
                if context.page_cache is not None:
                    cache_event = {
                        "kind": "cache",
                        "used_bytes": context.page_cache.used_bytes,
                    }
                    cache_event.update(context.page_cache.stats)
                    cache_event.update(tags)
                    self.events.append(cache_event)
                scan_event = self._ntuple_event(context)
                if scan_event is not None:
                    scan_event.update(tags)
                    self.events.append(scan_event)
                if sink is not None:
                    context.flush_telemetry(target=self.collector)
            run_event = {
                "kind": "run",
                "wall_seconds": report.wall_seconds,
                "events_read": report.events_read,
                "bytes_fetched": report.bytes_fetched,
                "remote_reads": report.remote_reads,
                "refills": report.refills,
            }
            run_event.update(tags)
            self.events.append(run_event)
        return stats

    def run_matrix(
        self,
        profiles: Sequence[NetProfile],
        protocols: Sequence[str] = ("davix", "xrootd"),
    ) -> Dict[Tuple[str, str], CellStats]:
        """The full matrix; keys are (protocol, profile_name)."""
        results = {}
        for profile in profiles:
            for protocol in protocols:
                results[(protocol, profile.name)] = self.run_cell(
                    protocol, profile
                )
        return results

    # -- telemetry exports ----------------------------------------------------

    @staticmethod
    def _ntuple_event(context: Context) -> Optional[dict]:
        """One ``ntuple`` wide event from the context's ``ntuple.*``
        counters (columnar repetitions only — None otherwise)."""
        snapshot = context.metrics.snapshot()
        scan = {
            key[len("ntuple."):]: value
            for key, value in snapshot.items()
            if key.startswith("ntuple.")
        }
        if not scan:
            return None
        event = {"kind": "ntuple"}
        event.update(scan)
        decode = snapshot.get(
            "request.phase_seconds{phase=ntuple-decode}"
        )
        if isinstance(decode, tuple):
            event["decode_seconds"] = decode[1]
        return event

    def event_json_lines(self) -> str:
        """Every collected wide event as deterministic JSONL."""
        return records_to_json_lines(self.events)

    def telemetry_json_lines(self) -> str:
        """The collector's records as canonical JSONL ('' without a
        collector)."""
        if self.collector is None:
            return ""
        return self.collector.to_json_lines()

    def report(self, policy: Optional[SloPolicy] = None) -> str:
        """The HammerCloud-style run summary over the collected events."""
        telemetry = (
            self.collector.records()
            if self.collector is not None
            else None
        )
        return render_report(
            self.events, policy=policy, telemetry=telemetry
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a small campaign and emit its telemetry artifacts.

    ``python -m repro.workloads.hammercloud --events-out events.jsonl
    --report-out report.txt`` — what the CI perf-smoke job archives.
    """
    import argparse
    import sys

    from repro.net.profiles import PROFILES

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.hammercloud",
        description="Run a HammerCloud-style campaign matrix.",
    )
    parser.add_argument(
        "--profiles",
        default="lan,geant,wan",
        help="comma-separated network profiles (default: lan,geant,wan)",
    )
    parser.add_argument(
        "--protocols",
        default="davix,xrootd",
        help="comma-separated protocols (default: davix,xrootd)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, metavar="N"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--entries", type=int, default=600, metavar="N",
        help="tree entries per execution (default: 600)",
    )
    parser.add_argument(
        "--events-out", metavar="PATH",
        help="write the JSONL wide-event log here",
    )
    parser.add_argument(
        "--report-out", metavar="PATH",
        help="write the rendered run report here",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="collect cluster telemetry and write the assembled"
        " span/event/metrics JSONL here (davix-tool trace reads it)",
    )
    args = parser.parse_args(argv)

    from repro.rootio.generator import BranchSpec

    profiles = [PROFILES[name] for name in args.profiles.split(",")]
    protocols = tuple(args.protocols.split(","))
    spec = DatasetSpec(
        name="hep_events",
        n_entries=args.entries,
        branches=(
            BranchSpec("px", event_size=512, compress_ratio=0.5),
            BranchSpec("py", event_size=256, compress_ratio=0.5),
        ),
        basket_entries=100,
        seed=7,
    )
    config = AnalysisConfig()
    collector = None
    if args.trace_out:
        from repro.obs.collector import TelemetryCollector

        collector = TelemetryCollector()
    campaign = Campaign(
        spec, config, repetitions=args.repetitions,
        base_seed=args.seed, collector=collector,
    )
    results = campaign.run_matrix(profiles, protocols=protocols)
    sys.stdout.write(results_to_csv(results))
    if args.events_out:
        with open(args.events_out, "w") as handle:
            handle.write(campaign.event_json_lines() + "\n")
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            lines = campaign.telemetry_json_lines()
            handle.write(lines + "\n" if lines else "")
    report = campaign.report()
    if args.report_out:
        with open(args.report_out, "w") as handle:
            handle.write(report)
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
