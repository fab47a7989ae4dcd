"""Scenario runner: one analysis-job execution on a fresh simulation.

Builds the world the paper describes — a WLCG worker node and a DPM
storage server joined by one of the three network profiles — hosts the
dataset, runs the job over the chosen protocol, and returns the report.
Every run gets its own :class:`~repro.sim.Environment`, so runs are
independent and reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.concurrency import SimRuntime
from repro.core.context import Context, RequestParams
from repro.server.faults import FaultPolicy
from repro.net.profiles import NetProfile, build_network
from repro.rootio.generator import (
    DatasetSpec,
    generate_ntuple_bytes,
    generate_ntuple_layout,
    generate_tree_bytes,
    generate_tree_layout,
)
from repro.server import HttpServer, ObjectStore, StorageApp, ZeroContent
from repro.sim import Environment
from repro.workloads.analysis import (
    AnalysisConfig,
    AnalysisReport,
    davix_analysis,
    xrootd_analysis,
)
from repro.xrootd import XrdServer, serve_xrootd

__all__ = ["Scenario", "run_scenario"]

TREE_PATH = "/dpm/data/hep_events.root"


@dataclass
class Scenario:
    """Everything one execution needs."""

    profile: NetProfile
    protocol: str  # "davix" | "xrootd"
    spec: DatasetSpec
    config: AnalysisConfig
    seed: int = 0
    #: Materialise real bytes (small runs) vs layout-only (big runs).
    materialize: bool = False
    #: Fault policy worn by the storage server (chaos runs); davix only.
    faults: Optional[FaultPolicy] = None
    #: Request params for the davix client (retry policy, deadline, …).
    params: Optional[RequestParams] = None

    def __post_init__(self):
        if self.protocol not in ("davix", "xrootd"):
            raise ValueError(f"unknown protocol {self.protocol!r}")


def run_scenario(
    scenario: Scenario,
    context: Optional[Context] = None,
    collector=None,
) -> AnalysisReport:
    """Execute one scenario in a fresh simulated world.

    ``context`` lets the caller supply a pre-composed
    :class:`~repro.core.context.Context` (a metric registry to inspect
    afterwards, a breaker config) for either protocol; the runner still
    rebinds its clock to the fresh simulation. ``collector`` (a
    :class:`~repro.obs.TelemetryCollector`) arms the storage server
    with a node-namespaced tracer and event log whose records are
    flushed into it after the run, so server-side spans join the
    client's traces in the assembled artifact; davix-only, like the
    scenario's faults.
    """
    env = Environment()
    net = build_network(scenario.profile, env, seed=scenario.seed)
    client_rt = SimRuntime(net, "client")
    server_rt = SimRuntime(net, "server")

    store = ObjectStore(clock=server_rt.now)
    ntuple = scenario.config.format == "ntuple"
    if scenario.materialize:
        blob = (
            generate_ntuple_bytes(scenario.spec)
            if ntuple
            else generate_tree_bytes(scenario.spec)
        )
        store.put(TREE_PATH, blob)
        meta = None  # the client parses the real index/footer
    else:
        layout = (
            generate_ntuple_layout(scenario.spec)
            if ntuple
            else generate_tree_layout(scenario.spec)
        )
        store.put(TREE_PATH, ZeroContent(layout.file_size))
        meta = layout

    if scenario.protocol == "davix":
        app = StorageApp(store, faults=scenario.faults)
        server_sink = None
        if collector is not None:
            from repro.obs import Tracer
            from repro.obs.collector import TelemetrySink

            server_sink = TelemetrySink("server", clock=server_rt.now)
            app.tracer = Tracer(clock=server_rt.now, node="server")
            app.tracer.sink = server_sink.record_span
        HttpServer(server_rt, app, port=80).start()
        if context is None:
            context = Context(params=scenario.params)
        context.clock = client_rt.now
        # scenario.params is complete as given; otherwise analysis
        # derives its own (context default + the config's TCP options).
        report = client_rt.run(
            davix_analysis(
                context,
                f"http://server{TREE_PATH}",
                scenario.config,
                params=scenario.params,
                meta=meta,
            )
        )
        if server_sink is not None:
            server_sink.flush(target=collector)
    else:
        if scenario.faults is not None:
            raise ValueError("fault injection is davix-only")
        if context is not None:
            context.clock = client_rt.now
        serve_xrootd(server_rt, XrdServer(store), port=1094)
        report = client_rt.run(
            xrootd_analysis(
                ("server", 1094),
                TREE_PATH,
                scenario.config,
                meta=meta,
                context=context,
            )
        )
    return report
