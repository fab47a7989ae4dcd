"""COL-SCAN — columnar format v2 vs v1: wall clock and read amplification.

Two claims of the RNTuple-style v2 layout, measured end to end:

* **cluster-parallel decode** — on the WAN profile the full-branch
  analysis scan refills several clusters concurrently
  (:class:`~repro.rootio.treecache.ClusterScan` lanes over
  ``bounded_gather``), overlapping fetch latency and decompression CPU
  across lanes: 4 lanes must beat the single-lane scan;
* **read amplification** — a sparse selection (2 of 10 branches ×
  scattered 20-row windows, an event-index skim) fetches page-granular
  byte ranges in v2 (~64 KiB pages) versus basket-granular ranges in
  v1 (100-entry ≈ 1.2 MB baskets): v2 must move at most 40 % of the
  bytes v1 moves for the same rows.

Amplification = bytes fetched / compressed bytes of the selected
records (1.0 = the wire carried exactly the selection).
"""

import random

from repro.concurrency import SimRuntime
from repro.core import Context
from repro.net import LinkSpec, Network
from repro.net.profiles import WAN
from repro.rootio import (
    DavixFetcher,
    generate_ntuple_layout,
    generate_tree_layout,
    paper_dataset,
)
from repro.server import HttpServer, ObjectStore, StorageApp, ZeroContent
from repro.sim import Environment
from repro.workloads import AnalysisConfig, Scenario, run_scenario

from _util import bench_scale, emit

#: The sparse selection: 2 of the 10 paper branches (20 % <= 25 %).
SPARSE_COLUMNS = ("branch00", "branch03")
#: Scattered row windows — 24 skims of 20 rows each, seeded.
WINDOW_ROWS = 20
WINDOW_COUNT = 24
SEED = 31


def scan_configs():
    """label -> AnalysisConfig for the full-scan sweep."""
    return {
        "v1-webdav": AnalysisConfig(fraction=0.25),
        "v2-webdav-1lane": AnalysisConfig(
            fraction=0.25, format="ntuple", decode_lanes=1
        ),
        "v2-webdav-4lanes": AnalysisConfig(
            fraction=0.25, format="ntuple", decode_lanes=4
        ),
    }


def sparse_windows(n_entries, rng):
    """Scattered [start, stop) row windows over the whole tree."""
    windows = []
    stride = n_entries // WINDOW_COUNT
    for i in range(WINDOW_COUNT):
        base = i * stride
        start = base + rng.randrange(max(1, stride - WINDOW_ROWS))
        windows.append((start, min(start + WINDOW_ROWS, n_entries)))
    return windows


def selected_bytes(spec, rows, names):
    """Compressed bytes of exactly the selected records (the floor)."""
    per_row = sum(
        b.event_size * b.compress_ratio
        for b in spec.branches
        if b.name in names or not names
    )
    return rows * per_row


def fetch_window_spans(meta, windows, names):
    """Fetch each window's spans over a simulated wire -> bytes moved.

    The layout is hosted as sized-but-synthetic content; the client
    issues the exact vectored reads the format's metadata plans for
    the selection, so the byte count is the real wire cost of the
    selection under that layout.
    """
    env = Environment()
    net = Network(env)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client", "server", LinkSpec(latency=0.001, bandwidth=1e9)
    )
    server_rt = SimRuntime(net, "server")
    store = ObjectStore(clock=server_rt.now)
    store.put("/data/events", ZeroContent(meta.file_size))
    HttpServer(server_rt, StorageApp(store), port=80).start()
    runtime = SimRuntime(net, "client")
    context = Context()
    context.clock = runtime.now
    fetcher = DavixFetcher(context, "http://server/data/events")

    def op():
        for start, stop in windows:
            spans = meta.segments_for_entries(start, stop, names)
            yield from fetcher.fetch_vec(spans)
        return fetcher.bytes_fetched

    return runtime.run(op())


def test_columnar_scan(benchmark):
    spec = paper_dataset(scale=bench_scale())
    rng = random.Random(SEED)
    windows = sparse_windows(spec.n_entries, rng)
    sparse_rows = sum(stop - start for start, stop in windows)

    def run():
        out = {"full": {}, "sparse": {}}
        for label, config in scan_configs().items():
            report = run_scenario(
                Scenario(
                    profile=WAN,
                    protocol="davix",
                    spec=spec,
                    config=config,
                    seed=SEED,
                )
            )
            out["full"][label] = report
        v1_meta = generate_tree_layout(spec)
        v2_meta = generate_ntuple_layout(spec)
        out["sparse"]["v1-webdav"] = fetch_window_spans(
            v1_meta, windows, SPARSE_COLUMNS
        )
        out["sparse"]["v2-webdav"] = fetch_window_spans(
            v2_meta, windows, SPARSE_COLUMNS
        )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    full = results["full"]
    sparse = results["sparse"]
    full_events = max(r.events_read for r in full.values())
    full_floor = selected_bytes(spec, full_events, ())
    sparse_floor = selected_bytes(spec, sparse_rows, SPARSE_COLUMNS)

    rows = []
    for label, report in full.items():
        rows.append(
            [
                "full 10/10 cols",
                label,
                report.wall_seconds,
                report.bytes_fetched / 1e6,
                report.bytes_fetched / full_floor,
            ]
        )
    for label, fetched in sparse.items():
        rows.append(
            [
                f"sparse 2/10 cols x {WINDOW_COUNT}x{WINDOW_ROWS} rows",
                label,
                0.0,
                fetched / 1e6,
                fetched / sparse_floor,
            ]
        )
    emit(
        "columnar_scan",
        "COL-SCAN: v1 baskets vs v2 pages/clusters, WAN scan + sparse skim",
        ["selection", "format/backend", "time (s)", "MB fetched", "amp"],
        rows,
        note=(
            "v2 pages cut the sparse skim's wire bytes ~4x vs v1 "
            "baskets; 4 decode lanes overlap WAN refills with "
            "decompression on the full scan"
        ),
        params={
            "scale": bench_scale(),
            "profile": WAN.name,
            "seed": SEED,
            "fraction": 0.25,
            "sparse_columns": list(SPARSE_COLUMNS),
            "window_rows": WINDOW_ROWS,
            "window_count": WINDOW_COUNT,
        },
        configs={
            **{
                f"full-{label}": [report.wall_seconds]
                for label, report in full.items()
            },
            **{
                f"sparse-{label}-mb": [fetched / 1e6]
                for label, fetched in sparse.items()
            },
        },
    )

    if bench_scale() >= 0.9:
        # Read-amplification gate: v2 pages fetch <= 40 % of the bytes
        # v1 baskets fetch for the same sparse rows.
        assert sparse["v2-webdav"] <= 0.40 * sparse["v1-webdav"]
        # Cluster-parallel decode gate: 4 lanes beat 1 lane on the
        # WAN full scan.
        assert (
            full["v2-webdav-4lanes"].wall_seconds
            < full["v2-webdav-1lane"].wall_seconds
        )
