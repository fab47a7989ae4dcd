"""ABL-RA — extension: client-level sliding-window read-ahead.

Beyond the paper: both implemented clients run one *application-level*
plan-driven read-ahead, the pipelined transfer engine
(:mod:`repro.core.engine`), over their own wire — an HTTP multi-range
GET or an XRootD ``kXR_readv`` per speculative batch. With enough
window either side overlaps the refill transfers with per-event
compute entirely, pushing the WAN job toward the compute-bound floor —
the upper bound of what "minimizing the number of network round trips"
can buy. The sweep ablates the window size for both protocols on the
WAN profile; with one policy on both sides, a gap between the rows is
the wire's, not the read-ahead's.
"""

from repro.net.profiles import LAN, WAN
from repro.rootio.generator import paper_dataset
from repro.workloads import AnalysisConfig, Scenario, run_scenario

from _util import bench_scale, emit

WINDOWS = (None, 2_000_000, 8_000_000, 32_000_000)
PROTOCOLS = ("davix", "xrootd")


def label_of(window):
    return "off (paper cfg)" if window is None else f"{window // 1_000_000} MB"


def config_for(protocol, window):
    knob = (
        {"davix_readahead": window}
        if protocol == "davix"
        else {"xrootd_readahead": window}
    )
    return AnalysisConfig(fraction=0.25, **knob)


def test_ablation_readahead(benchmark):
    spec = paper_dataset(scale=bench_scale())

    def run():
        out = {}
        for protocol in PROTOCOLS:
            for window in WINDOWS:
                report = run_scenario(
                    Scenario(
                        profile=WAN,
                        protocol=protocol,
                        spec=spec,
                        config=config_for(protocol, window),
                        seed=29,
                    )
                )
                out[(protocol, window)] = report.wall_seconds
            # Compute-bound floor: the LAN run (no meaningful stalls).
            out[(protocol, "floor")] = run_scenario(
                Scenario(
                    profile=LAN,
                    protocol=protocol,
                    spec=spec,
                    config=AnalysisConfig(fraction=0.25),
                    seed=29,
                )
            ).wall_seconds
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for protocol in PROTOCOLS:
        name = "HTTP" if protocol == "davix" else "XRootD"
        for window in WINDOWS:
            rows.append(
                [name, label_of(window), results[(protocol, window)]]
            )
        rows.append(
            [name, "LAN floor (compute-bound)", results[(protocol, "floor")]]
        )
    emit(
        "ablation_readahead",
        "ABL-RA: WAN job (25% of events) vs read-ahead window, both protocols",
        ["protocol", "read-ahead window", "time (s)"],
        rows,
        note=(
            "a large enough window hides the WAN refills behind "
            "compute, approaching the LAN floor — one transfer engine "
            "over both wires, with an HTTP multi-range GET or a "
            "kXR_readv per speculative batch"
        ),
        params={
            "windows": [w for w in WINDOWS if w is not None],
            "fraction": 0.25,
            "profile": WAN.name,
            "scale": bench_scale(),
            "seed": 29,
        },
        configs={
            f"{protocol}-{'floor' if window == 'floor' else label_of(window)}": [
                results[(protocol, window)]
            ]
            for protocol in PROTOCOLS
            for window in (*WINDOWS, "floor")
        },
    )

    if bench_scale() >= 0.9:
        for protocol in PROTOCOLS:
            off = results[(protocol, None)]
            wide = results[(protocol, 32_000_000)]
            assert wide < off
            # Large window lands within 15% of the compute-bound floor.
            assert wide < results[(protocol, "floor")] * 1.15
