"""Tests for the analysis job, scenario runner and campaign."""

from dataclasses import replace

import pytest

from repro.net.profiles import GEANT, LAN, WAN, NetProfile
from repro.net.link import LinkSpec
from repro.rootio.generator import BranchSpec, DatasetSpec, paper_dataset
from repro.workloads import (
    AnalysisConfig,
    Campaign,
    Scenario,
    run_scenario,
)

from tests.helpers import traced_peak


def tiny_spec(n_entries=600):
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


def fast_cfg(**overrides):
    base = dict(per_event_cpu=0.0002, learn_entries=0)
    base.update(overrides)
    return AnalysisConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(fraction=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(fraction=1.5)
    with pytest.raises(ValueError):
        AnalysisConfig(per_event_cpu=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(decompress_bandwidth=0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(
            profile=LAN,
            protocol="ftp",
            spec=tiny_spec(),
            config=fast_cfg(),
        )


def test_davix_scenario_layout_mode():
    report = run_scenario(
        Scenario(
            profile=LAN,
            protocol="davix",
            spec=tiny_spec(),
            config=fast_cfg(),
        )
    )
    assert report.protocol == "davix"
    assert report.events_read == 600
    assert report.refills == 6  # 600 entries / 100-entry clusters
    assert report.vector_reads == 6
    assert report.wall_seconds > 0
    assert report.bytes_fetched > 0


def test_xrootd_scenario_layout_mode():
    report = run_scenario(
        Scenario(
            profile=LAN,
            protocol="xrootd",
            spec=tiny_spec(),
            config=fast_cfg(),
        )
    )
    assert report.protocol == "xrootd"
    assert report.events_read == 600
    assert report.refills == 6


def test_materialized_run_decodes_real_data():
    report = run_scenario(
        Scenario(
            profile=LAN,
            protocol="davix",
            spec=tiny_spec(),
            config=fast_cfg(decode=True),
            materialize=True,
        )
    )
    assert report.events_read == 600


def test_materialized_and_layout_bytes_are_close():
    layout = run_scenario(
        Scenario(
            profile=LAN, protocol="davix",
            spec=tiny_spec(), config=fast_cfg(),
        )
    )
    real = run_scenario(
        Scenario(
            profile=LAN, protocol="davix",
            spec=tiny_spec(), config=fast_cfg(decode=True),
            materialize=True,
        )
    )
    assert layout.bytes_fetched == pytest.approx(
        real.bytes_fetched, rel=0.35
    )


def test_fraction_limits_events_and_time():
    full = run_scenario(
        Scenario(
            profile=LAN, protocol="davix",
            spec=tiny_spec(), config=fast_cfg(fraction=1.0),
        )
    )
    half = run_scenario(
        Scenario(
            profile=LAN, protocol="davix",
            spec=tiny_spec(), config=fast_cfg(fraction=0.5),
        )
    )
    assert half.events_read == 300
    assert half.wall_seconds < full.wall_seconds
    assert half.refills == 3


def test_learning_phase_counted():
    report = run_scenario(
        Scenario(
            profile=LAN, protocol="davix",
            spec=tiny_spec(), config=fast_cfg(learn_entries=100),
        )
    )
    assert report.single_reads == 2  # 2 branches x 1 basket
    assert report.vector_reads == 5


def test_latency_increases_execution_time():
    times = {}
    for profile in (LAN, WAN):
        report = run_scenario(
            Scenario(
                profile=profile, protocol="davix",
                spec=tiny_spec(), config=fast_cfg(),
            )
        )
        times[profile.name] = report.wall_seconds
    # 6 refills x ~0.28 s RTT difference must show up.
    assert times["wan"] > times["lan"] + 1.0


def test_xrootd_readahead_option_reduces_time_at_high_latency():
    base = fast_cfg(per_event_cpu=0.01)  # compute to overlap with
    with_ra = run_scenario(
        Scenario(
            profile=WAN, protocol="xrootd", spec=tiny_spec(),
            config=base.replace(xrootd_readahead=4 * 1024 * 1024),
        )
    )
    without = run_scenario(
        Scenario(
            profile=WAN, protocol="xrootd", spec=tiny_spec(),
            config=base,
        )
    )
    assert with_ra.wall_seconds < without.wall_seconds


def test_readahead_wan_job_peaks_near_its_window():
    """The paper-size WAN job with a 32 MB davix read-ahead window (the
    benchmark's ``sim_wan_readahead`` unit): traced memory peaks at no
    more than 1.6 windows above its base. The window is what must be
    resident; a response the client already has, kept by an idle
    server connection, or a part already served, kept by the engine,
    is not (with both, the peak was 2.38 windows)."""
    window = 32_000_000
    scenario = Scenario(
        profile=WAN,
        protocol="davix",
        spec=replace(paper_dataset(1.0), seed=42),
        config=AnalysisConfig(fraction=0.1, davix_readahead=window),
        seed=42,
    )
    report, peak, _ = traced_peak(lambda: run_scenario(scenario))
    assert report.bytes_fetched > 2 * window
    assert peak <= 1.6 * window


def test_seed_determinism_and_jitter_variation():
    def run(seed):
        return run_scenario(
            Scenario(
                profile=GEANT, protocol="davix",
                spec=tiny_spec(), config=fast_cfg(), seed=seed,
            )
        ).wall_seconds

    assert run(5) == run(5)
    assert run(5) != run(6)  # jitter differs per seed


def test_campaign_matrix_shapes():
    campaign = Campaign(
        spec=tiny_spec(300),
        config=fast_cfg(),
        repetitions=3,
        base_seed=10,
    )
    results = campaign.run_matrix([LAN], protocols=("davix", "xrootd"))
    assert set(results) == {("davix", "lan"), ("xrootd", "lan")}
    cell = results[("davix", "lan")]
    assert len(cell.reports) == 3
    assert cell.minimum <= cell.mean <= cell.maximum
    assert cell.stdev >= 0


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(spec=tiny_spec(), config=fast_cfg(), repetitions=0)


def test_paper_shape_holds():
    """The headline result (on 20 % of the events to keep the test
    quick): parity on LAN, XRootD clearly ahead on the WAN. The
    window-limit mechanism needs full-size clusters, hence scale 1."""
    spec = paper_dataset(scale=1.0)
    cfg = AnalysisConfig(fraction=0.2)
    out = {}
    for profile in (LAN, WAN):
        for protocol in ("davix", "xrootd"):
            report = run_scenario(
                Scenario(
                    profile=profile, protocol=protocol,
                    spec=spec, config=cfg,
                )
            )
            out[(profile.name, protocol)] = report.wall_seconds
    # WAN: xrootd must be clearly faster (window-limited HTTP).
    assert out[("wan", "davix")] > out[("wan", "xrootd")] * 1.05
    # LAN: near parity.
    ratio = out[("lan", "davix")] / out[("lan", "xrootd")]
    assert 0.9 < ratio < 1.1


def test_results_to_csv():
    from repro.workloads import results_to_csv

    campaign = Campaign(
        spec=tiny_spec(200), config=fast_cfg(), repetitions=2
    )
    results = campaign.run_matrix([LAN], protocols=("davix",))
    csv = results_to_csv(results)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("protocol,profile,repetition")
    assert len(lines) == 3  # header + 2 repetitions
    assert lines[1].startswith("davix,lan,0,")
    fields = lines[1].split(",")
    assert float(fields[3]) > 0
    assert int(fields[4]) == 200


def test_if_modified_since_304():
    from repro.http import Headers
    from repro.http.dates import format_http_date
    from tests.helpers import davix_world, get, one_request

    client, app, store, server_rt = davix_world()
    store.put("/x", b"cached")
    mtime = store.get("/x").mtime
    response = client.runtime.run(
        one_request(
            ("server", 80),
            get(
                "/x",
                Headers(
                    [("If-Modified-Since", format_http_date(mtime + 10))]
                ),
            ),
        )
    )
    assert response.status == 304
    fresh = client.runtime.run(
        one_request(
            ("server", 80),
            get(
                "/x",
                Headers(
                    [("If-Modified-Since", format_http_date(mtime - 10))]
                ),
            ),
        )
    )
    assert fresh.status == 200
