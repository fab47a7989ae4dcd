"""The PR's acceptance criterion, as a test.

A client with ``RetryPolicy(max_attempts=4)`` runs the paper's
Section 3 analysis workload against a storage server injecting
``error_rate=0.3`` / ``reset_rate=0.1`` faults from a fixed seed. The
job must complete with **zero user-visible errors**, and repeating the
run must be byte-identical: same report, same retry counts, same
breaker transitions, same exported metrics.
"""

from dataclasses import asdict

from repro.core import BreakerConfig, Context, RequestParams, RetryPolicy
from repro.net.profiles import LAN
from repro.obs import metrics_to_json_lines
from repro.rootio.generator import BranchSpec, DatasetSpec
from repro.server import FaultPolicy
from repro.workloads import AnalysisConfig, Scenario, run_scenario

#: Chosen once: with this schedule the workload sees several faults of
#: both kinds yet recovers inside the 4-attempt budget.
FAULT_SEED = 7

SPEC = DatasetSpec(
    name="hep_events",
    n_entries=600,
    branches=(
        BranchSpec("a", event_size=512, compress_ratio=0.5),
        BranchSpec("b", event_size=256, compress_ratio=0.5),
    ),
    basket_entries=100,
    seed=3,
)
CFG = AnalysisConfig(per_event_cpu=0.0002, learn_entries=0)
PARAMS = RequestParams(
    retry_policy=RetryPolicy(
        max_attempts=4, base_delay=0.05, max_delay=1.0, seed=2
    )
)
BREAKER = BreakerConfig(threshold=10, cooldown=0.5)


def run_once(faults):
    context = Context(params=PARAMS, breaker=BREAKER)
    report = run_scenario(
        Scenario(
            profile=LAN,
            protocol="davix",
            spec=SPEC,
            config=CFG,
            faults=faults,
            params=PARAMS,
        ),
        context=context,
    )
    return report, context


def test_analysis_completes_under_faults_and_repeats_exactly():
    faults = FaultPolicy(error_rate=0.3, reset_rate=0.1, seed=FAULT_SEED)
    report_a, ctx_a = run_once(faults)
    faults.reset()
    report_b, ctx_b = run_once(faults)

    # Zero user-visible errors: run_once returned, all events read.
    assert report_a.events_read == SPEC.n_entries

    # The run was genuinely chaotic, and retries absorbed every fault.
    injected = faults.snapshot()
    assert injected["error"] > 0
    assert injected["reset"] > 0
    assert ctx_a.metrics.value("client.retries_total") > 0

    # Byte-identical repeats.
    assert asdict(report_a) == asdict(report_b)
    assert ctx_a.metrics.value("client.retries_total") == ctx_b.metrics.value(
        "client.retries_total"
    )
    assert ctx_a.breakers.transitions == ctx_b.breakers.transitions
    assert metrics_to_json_lines(ctx_a.metrics) == metrics_to_json_lines(
        ctx_b.metrics
    )


def test_fresh_fault_policy_matches_reset_one():
    """reset() is equivalent to constructing a new policy."""
    recycled = FaultPolicy(
        error_rate=0.3, reset_rate=0.1, seed=FAULT_SEED
    )
    run_once(recycled)  # first life: advances RNG and counters
    recycled.reset()
    report_a, _ = run_once(recycled)  # second life, post-reset
    fresh = FaultPolicy(error_rate=0.3, reset_rate=0.1, seed=FAULT_SEED)
    report_b, _ = run_once(fresh)
    assert asdict(report_a) == asdict(report_b)
    assert recycled.snapshot() == fresh.snapshot()
