"""Chaos schedules for *concurrent* vectored reads.

Parallel batch dispatch must not trade determinism for speed: against a
seeded fault schedule (5xx errors, mid-body resets, slowdowns) the
scattered bytes stay identical to sequential dispatch, and repeating a
run (same seed, fresh world, ``FaultPolicy.reset()``) reproduces the
exported metrics and the injection counters byte-for-byte on the sim
runtime.
"""

import random

import pytest

from repro.core import (
    BreakerConfig,
    RequestParams,
    RetryPolicy,
    TransferConfig,
    vectored,
)
from repro.obs import metrics_to_json_lines
from repro.server import FaultPolicy

from tests.helpers import davix_world, retries

POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.05, max_delay=2.0, seed=1
)
BREAKER = BreakerConfig(threshold=50, cooldown=0.5)
N_VECTORED_READS = 8
BLOB = bytes((i * 53 + 29) % 256 for i in range(120_000))


@pytest.fixture(autouse=True)
def four_ranges_a_request(monkeypatch):
    monkeypatch.setattr(vectored, "MAX_VECTOR_RANGES", 4)


def schedule(schedule_seed):
    """The seeded read schedule: fragmented, batch-spanning reads."""
    rng = random.Random(schedule_seed)
    batches = []
    for _ in range(N_VECTORED_READS):
        batches.append(
            [
                (
                    rng.randrange(0, len(BLOB) - 4096),
                    rng.randrange(1, 2048),
                )
                for _ in range(rng.randrange(6, 20))
            ]
        )
    return batches


def run_schedule(schedule_seed, faults, max_inflight):
    """One chaos run; returns (scattered results, observables)."""
    client, app, store, _ = davix_world(
        faults=faults,
        params=RequestParams(
            retry_policy=POLICY,
            vector_gap=0,
            transfer=TransferConfig(max_inflight=max_inflight),
        ),
        breaker=BREAKER,
    )
    store.put("/data/blob", BLOB)
    results = [
        client.pread_vec("http://server/data/blob", reads)
        for reads in schedule(schedule_seed)
    ]
    observables = {
        "metrics": metrics_to_json_lines(client.metrics()),
        "retries": retries(client.context.metrics),
        "injected": faults.snapshot(),
        "inflight_gauge": client.metrics().value("vector.inflight"),
    }
    return results, observables


def make_faults(chaos_seed):
    return FaultPolicy(
        error_rate=0.15,
        reset_rate=0.05,
        slow_rate=0.1,
        slow_delay=0.2,
        seed=chaos_seed,
    )


def test_parallel_vec_chaos_bytes_match_sequential(chaos_seed):
    """Under an identical fault schedule, parallel dispatch returns the
    same bytes a sequential run does — and both are correct."""
    expected = [
        [BLOB[o : o + n] for o, n in reads]
        for reads in schedule(chaos_seed)
    ]
    faults = make_faults(chaos_seed)
    sequential, _ = run_schedule(chaos_seed, faults, max_inflight=1)
    faults.reset()
    parallel, parallel_obs = run_schedule(
        chaos_seed, faults, max_inflight=4
    )
    assert sequential == expected
    assert parallel == expected
    # Every batch lane drained: the gauge is back to zero.
    assert parallel_obs["inflight_gauge"] == 0


def test_parallel_vec_chaos_run_is_deterministic(chaos_seed):
    """Same seed + FaultPolicy.reset() => byte-identical metrics."""
    faults = make_faults(chaos_seed)
    first_results, first = run_schedule(
        chaos_seed, faults, max_inflight=4
    )
    faults.reset()
    second_results, second = run_schedule(
        chaos_seed, faults, max_inflight=4
    )
    assert first_results == second_results
    assert first == second
    # The sweep was actually chaotic on every seed.
    assert sum(first["injected"].values()) > 0


def test_parallel_vec_distinct_seeds_diverge():
    """The determinism above is not vacuous: different fault seeds
    leave different fingerprints."""
    fingerprints = set()
    for seed in (101, 202):
        faults = FaultPolicy(error_rate=0.3, seed=seed)
        _, obs = run_schedule(7, faults, max_inflight=4)
        fingerprints.add(
            (
                obs["retries"],
                tuple(sorted(obs["injected"].items())),
            )
        )
    assert len(fingerprints) == 2
