"""Property-based chaos schedules against fault-wearing servers.

For each seed of the chaos sweep a random-but-seeded operation schedule
(GETs, positional reads, vectored reads, PUTs, stats) runs against a
server injecting 5xx errors, mid-body resets and slowdowns. The suite
asserts *convergence* — every operation completes with the right bytes
despite the faults — and *determinism* — repeating the run (same seeds,
fresh world, ``FaultPolicy.reset()``) reproduces the retry counts, the
breaker transition log and the exported metrics byte-for-byte.
"""

import random

from repro.core import BreakerConfig, RequestParams, RetryPolicy
from repro.obs import metrics_to_json_lines
from repro.server import FaultPolicy

from tests.helpers import davix_world

#: Generous budget: convergence, not tail-latency, is under test.
POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.05, max_delay=2.0, seed=1
)
#: High threshold so the single-origin world never short-circuits —
#: breaker behaviour has its own tests and the failover chaos below.
BREAKER = BreakerConfig(threshold=50, cooldown=0.5)
N_OPS = 25
BLOB = bytes((i * 37 + 11) % 256 for i in range(60_000))


def run_schedule(schedule_seed, faults):
    """One chaos run; returns its full observable outcome."""
    client, app, store, _ = davix_world(
        faults=faults,
        params=RequestParams(retry_policy=POLICY),
        breaker=BREAKER,
    )
    store.put("/data/blob", BLOB)
    rng = random.Random(schedule_seed)
    for step in range(N_OPS):
        op = rng.choice(("get", "pread", "vec", "stat", "put"))
        if op == "get":
            assert client.get("http://server/data/blob") == BLOB
        elif op == "pread":
            offset = rng.randrange(0, len(BLOB) - 1)
            length = rng.randrange(1, 4096)
            want = BLOB[offset : offset + length]
            assert client.pread(
                "http://server/data/blob", offset, length
            ) == want
        elif op == "vec":
            reads = [
                (
                    rng.randrange(0, len(BLOB) - 4096),
                    rng.randrange(1, 2048),
                )
                for _ in range(rng.randrange(2, 9))
            ]
            chunks = client.pread_vec("http://server/data/blob", reads)
            assert chunks == [BLOB[o : o + n] for o, n in reads]
        elif op == "stat":
            assert client.stat(
                "http://server/data/blob"
            ).size == len(BLOB)
        else:
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 2000))
            )
            path = f"/data/w{step}"
            client.put(f"http://server{path}", payload)
            assert store.read(path) == payload
    return {
        "metrics": metrics_to_json_lines(client.metrics()),
        "transitions": tuple(client.breakers().transitions),
        "retries": client.context.metrics.value("client.retries_total"),
        "injected": faults.snapshot(),
    }


def test_chaos_schedule_converges_and_repeats(chaos_seed):
    faults = FaultPolicy(
        error_rate=0.15,
        reset_rate=0.05,
        slow_rate=0.1,
        slow_delay=0.2,
        seed=chaos_seed,
    )
    first = run_schedule(chaos_seed, faults)
    # Same policy instance, rewound: the second world must see the
    # exact same fault schedule (the FaultPolicy.reset() contract).
    faults.reset()
    second = run_schedule(chaos_seed, faults)

    assert first == second
    # The run was actually chaotic: faults fired and were absorbed.
    assert sum(first["injected"].values()) > 0
    assert first["retries"] > 0


def test_distinct_fault_seeds_diverge():
    """Different fault schedules leave different fingerprints —
    the determinism above is not vacuous."""
    outcomes = set()
    for seed in (101, 202):
        faults = FaultPolicy(error_rate=0.3, seed=seed)
        outcome = run_schedule(7, faults)
        outcomes.add((outcome["retries"], tuple(sorted(
            outcome["injected"].items()
        ))))
    assert len(outcomes) == 2
