"""Unit tests for RetryPolicy / RetrySchedule determinism and bounds."""

import random

import pytest

from repro.core import RequestParams
from repro.resilience import (
    IDEMPOTENT_METHODS,
    RetryPolicy,
    is_idempotent,
)


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=2.0, max_delay=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter="full")


def test_max_attempts_one_never_retries():
    schedule = RetryPolicy(max_attempts=1).schedule()
    assert schedule.exhausted
    assert schedule.next_delay() is None
    assert schedule.retries == 0


def test_jitter_none_is_plain_exponential():
    policy = RetryPolicy(
        max_attempts=5,
        base_delay=0.1,
        max_delay=10.0,
        multiplier=2.0,
        jitter="none",
    )
    assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.8]


def test_jitter_none_caps_at_max_delay():
    policy = RetryPolicy(
        max_attempts=6,
        base_delay=1.0,
        max_delay=3.0,
        multiplier=10.0,
        jitter="none",
    )
    assert list(policy.delays()) == [1.0, 3.0, 3.0, 3.0, 3.0]


def test_zero_base_delay_means_immediate_retries():
    policy = RetryPolicy(
        max_attempts=4, base_delay=0.0, multiplier=1.0, jitter="none"
    )
    assert list(policy.delays()) == [0.0, 0.0, 0.0]


def test_decorrelated_delays_stay_within_bounds():
    policy = RetryPolicy(
        max_attempts=50,
        base_delay=0.05,
        max_delay=5.0,
        multiplier=3.0,
        seed=7,
    )
    delays = list(policy.delays())
    assert len(delays) == 49
    assert all(0.05 <= d <= 5.0 for d in delays)
    # Jitter means the sequence is not monotone-deterministic.
    assert len(set(delays)) > 1


def test_same_seed_same_delays():
    policy = RetryPolicy(max_attempts=10, seed=42)
    assert list(policy.delays()) == list(policy.delays())
    other = RetryPolicy(max_attempts=10, seed=43)
    assert list(policy.delays()) != list(other.delays())


def test_injected_rng_is_consumed_in_order():
    """Two schedules sharing one RNG continue its stream; replaying the
    stream from the same seed reproduces the concatenated delays."""
    policy = RetryPolicy(max_attempts=3, seed=5)
    shared = random.Random(99)
    first = list(policy.delays(shared)) + list(policy.delays(shared))
    replay = random.Random(99)
    second = list(policy.delays(replay)) + list(policy.delays(replay))
    assert first == second


def test_schedule_exhaustion_is_sticky():
    schedule = RetryPolicy(max_attempts=3, jitter="none").schedule()
    assert schedule.next_delay() is not None
    assert schedule.next_delay() is not None
    assert schedule.exhausted
    assert schedule.next_delay() is None
    assert schedule.next_delay() is None
    assert schedule.retries == 2


def test_idempotent_methods():
    for method in ("GET", "HEAD", "PUT", "DELETE", "PROPFIND", "MKCOL"):
        assert is_idempotent(method)
        assert method in IDEMPOTENT_METHODS
    assert is_idempotent("get")  # case-insensitive
    assert not is_idempotent("POST")
    assert not is_idempotent("MOVE")
    assert not is_idempotent("COPY")


def test_default_policy_is_one_immediate_retry():
    policy = RequestParams().retry_policy
    assert policy.max_attempts == 2
    assert policy.jitter == "none"
    assert list(policy.delays()) == [0.0]
