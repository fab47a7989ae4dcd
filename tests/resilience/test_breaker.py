"""Circuit-breaker state machine and board tests (golden transitions)."""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


ORIGIN = ("http", "site0", 80)


def test_config_validation():
    with pytest.raises(ValueError):
        BreakerConfig(threshold=0)
    with pytest.raises(ValueError):
        BreakerConfig(cooldown=-1)


def test_closed_until_threshold_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(BreakerConfig(threshold=3), clock)
    breaker.on_failure()
    breaker.on_failure()
    assert breaker.state == BreakerState.CLOSED
    assert breaker.allow()
    # A success resets the consecutive count.
    breaker.on_success()
    breaker.on_failure()
    breaker.on_failure()
    assert breaker.state == BreakerState.CLOSED
    breaker.on_failure()
    assert breaker.state == BreakerState.OPEN
    assert not breaker.allow()
    assert breaker.blocked


def test_half_open_probe_after_cooldown_then_close():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(threshold=1, cooldown=10.0), clock
    )
    breaker.on_failure()
    assert breaker.state == BreakerState.OPEN
    clock.t = 9.9
    assert not breaker.allow()
    clock.t = 10.0
    assert breaker.allow()  # the probe
    assert breaker.state == BreakerState.HALF_OPEN
    breaker.on_success()
    assert breaker.state == BreakerState.CLOSED
    assert breaker.allow()


def test_half_open_failure_reopens_for_another_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(threshold=1, cooldown=10.0), clock
    )
    breaker.on_failure()
    clock.t = 10.0
    assert breaker.allow()
    breaker.on_failure()
    assert breaker.state == BreakerState.OPEN
    clock.t = 19.0  # cooldown restarts from the probe failure
    assert not breaker.allow()
    clock.t = 20.0
    assert breaker.allow()


def test_half_open_probe_budget_is_bounded():
    clock = FakeClock()
    breaker = CircuitBreaker(BreakerConfig(threshold=1, cooldown=1.0), clock)
    breaker.on_failure()
    clock.t = 1.0
    assert breaker.allow()
    assert not breaker.allow()  # the one probe is out
    assert breaker.blocked


def test_board_golden_transition_sequence():
    """The canonical lifecycle, as the chaos suite asserts it:
    closed -> open -> half_open -> closed."""
    clock = FakeClock()
    board = BreakerBoard(
        MetricsRegistry(),
        config=BreakerConfig(threshold=2, cooldown=5.0),
        clock=clock,
    )
    assert board.state(ORIGIN) == BreakerState.CLOSED
    board.record(ORIGIN, ok=False)
    clock.t = 1.0
    board.record(ORIGIN, ok=False)  # opens
    clock.t = 6.0
    assert board.allow(ORIGIN)  # half-open probe
    board.record(ORIGIN, ok=True)  # closes

    assert board.transitions == [
        (1.0, ORIGIN, "closed", "open"),
        (6.0, ORIGIN, "open", "half_open"),
        (6.0, ORIGIN, "half_open", "closed"),
    ]
    assert board.state(ORIGIN) == BreakerState.CLOSED


def test_board_metrics_and_short_circuits():
    clock = FakeClock()
    registry = MetricsRegistry()
    board = BreakerBoard(
        registry,
        config=BreakerConfig(threshold=1, cooldown=60.0),
        clock=clock,
    )
    board.record(ORIGIN, ok=False)
    assert not board.allow(ORIGIN)
    assert not board.allow(ORIGIN)
    assert registry.counter("breaker.transitions_total", to="open").value == 1
    assert registry.gauge("breaker.open_circuits").value == 1
    assert registry.counter("breaker.short_circuits_total").value == 2


def test_board_is_blocked_never_claims_probe_slots():
    clock = FakeClock()
    board = BreakerBoard(
        MetricsRegistry(),
        config=BreakerConfig(threshold=1, cooldown=1.0),
        clock=clock,
    )
    board.record(ORIGIN, ok=False)
    clock.t = 1.0
    # Any number of non-mutating checks...
    for _ in range(5):
        assert not board.is_blocked(ORIGIN)
    # ...leaves the one probe available.
    assert board.allow(ORIGIN)
    assert board.is_blocked(ORIGIN)  # probe now claimed
    board.record(ORIGIN, ok=True)
    assert not board.is_blocked(ORIGIN)


def test_board_on_open_callback_and_reset():
    opened = []
    board = BreakerBoard(
        MetricsRegistry(),
        config=BreakerConfig(threshold=1),
        on_open=opened.append,
    )
    board.record(ORIGIN, ok=False)
    assert opened == [ORIGIN]
    board.reset()
    assert board.transitions == []
    assert board.state(ORIGIN) == BreakerState.CLOSED
    assert board.allow(ORIGIN)


def test_unknown_origin_is_closed_and_unblocked():
    board = BreakerBoard(MetricsRegistry())
    assert board.state(ORIGIN) == BreakerState.CLOSED
    assert not board.is_blocked(ORIGIN)
    assert board.states() == {}


def test_context_wires_breaker_open_to_pool_purge():
    from repro.core import Context

    context = Context(breaker=BreakerConfig(threshold=1))
    assert context.breakers.on_open == context.pool.purge_origin
