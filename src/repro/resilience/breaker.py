"""Per-endpoint circuit breaking: closed -> open -> half-open.

A replica that answers every request with 503 (or resets every
connection) should not cost each new operation a full connect + retry
cycle: after ``threshold`` consecutive failures the endpoint's breaker
*opens* and requests to it are short-circuited with
:class:`~repro.errors.CircuitOpenError` — which the fail-over driver
treats like any other connection failure, so traffic moves to healthy
replicas without burning the backoff window on a known-dead host.

After ``cooldown`` seconds the breaker becomes *half-open*: one probe
request is let through; its success closes the breaker, its failure
re-opens it for another cooldown.

The :class:`BreakerBoard` owns one :class:`CircuitBreaker` per origin
``(scheme, host, port)``, mirrors every transition into the metrics
registry and keeps an ordered transition log — the chaos suite asserts
breaker behaviour against golden transition sequences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker", "BreakerBoard"]


class BreakerState:
    """The three breaker states, as string constants."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs of one circuit breaker (shared by every origin on a board)."""

    #: Consecutive failures that open the breaker.
    threshold: int = 5
    #: Seconds an open breaker rejects requests before probing.
    cooldown: float = 30.0

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


class CircuitBreaker:
    """Failure-counting state machine for one endpoint.

    Not thread-safe on its own; the owning :class:`BreakerBoard`
    serialises access.
    """

    def __init__(
        self,
        config: BreakerConfig,
        clock: Callable[[], float],
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        self.config = config
        self.clock = clock
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: A half-open breaker's one probe is out.
        self._probing = False
        self._on_transition = on_transition

    def _transition(self, to: str) -> None:
        if to == self.state:
            return
        previous, self.state = self.state, to
        if self._on_transition is not None:
            self._on_transition(previous, to)

    def allow(self) -> bool:
        """May a request be sent to this endpoint right now?

        While half-open this *claims* the one probe; the caller must
        report the probe's outcome via :meth:`on_success` /
        :meth:`on_failure`.
        """
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if (
                self.opened_at is not None
                and self.clock() - self.opened_at >= self.config.cooldown
            ):
                self._transition(BreakerState.HALF_OPEN)
                self._probing = False
            else:
                return False
        # half-open: admit one probe.
        if self._probing:
            return False
        self._probing = True
        return True

    @property
    def blocked(self) -> bool:
        """Non-mutating check: would a request be rejected right now?

        Unlike :meth:`allow` this never claims the probe, so replica
        selection can skip open breakers without consuming the probe of
        a half-open one.
        """
        if self.state == BreakerState.CLOSED:
            return False
        if self.state == BreakerState.OPEN:
            return (
                self.opened_at is None
                or self.clock() - self.opened_at < self.config.cooldown
            )
        return self._probing

    def on_success(self) -> None:
        """Record a completed request against this endpoint."""
        self.consecutive_failures = 0
        if self.state == BreakerState.HALF_OPEN:
            self._probing = False
            self._transition(BreakerState.CLOSED)
            self.opened_at = None

    def on_failure(self) -> None:
        """Record a failed request against this endpoint."""
        self.consecutive_failures += 1
        if self.state == BreakerState.HALF_OPEN:
            self._probing = False
            self.opened_at = self.clock()
            self._transition(BreakerState.OPEN)
        elif (
            self.state == BreakerState.CLOSED
            and self.consecutive_failures >= self.config.threshold
        ):
            self.opened_at = self.clock()
            self._transition(BreakerState.OPEN)


class BreakerBoard:
    """One :class:`CircuitBreaker` per origin, with shared wiring.

    The board serialises access (safe under the thread runtime), feeds
    ``breaker.*`` metrics into the registry it is given, appends every
    state change to :attr:`transitions`, and invokes ``on_open`` when a
    breaker opens — the :class:`~repro.core.context.Context` wires that
    to :meth:`~repro.core.pool.SessionPool.purge_origin`, so a broken
    endpoint's idle keep-alive sessions are dropped with it.
    """

    def __init__(
        self,
        metrics,
        config: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = None,
        on_open: Optional[Callable[[Tuple], None]] = None,
    ):
        #: The :class:`~repro.obs.MetricsRegistry` ``breaker.*`` lands in.
        self.metrics = metrics
        self.config = config or BreakerConfig()
        self.clock = clock or (lambda: 0.0)
        self.on_open = on_open
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple, CircuitBreaker] = {}
        #: Ordered log of ``(time, origin, from_state, to_state)``.
        self.transitions: List[Tuple[float, Tuple, str, str]] = []

    def _breaker(self, origin: Tuple) -> CircuitBreaker:
        breaker = self._breakers.get(origin)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config,
                self.clock,
                on_transition=lambda prev, to, origin=origin: (
                    self._record_transition(origin, prev, to)
                ),
            )
            self._breakers[origin] = breaker
        return breaker

    def _record_transition(self, origin: Tuple, prev: str, to: str) -> None:
        self.transitions.append((self.clock(), origin, prev, to))
        self.metrics.counter("breaker.transitions_total", to=to).inc()
        self.metrics.gauge("breaker.open_circuits").set(
            sum(
                1
                for b in self._breakers.values()
                if b.state == BreakerState.OPEN
            )
        )
        if to == BreakerState.OPEN and self.on_open is not None:
            self.on_open(origin)

    # -- request-path API -----------------------------------------------------

    def allow(self, origin: Tuple) -> bool:
        """Admission check (claims a half-open breaker's probe)."""
        with self._lock:
            allowed = self._breaker(origin).allow()
        if not allowed:
            self.metrics.counter("breaker.short_circuits_total").inc()
        return allowed

    def is_blocked(self, origin: Tuple) -> bool:
        """Non-mutating: is the origin currently rejecting requests?"""
        with self._lock:
            breaker = self._breakers.get(origin)
            return breaker.blocked if breaker is not None else False

    def record(self, origin: Tuple, ok: bool) -> None:
        """Feed one request outcome into the origin's breaker."""
        with self._lock:
            breaker = self._breaker(origin)
            if ok:
                breaker.on_success()
            else:
                breaker.on_failure()

    # -- read side ------------------------------------------------------------

    def state(self, origin: Tuple) -> str:
        """The origin's current state (closed when never seen)."""
        with self._lock:
            breaker = self._breakers.get(origin)
            return breaker.state if breaker else BreakerState.CLOSED

    def states(self) -> Dict[Tuple, str]:
        """Snapshot of every tracked origin's state."""
        with self._lock:
            return {
                origin: breaker.state
                for origin, breaker in self._breakers.items()
            }

    def reset(self) -> None:
        """Forget every breaker and the transition log."""
        with self._lock:
            self._breakers.clear()
            self.transitions.clear()
