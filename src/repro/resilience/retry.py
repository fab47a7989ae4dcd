"""Retry policies: bounded attempts with deterministic backoff.

The paper's reliability story (Section 2.4) is replica fail-over; real
deployments layer *retry with backoff* underneath it, because most grid
failures are transient (an overloaded DPM pool node, a dropped
keep-alive connection). This module provides the policy object the
whole request path shares:

* :class:`RetryPolicy` — an immutable description: how many attempts,
  how the per-attempt delay grows, how it is jittered;
* :class:`RetrySchedule` — one policy *instance* for one logical
  operation, consuming an injected :class:`random.Random` so every
  delay sequence is reproducible from a seed.

Jitter follows the "decorrelated jitter" scheme (each delay is drawn
from ``[base, prev * multiplier]``, capped), which spreads synchronized
clients apart while keeping the expected delay exponential. With
``jitter="none"`` the schedule degrades to plain exponential backoff —
and with ``multiplier=1`` to a fixed delay (the ``RequestParams``
default is that with a zero delay: one immediate retry).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "IDEMPOTENT_METHODS",
    "is_idempotent",
    "RetryPolicy",
    "RetrySchedule",
]

#: Methods whose repetition cannot change server state a second time
#: (RFC 7231 §4.2.2 plus the WebDAV read-side verbs davix uses).
IDEMPOTENT_METHODS = frozenset(
    {
        "GET",
        "HEAD",
        "PUT",
        "DELETE",
        "OPTIONS",
        "PROPFIND",
        "MKCOL",
        "TRACE",
    }
)


def is_idempotent(method: str) -> bool:
    """True when retrying ``method`` after a partial exchange is safe."""
    return method.upper() in IDEMPOTENT_METHODS


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable retry/backoff description.

    ``max_attempts`` counts *total* tries, so ``max_attempts=1`` means
    "never retry". Delays start at ``base_delay`` and grow towards
    ``max_delay``; with decorrelated jitter each delay is drawn
    uniformly from ``[base_delay, previous * multiplier]``.
    """

    #: Total attempts (first try included); >= 1.
    max_attempts: int = 3
    #: First (and minimum) backoff delay, seconds.
    base_delay: float = 0.05
    #: Upper bound on any single delay, seconds.
    max_delay: float = 5.0
    #: Growth factor between attempts.
    multiplier: float = 3.0
    #: ``"decorrelated"`` (jittered) or ``"none"`` (deterministic
    #: exponential growth without randomness).
    jitter: str = "decorrelated"
    #: Seed for the schedule RNG when none is injected.
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter not in ("decorrelated", "none"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}")

    def schedule(self, rng: Optional[random.Random] = None) -> "RetrySchedule":
        """A fresh :class:`RetrySchedule` for one logical operation.

        ``rng`` lets callers share one deterministic stream across many
        operations (the :class:`~repro.core.context.Context` does this);
        without it a new ``random.Random(seed)`` is created, so two
        schedules from the same policy produce identical delays.
        """
        return RetrySchedule(
            self, rng if rng is not None else random.Random(self.seed)
        )

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The backoff delays this policy would produce, for inspection."""
        schedule = self.schedule(rng)
        while True:
            delay = schedule.next_delay()
            if delay is None:
                return
            yield delay


class RetrySchedule:
    """Mutable per-operation state of one :class:`RetryPolicy`.

    ``next_delay()`` returns the backoff to sleep before the *next*
    attempt, or ``None`` once the attempt budget is spent. The first
    call corresponds to the first retry (the initial attempt needs no
    delay).
    """

    def __init__(self, policy: RetryPolicy, rng: random.Random):
        self.policy = policy
        self._rng = rng
        #: Retries handed out so far (not counting the initial attempt).
        self.retries = 0
        self._prev = policy.base_delay

    @property
    def exhausted(self) -> bool:
        return self.retries >= self.policy.max_attempts - 1

    def next_delay(self) -> Optional[float]:
        """Delay before the next attempt; None when out of attempts."""
        if self.exhausted:
            return None
        self.retries += 1
        policy = self.policy
        if policy.base_delay == 0 and policy.jitter == "none":
            return 0.0
        if policy.jitter == "none":
            delay = min(
                policy.max_delay,
                policy.base_delay
                * (policy.multiplier ** (self.retries - 1)),
            )
        else:
            upper = max(policy.base_delay, self._prev * policy.multiplier)
            delay = min(
                policy.max_delay,
                self._rng.uniform(policy.base_delay, upper),
            )
        self._prev = delay
        return delay
