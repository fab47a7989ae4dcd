"""Per-origin SLO and error-budget verdicts, folded from wide events.

HammerCloud's verdict on a site is not a mean — it is "did the site
meet its objectives over the run", mined from the logs after the run.
An :class:`SloPolicy` states the objectives (availability, and a
latency threshold a given fraction of requests must beat);
:func:`slo_verdicts` folds the client ``request`` wide events of a run
into one verdict per origin, with the remaining error budget. Nothing
is tallied while requests run: the event log is the one record.

Error budget: with an availability objective of 99 %, 1 % of requests
may fail — the *budget*. ``budget_remaining`` is the unspent fraction
of it (1.0 = untouched, 0.0 = exhausted, negative = overspent), the
number operators page on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["SloPolicy", "slo_verdicts"]


@dataclass(frozen=True)
class SloPolicy:
    """The objectives one origin is held to."""

    #: Fraction of requests that must succeed (no 5xx / transport error).
    availability: float = 0.99
    #: Latency threshold in seconds...
    latency_threshold: float = 0.5
    #: ...that this fraction of requests must meet.
    latency_objective: float = 0.95

    def __post_init__(self):
        for name in ("availability", "latency_objective"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        # A NaN threshold compares false both ways: it would count no
        # request as slow and print as "nan" under an OK verdict.
        threshold = self.latency_threshold
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValueError("latency_threshold must be finite and > 0 s")


def slo_verdicts(
    events: Iterable[Dict[str, object]], policy: Optional[SloPolicy] = None
) -> List[Dict[str, object]]:
    """One verdict per origin over ``events``, sorted by origin name.

    Each event is a request record with a ``duration`` and a
    ``status`` (5xx counts as an error), naming its origin by
    ``origin`` or else ``host``. A verdict holds the origin, its
    ``requests``, ``availability``, ``latency_attainment`` (the
    fraction that met the threshold), ``latency`` (the
    ``latency_objective`` percentile of the durations),
    ``budget_remaining`` and ``verdict``: ``OK`` when every objective
    holds, else ``BREACH``.
    """
    policy = policy or SloPolicy()
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for event in events:
        origin = str(event.get("origin", event.get("host", "?")))
        durations.setdefault(origin, []).append(float(event["duration"]))
        errors[origin] = errors.get(origin, 0) + (int(event["status"]) >= 500)
    budget = 1.0 - policy.availability
    verdicts = []
    for origin in sorted(durations):
        ordered = sorted(durations[origin])
        requests = len(ordered)
        failed = errors[origin]
        slow = sum(1 for d in ordered if d > policy.latency_threshold)
        availability = 1.0 - failed / requests
        attainment = 1.0 - slow / requests
        if budget <= 0:
            remaining = 1.0 if not failed else float("-inf")
        else:
            remaining = 1.0 - (failed / requests) / budget
        index = min(requests - 1, int(policy.latency_objective * requests))
        ok = (
            availability >= policy.availability
            and attainment >= policy.latency_objective
        )
        verdicts.append(
            {
                "origin": origin,
                "requests": requests,
                "availability": availability,
                "latency_attainment": attainment,
                "latency": ordered[index],
                "budget_remaining": remaining,
                "verdict": "OK" if ok else "BREACH",
            }
        )
    return verdicts
