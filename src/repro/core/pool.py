"""Dynamic connection pool with session recycling (paper Figure 2).

The pool keeps idle keep-alive sessions keyed by origin
``(scheme, host, port)``. Requests *acquire* a session (reusing a warm
TCP connection — and its grown congestion window — whenever one is
idle) and *release* it afterwards; dirty or non-reusable sessions are
discarded instead of recycled, and an origin keeps at most
:data:`MAX_IDLE_PER_ORIGIN` idle sessions.

One ``threading.Lock`` guards one ``origin -> deque`` free-list and a
running idle count, so dispatchers on the socket runtime's threads
share the pool safely; on the single-threaded simulator the lock is
simply uncontended. Counter *reads* (``pool.stats()``) take no lock:
each write happens under the lock, and a snapshot is a
consistent-enough point-in-time view.

Every event is counted once, in the pool's
:class:`~repro.obs.MetricsRegistry` (the context's, or a private one):
``pool.acquire_total{outcome=...}`` / ``pool.release_total{outcome=...}``
/ ``pool.evicted_total`` series, plus the ``pool.idle_sessions`` gauge.
``pool.stats()`` reads those series back as a frozen :class:`PoolStats`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["MAX_IDLE_PER_ORIGIN", "PoolStats", "SessionPool"]

#: Idle sessions the pool keeps per origin; a release beyond it is
#: discarded.
MAX_IDLE_PER_ORIGIN = 16

#: :class:`PoolStats` field -> its series' key in
#: ``MetricsRegistry.resolved``.
_EVENT_METRICS = {
    "hits": ("counter", "pool.acquire_total", ("outcome", "hit")),
    "misses": ("counter", "pool.acquire_total", ("outcome", "miss")),
    "recycled": ("counter", "pool.release_total", ("outcome", "recycled")),
    "discarded": ("counter", "pool.release_total", ("outcome", "discarded")),
    "evicted": ("counter", "pool.evicted_total"),
}

_IDLE_GAUGE = ("gauge", "pool.idle_sessions")


@dataclass(frozen=True)
class PoolStats:
    """Typed snapshot of the pool's usage counters.

    ``hits``/``misses`` count acquire outcomes, ``recycled``/
    ``discarded`` count release outcomes, ``evicted`` counts idle
    sessions dropped by a breaker purge or :meth:`SessionPool.clear`;
    ``idle`` is the number of sessions parked at snapshot time.
    """

    hits: int = 0
    misses: int = 0
    recycled: int = 0
    discarded: int = 0
    evicted: int = 0
    idle: int = 0

    @property
    def acquires(self) -> int:
        """Total acquire calls (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served from the pool (0.0 when idle)."""
        total = self.acquires
        return self.hits / total if total else 0.0


class SessionPool:
    """Keyed LIFO free-list of reusable sessions with statistics."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        #: The registry the pool counts into (a private one by default).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._idle: Dict[Tuple, Deque] = {}
        #: Running total of the free-lists' lengths.
        self._idle_total = 0

    # -- accounting -----------------------------------------------------------

    def _record(self, event: str) -> None:
        self.metrics.resolved[_EVENT_METRICS[event]].inc()

    def _update_idle_gauge(self) -> None:
        self.metrics.resolved[_IDLE_GAUGE].set(self._idle_total)

    def stats(self) -> PoolStats:
        """Frozen point-in-time :class:`PoolStats` snapshot (lock-free),
        read from the registry without creating a series."""
        value = self.metrics.value
        return PoolStats(
            idle=self._idle_total,
            **{
                field: int(value(name, **dict(labels)) or 0)
                for field, (_, name, *labels) in _EVENT_METRICS.items()
            },
        )

    # -- pool operations ------------------------------------------------------

    def acquire(self, origin: Tuple):
        """Pop an idle reusable session for ``origin``; None on miss."""
        with self._lock:
            queue = self._idle.get(origin)
            dropped = False
            while queue:
                session = queue.pop()  # LIFO: prefer the warmest
                self._idle_total -= 1
                if session.reusable:
                    self._update_idle_gauge()
                    self._record("hits")
                    return session
                self._record("discarded")
                session.discard()
                dropped = True
            if dropped:
                self._update_idle_gauge()
            self._record("misses")
            return None

    def release(self, session) -> None:
        """Return a session after use; recycled only if clean."""
        with self._lock:
            queue = self._idle.get(session.origin)
            if queue is None:
                queue = self._idle[session.origin] = deque()
            if not session.reusable or len(queue) >= MAX_IDLE_PER_ORIGIN:
                self._record("discarded")
                session.discard()
                return
            self._record("recycled")
            queue.append(session)
            self._idle_total += 1
            self._update_idle_gauge()

    def idle_count(self, origin: Optional[Tuple] = None) -> int:
        """Idle sessions for one origin (or in total)."""
        if origin is None:
            return self._idle_total
        with self._lock:
            return len(self._idle.get(origin, ()))

    def _drop(self, queues) -> int:
        """Discard every session of ``queues`` (counted evicted); the
        caller holds the lock."""
        dropped = 0
        for queue in queues:
            while queue:
                queue.pop().discard()
                self._record("evicted")
                dropped += 1
        if dropped:
            self._idle_total -= dropped
            self._update_idle_gauge()
        return dropped

    def purge_origin(self, origin: Tuple) -> int:
        """Discard every idle session for one origin (counted evicted).

        Called by the :class:`~repro.resilience.BreakerBoard` when an
        endpoint's circuit opens: warm connections to a host that just
        failed ``threshold`` times in a row are more likely half-dead
        than warm, so they are dropped with the breaker.
        """
        with self._lock:
            return self._drop([self._idle.pop(origin, ())])

    def clear(self) -> int:
        """Discard every idle session (counted evicted); returns how
        many were dropped."""
        with self._lock:
            dropped = self._drop(self._idle.values())
            self._idle.clear()
            return dropped
