"""Dynamic connection pool with session recycling (paper Figure 2).

The pool keeps idle keep-alive sessions keyed by origin
``(scheme, host, port)``. Requests *acquire* a session (reusing a warm
TCP connection — and its grown congestion window — whenever one is
idle) and *release* it afterwards; dirty or non-reusable sessions are
discarded instead of recycled.

Internally the pool is **sharded**: origins map (by a stable CRC32
hash) onto ``shards`` independent sub-pools, each with its own
``threading.Lock``, so hundreds of concurrent dispatchers on the socket
runtime do not serialise on one mutex. On the single-threaded simulator
the locks are simply uncontended. Counter *reads* are lock-free:
``pool.stats()`` sums per-shard integers without taking any lock (each
write happens under its shard lock; a snapshot is a consistent-enough
point-in-time view). An LRU idle-reaper (``idle_ttl`` + :meth:`reap`)
drops sessions that sat parked longer than the TTL, oldest first.

Usage accounting is a frozen :class:`PoolStats` snapshot returned by
``pool.stats()``; when a :class:`~repro.obs.MetricsRegistry` is
attached, every event also lands there as
``pool.acquire_total{outcome=...}`` / ``pool.release_total{outcome=...}``
/ ``pool.evicted_total`` series, plus the shard-level
``pool.shard.idle{shard=...}`` gauges and
``pool.shard.contended_total{shard=...}`` lock-contention counters.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["PoolStats", "SessionPool"]

#: stats-event -> (metric family, labels) mapping.
_EVENT_METRICS = {
    "hits": ("pool.acquire_total", {"outcome": "hit"}),
    "misses": ("pool.acquire_total", {"outcome": "miss"}),
    "recycled": ("pool.release_total", {"outcome": "recycled"}),
    "discarded": ("pool.release_total", {"outcome": "discarded"}),
    "evicted": ("pool.evicted_total", {}),
}

_COUNTER_NAMES = ("hits", "misses", "recycled", "discarded", "evicted")


@dataclass(frozen=True)
class PoolStats:
    """Typed snapshot of the pool's usage counters.

    ``hits``/``misses`` count acquire outcomes, ``recycled``/
    ``discarded`` count release outcomes, ``evicted`` counts idle
    sessions dropped for age, use limits or the idle TTL; ``idle`` is
    the number of sessions parked at snapshot time.
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


class _Shard:
    """One independent sub-pool: its own lock, free-lists and counters."""

    __slots__ = ("lock", "idle", "counters")

    def __init__(self):
        self.lock = threading.Lock()
        self.idle: Dict[Tuple, Deque] = {}
        self.counters = {name: 0 for name in _COUNTER_NAMES}

    def idle_total(self) -> int:
        return sum(len(q) for q in self.idle.values())


class SessionPool:
    """Sharded keyed free-list of reusable sessions with statistics."""

    def __init__(
        self,
        max_idle_per_origin: int = 16,
        max_session_uses: Optional[int] = None,
        max_session_age: Optional[float] = None,
        clock=None,
        metrics=None,
        shards: int = 8,
        idle_ttl: Optional[float] = None,
    ):
        if max_idle_per_origin < 0:
            raise ValueError("max_idle_per_origin must be >= 0")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError("idle_ttl must be > 0 seconds")
        self.max_idle_per_origin = max_idle_per_origin
        self.max_session_uses = max_session_uses
        self.max_session_age = max_session_age
        #: Seconds a session may sit parked before the reaper drops it.
        self.idle_ttl = idle_ttl
        self._clock = clock or (lambda: 0.0)
        #: Optional :class:`~repro.obs.MetricsRegistry` mirror.
        self.metrics = metrics
        self._shards: List[_Shard] = [_Shard() for _ in range(shards)]

    # -- sharding -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """How many independent sub-pools the origins map onto."""
        return len(self._shards)

    def _shard_index(self, origin: Tuple) -> int:
        # CRC32 over the repr: stable across processes (unlike hash()),
        # so shard-labeled metrics are reproducible run to run.
        return zlib.crc32(repr(origin).encode("utf-8")) % len(self._shards)

    def _shard_for(self, origin: Tuple) -> Tuple[int, _Shard]:
        index = self._shard_index(origin)
        return index, self._shards[index]

    def _enter(self, index: int, shard: _Shard) -> None:
        """Take a shard lock, counting contended acquisitions."""
        if shard.lock.acquire(blocking=False):
            return
        if self.metrics is not None:
            self.metrics.counter(
                "pool.shard.contended_total", shard=str(index)
            ).inc()
        shard.lock.acquire()

    # -- accounting -----------------------------------------------------------

    def _record(self, shard: _Shard, event: str) -> None:
        shard.counters[event] += 1
        if self.metrics is not None:
            name, labels = _EVENT_METRICS[event]
            self.metrics.counter(name, **labels).inc()

    @property
    def _counters(self) -> Dict[str, int]:
        """Aggregated counters over every shard (lock-free read)."""
        totals = {name: 0 for name in _COUNTER_NAMES}
        for shard in self._shards:
            for name in _COUNTER_NAMES:
                totals[name] += shard.counters[name]
        return totals

    def stats(self) -> PoolStats:
        """Frozen point-in-time :class:`PoolStats` snapshot."""
        return self._snapshot()

    def _snapshot(self) -> PoolStats:
        return PoolStats(idle=self._idle_total(), **self._counters)

    def _idle_total(self) -> int:
        return sum(shard.idle_total() for shard in self._shards)

    def _update_idle_gauges(self, index: int, shard: _Shard) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("pool.idle_sessions").set(self._idle_total())
        self.metrics.gauge("pool.shard.idle", shard=str(index)).set(
            shard.idle_total()
        )

    # -- pool operations ------------------------------------------------------

    def acquire(self, origin: Tuple):
        """Pop an idle reusable session for ``origin``; None on miss."""
        index, shard = self._shard_for(origin)
        self._enter(index, shard)
        try:
            queue = shard.idle.get(origin)
            dropped = False
            while queue:
                session = queue.pop()  # LIFO: prefer the warmest
                if self._expired(session):
                    self._record(shard, "evicted")
                    session.discard()
                    dropped = True
                    continue
                if not session.reusable:
                    self._record(shard, "discarded")
                    session.discard()
                    dropped = True
                    continue
                if dropped:
                    self._update_idle_gauges(index, shard)
                self._record(shard, "hits")
                return session
            if dropped:
                self._update_idle_gauges(index, shard)
            self._record(shard, "misses")
            return None
        finally:
            shard.lock.release()

    def release(self, session) -> None:
        """Return a session after use; recycled only if clean."""
        index, shard = self._shard_for(session.origin)
        self._enter(index, shard)
        try:
            queue = shard.idle.get(session.origin)
            if (
                not session.reusable
                # The session was busy until now, not parked, so the
                # idle TTL does not apply at release time.
                or self._expired(session, check_idle=False)
                or (queue is not None and len(queue) >= self.max_idle_per_origin)
                or self.max_idle_per_origin == 0
            ):
                self._record(shard, "discarded")
                session.discard()
                return
            if queue is None:
                queue = shard.idle[session.origin] = deque()
            self._record(shard, "recycled")
            session.last_released = self._clock()
            queue.append(session)
            self._update_idle_gauges(index, shard)
        finally:
            shard.lock.release()

    def _expired(self, session, check_idle: bool = True) -> bool:
        if (
            self.max_session_uses is not None
            and session.requests_sent >= self.max_session_uses
        ):
            return True
        now = None
        if self.max_session_age is not None:
            now = self._clock()
            if now - session.created_at > self.max_session_age:
                return True
        if check_idle and self.idle_ttl is not None:
            if now is None:
                now = self._clock()
            if now - session.last_released > self.idle_ttl:
                return True
        return False

    def idle_count(self, origin: Optional[Tuple] = None) -> int:
        """Idle sessions for one origin (or in total)."""
        if origin is None:
            return self._idle_total()
        index, shard = self._shard_for(origin)
        self._enter(index, shard)
        try:
            return len(shard.idle.get(origin, ()))
        finally:
            shard.lock.release()

    def reap(self) -> int:
        """Evict idle sessions that outlived their limits, oldest first.

        Scans every shard's free-lists in LRU order (the head of each
        deque is the longest-parked session) and drops the ones the
        ``idle_ttl`` / ``max_session_age`` / ``max_session_uses``
        limits disqualify. Returns how many were dropped; each lands in
        ``pool.evicted_total`` and ``pool.reaped_total``.
        """
        dropped = 0
        for index, shard in enumerate(self._shards):
            self._enter(index, shard)
            try:
                shard_dropped = 0
                for origin in list(shard.idle):
                    queue = shard.idle[origin]
                    while queue and self._expired(queue[0]):
                        queue.popleft().discard()
                        self._record(shard, "evicted")
                        shard_dropped += 1
                    if not queue:
                        del shard.idle[origin]
                if shard_dropped:
                    self._update_idle_gauges(index, shard)
                    dropped += shard_dropped
            finally:
                shard.lock.release()
        if dropped and self.metrics is not None:
            self.metrics.counter("pool.reaped_total").inc(dropped)
        return dropped

    def purge_origin(self, origin: Tuple) -> int:
        """Discard every idle session for one origin (counted evicted).

        Called by the :class:`~repro.resilience.BreakerBoard` when an
        endpoint's circuit opens: warm connections to a host that just
        failed ``threshold`` times in a row are more likely half-dead
        than warm, so they are dropped with the breaker.
        """
        index, shard = self._shard_for(origin)
        self._enter(index, shard)
        try:
            queue = shard.idle.pop(origin, None)
            if not queue:
                return 0
            dropped = 0
            while queue:
                queue.pop().discard()
                self._record(shard, "evicted")
                dropped += 1
            self._update_idle_gauges(index, shard)
            return dropped
        finally:
            shard.lock.release()

    def clear(self) -> int:
        """Discard every idle session; returns how many were dropped."""
        dropped = 0
        for index, shard in enumerate(self._shards):
            self._enter(index, shard)
            try:
                for queue in shard.idle.values():
                    while queue:
                        queue.pop().discard()
                        dropped += 1
                shard.idle.clear()
            finally:
                shard.lock.release()
        return dropped
