"""Tests for the session pool and its recycling invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PoolStats, SessionPool


class FakeSession:
    """Pool-facing stand-in for a Session."""

    def __init__(self, origin=("http", "h", 80), created_at=0.0):
        self.origin = origin
        self.created_at = created_at
        self.last_released = created_at
        self.requests_sent = 0
        self.reusable = True
        self.discarded = False

    def discard(self):
        self.discarded = True
        self.reusable = False


ORIGIN = ("http", "h", 80)


def test_acquire_from_empty_pool_is_miss():
    pool = SessionPool()
    assert pool.acquire(ORIGIN) is None
    assert pool.stats().misses == 1


def test_release_then_acquire_is_hit():
    pool = SessionPool()
    session = FakeSession()
    pool.release(session)
    assert pool.acquire(ORIGIN) is session
    assert pool.stats() == PoolStats(hits=1, recycled=1)


def test_lifo_prefers_warmest_session():
    pool = SessionPool()
    old, warm = FakeSession(), FakeSession()
    pool.release(old)
    pool.release(warm)
    assert pool.acquire(ORIGIN) is warm


def test_origins_are_isolated():
    pool = SessionPool()
    session = FakeSession(origin=("http", "a", 80))
    pool.release(session)
    assert pool.acquire(("http", "b", 80)) is None
    assert pool.acquire(("http", "a", 80)) is session


def test_dirty_sessions_are_never_recycled():
    pool = SessionPool()
    session = FakeSession()
    session.reusable = False
    pool.release(session)
    assert session.discarded
    assert pool.acquire(ORIGIN) is None
    assert pool.stats().discarded == 1


def test_session_dirtied_while_idle_is_skipped():
    pool = SessionPool()
    session = FakeSession()
    pool.release(session)
    session.reusable = False  # e.g. the server dropped it
    assert pool.acquire(ORIGIN) is None
    assert session.discarded


def test_max_idle_per_origin_discards_overflow():
    pool = SessionPool(max_idle_per_origin=2)
    sessions = [FakeSession() for _ in range(3)]
    for session in sessions:
        pool.release(session)
    assert pool.idle_count(ORIGIN) == 2
    assert sessions[2].discarded


def test_max_uses_evicts():
    pool = SessionPool(max_session_uses=5)
    session = FakeSession()
    session.requests_sent = 5
    pool.release(session)
    assert session.discarded


def test_max_age_evicts_on_acquire():
    now = {"t": 0.0}
    pool = SessionPool(max_session_age=10.0, clock=lambda: now["t"])
    session = FakeSession(created_at=0.0)
    pool.release(session)
    now["t"] = 11.0
    assert pool.acquire(ORIGIN) is None
    assert session.discarded
    assert pool.stats().evicted == 1


def test_clear_discards_everything():
    pool = SessionPool()
    sessions = [FakeSession() for _ in range(4)]
    for session in sessions:
        pool.release(session)
    assert pool.clear() == 4
    assert all(s.discarded for s in sessions)
    assert pool.idle_count() == 0


def test_validation():
    with pytest.raises(ValueError):
        SessionPool(max_idle_per_origin=-1)


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60
    )
)
def test_pool_invariant_acquired_sessions_are_clean(events):
    """Whatever the release/acquire interleaving, an acquired session is
    always reusable and never double-issued."""
    pool = SessionPool(max_idle_per_origin=8)
    live = []
    for do_release, dirty in events:
        if do_release:
            session = FakeSession()
            session.reusable = not dirty
            pool.release(session)
        else:
            session = pool.acquire(ORIGIN)
            if session is not None:
                assert session.reusable
                assert not session.discarded
                assert session not in live
                live.append(session)


# -- sharding, idle TTL and the reaper ----------------------------------------


def test_shard_count_and_validation():
    assert SessionPool().shard_count == 8
    assert SessionPool(shards=3).shard_count == 3
    with pytest.raises(ValueError):
        SessionPool(shards=0)
    with pytest.raises(ValueError):
        SessionPool(idle_ttl=0)


def test_shard_assignment_is_stable_and_spread():
    pool = SessionPool(shards=4)
    origins = [("http", f"host-{i}", 80) for i in range(64)]
    first = [pool._shard_index(o) for o in origins]
    assert first == [pool._shard_index(o) for o in origins]
    # CRC32 spreads 64 distinct origins over more than one shard.
    assert len(set(first)) > 1


def test_stats_aggregate_across_shards():
    pool = SessionPool(shards=4)
    origins = [("http", f"host-{i}", 80) for i in range(8)]
    for origin in origins:
        pool.release(FakeSession(origin=origin))
        assert pool.acquire(origin) is not None
        assert pool.acquire(origin) is None
    stats = pool.stats()
    assert stats.recycled == 8
    assert stats.hits == 8
    assert stats.misses == 8
    assert stats.idle == 0


def test_idle_count_totals_span_shards():
    pool = SessionPool(shards=4)
    origins = [("http", f"host-{i}", 80) for i in range(6)]
    for origin in origins:
        pool.release(FakeSession(origin=origin))
    assert pool.idle_count() == 6
    assert pool.idle_count(origins[0]) == 1
    assert pool.clear() == 6
    assert pool.idle_count() == 0


def test_idle_ttl_evicts_on_acquire():
    clock = {"now": 0.0}
    pool = SessionPool(idle_ttl=10.0, clock=lambda: clock["now"])
    pool.release(FakeSession())
    clock["now"] = 11.0
    assert pool.acquire(ORIGIN) is None
    assert pool.stats().evicted == 1


def test_idle_ttl_does_not_apply_at_release():
    """A session busy for longer than the TTL is still recyclable."""
    clock = {"now": 100.0}
    pool = SessionPool(idle_ttl=10.0, clock=lambda: clock["now"])
    session = FakeSession(created_at=0.0)  # last_released = 0.0
    pool.release(session)
    assert pool.acquire(ORIGIN) is session


def test_reap_drops_only_expired_lru_first():
    clock = {"now": 0.0}
    pool = SessionPool(idle_ttl=10.0, clock=lambda: clock["now"])
    stale = FakeSession()
    pool.release(stale)
    clock["now"] = 8.0
    fresh = FakeSession(created_at=8.0)
    pool.release(fresh)
    clock["now"] = 12.0  # stale parked 12s, fresh parked 4s
    assert pool.reap() == 1
    assert stale.discarded and not fresh.discarded
    assert pool.idle_count() == 1
    assert pool.reap() == 0


def test_reap_metrics_and_shard_gauges():
    from repro.obs import MetricsRegistry

    clock = {"now": 0.0}
    registry = MetricsRegistry()
    pool = SessionPool(
        idle_ttl=5.0,
        clock=lambda: clock["now"],
        metrics=registry,
        shards=2,
    )
    origin = ("http", "gauged", 80)
    shard = str(pool._shard_index(origin))
    pool.release(FakeSession(origin=origin))
    assert registry.value("pool.shard.idle", shard=shard) == 1
    clock["now"] = 6.0
    assert pool.reap() == 1
    assert registry.value("pool.reaped_total") == 1
    assert registry.value("pool.evicted_total") == 1
    assert registry.value("pool.shard.idle", shard=shard) == 0
    assert registry.value("pool.idle_sessions") == 0


def test_shard_contention_counter():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = SessionPool(metrics=registry, shards=2)
    origin = ("http", "busy", 80)
    index, shard = pool._shard_for(origin)
    shard.lock.acquire()
    try:
        import threading

        worker = threading.Thread(
            target=pool.release, args=(FakeSession(origin=origin),)
        )
        worker.start()
        # Give the worker time to hit the held lock.
        import time

        time.sleep(0.05)
    finally:
        shard.lock.release()
    worker.join()
    assert (
        registry.value("pool.shard.contended_total", shard=str(index))
        == 1
    )
    assert pool.stats().recycled == 1
