"""Tests for the session pool and its recycling invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PoolStats, SessionPool
from repro.core import pool as pool_module


class FakeSession:
    """Pool-facing stand-in for a Session."""

    def __init__(self, origin=("http", "h", 80)):
        self.origin = origin
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


def assert_idle_totals_match_free_lists(pool, registry=None):
    """The running idle count, ``stats().idle`` and the
    ``pool.idle_sessions`` gauge all equal the free-lists' lengths."""
    held = sum(len(queue) for queue in pool._idle.values())
    assert pool._idle_total == held
    assert pool.idle_count() == pool.stats().idle == held
    if registry is not None:
        assert registry.value("pool.idle_sessions") == held
    return held


def test_max_idle_per_origin_discards_overflow(monkeypatch):
    monkeypatch.setattr(pool_module, "MAX_IDLE_PER_ORIGIN", 2)
    pool = SessionPool()
    sessions = [FakeSession() for _ in range(3)]
    for session in sessions:
        pool.release(session)
    assert pool.idle_count(ORIGIN) == 2
    assert sessions[2].discarded


def test_clear_discards_everything():
    pool = SessionPool()
    sessions = [FakeSession() for _ in range(4)]
    for session in sessions:
        pool.release(session)
    assert pool.clear() == 4
    assert all(s.discarded for s in sessions)
    assert pool.idle_count() == 0
    assert_idle_totals_match_free_lists(pool)


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60
    )
)
def test_pool_invariant_acquired_sessions_are_clean(events):
    """Whatever the release/acquire interleaving, an acquired session is
    always reusable and never double-issued."""
    pool = SessionPool()
    live = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "MAX_IDLE_PER_ORIGIN", 8)
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


# -- many origins, metrics and threads ---------------------------------------


def test_stats_aggregate_across_shards():
    pool = SessionPool()
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
    pool = SessionPool()
    origins = [("http", f"host-{i}", 80) for i in range(6)]
    for origin in origins:
        pool.release(FakeSession(origin=origin))
    assert pool.idle_count() == 6
    assert pool.idle_count(origins[0]) == 1
    assert pool.clear() == 6
    assert pool.idle_count() == 0


def test_purge_origin_drops_only_that_origin():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = SessionPool(metrics=registry)
    failed, healthy = ("http", "failed", 80), ("http", "healthy", 80)
    dropped = [FakeSession(origin=failed) for _ in range(2)]
    for session in dropped + [FakeSession(origin=healthy)]:
        pool.release(session)
    assert pool.purge_origin(failed) == 2
    assert all(session.discarded for session in dropped)
    assert pool.purge_origin(failed) == 0
    assert pool.idle_count(healthy) == 1
    assert pool.stats().evicted == 2
    assert registry.value("pool.evicted_total") == 2
    assert_idle_totals_match_free_lists(pool, registry)


def test_clear_zeroes_the_gauges_and_counts_evictions():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = SessionPool(metrics=registry)
    origins = [("http", f"host-{i}", 80) for i in range(6)]
    for origin in origins:
        pool.release(FakeSession(origin=origin))
    assert registry.value("pool.idle_sessions") == 6
    assert pool.clear() == 6
    assert pool.stats().evicted == 6
    assert registry.value("pool.evicted_total") == 6
    assert registry.value("pool.idle_sessions") == 0
    assert assert_idle_totals_match_free_lists(pool, registry) == 0


def test_a_hit_lowers_the_idle_gauge():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = SessionPool(metrics=registry)
    session = FakeSession()
    pool.release(session)
    assert registry.value("pool.idle_sessions") == 1
    assert pool.acquire(ORIGIN) is session
    assert registry.value("pool.idle_sessions") == pool.idle_count() == 0
    assert assert_idle_totals_match_free_lists(pool, registry) == 0


def test_running_idle_counts_survive_concurrent_threads(monkeypatch):
    """Eight threads (more threads than cores) acquire and release
    over four origins with a short switch interval: the running idle
    count still equals the free-lists and the ``pool.idle_sessions``
    gauge, and every acquire is counted once."""
    import sys
    import threading

    from repro.obs import MetricsRegistry

    monkeypatch.setattr(pool_module, "MAX_IDLE_PER_ORIGIN", 3)
    registry = MetricsRegistry()
    pool = SessionPool(metrics=registry)
    origins = [("http", f"host-{i}", 80) for i in range(4)]
    rounds = 300

    def work(seed):
        for step in range(rounds):
            origin = origins[(seed + step) % len(origins)]
            session = pool.acquire(origin) or FakeSession(origin=origin)
            pool.release(session)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=work, args=(seed,)) for seed in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert assert_idle_totals_match_free_lists(pool, registry) > 0
    assert pool.stats().acquires == 8 * rounds
    assert registry.value("pool.acquire_total", outcome="hit") + (
        registry.value("pool.acquire_total", outcome="miss")
    ) == 8 * rounds
