"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        yield env.timeout(2.5)
        return env.now

    result = env.run(env.process(proc()))
    assert result == 7.5
    assert env.now == 7.5


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        value = yield env.timeout(1, value="hello")
        return value

    assert env.run(env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent():
        result = yield env.process(child())
        return result * 2

    assert env.run(env.process(parent())) == 84


def test_events_fire_in_time_order():
    env = Environment()
    log = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        log.append((env.now, tag))

    env.process(waiter(3, "c"))
    env.process(waiter(1, "a"))
    env.process(waiter(2, "b"))
    env.run()
    assert log == [(1, "a"), (2, "b"), (3, "c")]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    log = []

    def waiter(tag):
        yield env.timeout(1)
        log.append(tag)

    for tag in "abcde":
        env.process(waiter(tag))
    env.run()
    assert log == list("abcde")


def test_manual_event_succeed():
    env = Environment()
    evt = env.event()

    def trigger():
        yield env.timeout(4)
        evt.succeed("done")

    def wait():
        value = yield evt
        return (env.now, value)

    env.process(trigger())
    assert env.run(env.process(wait())) == (4, "done")


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_failed_event_raises_in_process():
    env = Environment()
    evt = env.event()

    def proc():
        try:
            yield evt
        except RuntimeError as exc:
            return f"caught {exc}"

    task = env.process(proc())
    evt.fail(RuntimeError("boom"))
    assert env.run(task) == "caught boom"


def test_unhandled_process_failure_propagates():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_time():
    env = Environment()
    ticks = []

    def clock():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(clock())
    env.run(until=10)
    assert env.now == 10
    assert ticks == list(range(1, 11))


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(1)
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=3)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="one")
        t2 = env.timeout(5, value="five")
        results = yield AllOf(env, [t1, t2])
        return (env.now, list(results.values()))

    when, values = env.run(env.process(proc()))
    assert when == 5
    assert values == ["one", "five"]


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, list(results.values()))

    when, values = env.run(env.process(proc()))
    assert when == 1
    assert values == ["fast"]


def test_condition_operators():
    env = Environment()

    def proc():
        a = env.timeout(1)
        b = env.timeout(2)
        yield a | b
        first = env.now
        c = env.timeout(1)
        d = env.timeout(3)
        yield c & d
        return (first, env.now)

    assert env.run(env.process(proc())) == (1, 4)


def test_fired_condition_lets_go_of_the_losers():
    """A decided ``a | b`` must not stay hooked on the loser: through
    that hook a pending 120 s timer would keep the condition, and with
    it the winner's value, alive until its deadline."""
    env = Environment()
    seen = []

    def proc():
        data_event = env.event()
        timer = env.timeout(120)
        env.timeout(1).callbacks.append(
            lambda _evt: data_event.succeed(b"burst")
        )
        condition = data_event | timer
        results = yield condition
        seen.append((env.now, dict(results), condition, timer))

    env.process(proc())
    env.run(until=2)
    (when, results, condition, timer), = seen
    assert when == 1
    assert list(results.values()) == [b"burst"]
    assert timer.callbacks == []
    # The late timer changes nothing about the decided condition.
    env.run()
    assert env.now == 120
    assert list(condition.value.values()) == [b"burst"]


def test_condition_decided_at_construction_hooks_nothing():
    env = Environment()
    done = env.event().succeed("early")
    env.run()
    timer = env.timeout(120)
    condition = AnyOf(env, [done, timer])
    assert condition.triggered
    assert timer.callbacks == []


def test_interrupt_delivers_cause():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
        except ProcessInterrupt as exc:
            return ("interrupted", exc.cause, env.now)

    def attacker(target):
        yield env.timeout(3)
        target.interrupt(cause="stop now")

    task = env.process(victim())
    env.process(attacker(task))
    assert env.run(task) == ("interrupted", "stop now", 3)


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    task = env.process(quick())
    env.run(task)
    with pytest.raises(SimulationError):
        task.interrupt()


def test_yield_on_already_processed_event_resumes():
    env = Environment()
    evt = env.event()
    evt.succeed("early")

    def late():
        yield env.timeout(2)
        value = yield evt  # evt processed long ago
        return value

    # Drain evt's callbacks first.
    assert env.run(env.process(late())) == "early"


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(2)

    task = env.process(proc())
    assert task.is_alive
    env.run()
    assert not task.is_alive


def test_run_until_event_failure_raises():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise KeyError("inner")

    task = env.process(proc())
    with pytest.raises(KeyError):
        env.run(task)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        log = []

        def proc(pid):
            for step in range(3):
                yield env.timeout((pid + 1) * 0.5)
                log.append((round(env.now, 6), pid, step))

        for pid in range(4):
            env.process(proc(pid))
        env.run()
        return log

    assert build() == build()


# -- ordering the scheduling fast paths must keep -----------------------------
#
# Timeout() and succeed() push onto the heap themselves and run()
# dispatches inline; the order below is what every simulated number
# rests on.


def test_same_time_timeout_succeed_and_start_fire_in_scheduling_order():
    env = Environment()
    log = []

    def note(tag):
        return lambda _event: log.append((env.now, tag))

    def starter(tag):
        log.append((env.now, tag))
        yield env.timeout(0)
        log.append((env.now, tag + "+"))

    env.timeout(0).callbacks.append(note("t0"))
    first = env.event()
    first.callbacks.append(note("e0"))
    first.succeed()
    env.process(starter("p0"))
    env.timeout(0).callbacks.append(note("t1"))
    late = env.event()  # created early, scheduled last
    env.process(starter("p1"))
    second = env.event()
    second.callbacks.append(note("e1"))
    second.succeed()
    late.callbacks.append(note("late"))
    late.succeed()
    env.timeout(1).callbacks.append(note("t@1"))
    env.timeout(0).callbacks.append(note("t2"))
    env.run()
    assert log == [
        (0, "t0"), (0, "e0"), (0, "p0"), (0, "t1"), (0, "p1"),
        (0, "e1"), (0, "late"), (0, "t2"), (0, "p0+"), (0, "p1+"),
        (1, "t@1"),
    ]


def test_succeed_inside_callback_runs_after_already_scheduled_peers():
    env = Environment()
    log = []
    inner = env.event()
    inner.callbacks.append(lambda _e: log.append("inner"))

    def outer(_event):
        log.append("outer")
        inner.succeed()

    env.timeout(2).callbacks.append(outer)
    env.timeout(2).callbacks.append(lambda _e: log.append("peer"))
    env.run()
    assert log == ["outer", "peer", "inner"]
    assert env.now == 2


def test_run_until_number_stops_on_the_boundary():
    env = Environment()
    fired = []
    for when in (1, 2, 2, 2.5, 3):
        env.timeout(when).callbacks.append(
            lambda _e, when=when: fired.append(when)
        )
    env.run(until=2)
    # Events *at* the boundary fire, later ones stay queued.
    assert fired == [1, 2, 2]
    assert env.now == 2
    assert env.peek() == 2.5
    env.run(until=2)  # nothing left at 2: a no-op
    assert fired == [1, 2, 2]
    env.run(until=2.75)
    assert fired == [1, 2, 2, 2.5]
    assert env.now == 2.75
    env.run(until=10)  # the queue runs dry before the horizon
    assert fired == [1, 2, 2, 2.5, 3]
    assert env.now == 10


def test_undefused_failed_event_raises_out_of_run():
    env = Environment()
    env.timeout(1).callbacks.append(lambda _e: None)
    env.event().fail(RuntimeError("nobody waited"))
    after = []
    env.timeout(0).callbacks.append(lambda _e: after.append(env.now))
    with pytest.raises(RuntimeError, match="nobody waited"):
        env.run()
    # The failure surfaced at its own turn; the queue is intact.
    assert after == [] and env.now == 0
    env.run()
    assert after == [0] and env.now == 1


def test_defused_failed_event_does_not_raise():
    env = Environment()
    failed = env.event().fail(RuntimeError("handled elsewhere"))
    failed._defused = True
    env.run()
    assert failed.processed and not failed.ok


def test_doubly_scheduled_event_raises():
    env = Environment()
    timer = env.timeout(1)
    with pytest.raises(SimulationError):
        timer.succeed()
    with pytest.raises(SimulationError):
        env._schedule(timer)
    done = env.event().succeed(1)
    for again in (lambda: done.succeed(2), lambda: env._schedule(done)):
        with pytest.raises(SimulationError):
            again()
    with pytest.raises(SimulationError):
        done.fail(RuntimeError("late"))
    pending = env.event()
    env._schedule(pending)
    with pytest.raises(SimulationError, match="scheduled twice"):
        pending.succeed()
    # None of the refused attempts left a second heap entry behind.
    assert len(env._queue) == 3


def test_cancelled_timer_never_fires_and_does_not_move_the_clock():
    env = Environment()
    fired = []
    keeper = env.timeout(1)
    keeper.callbacks.append(lambda _evt: fired.append("keeper"))
    stale = env.timeout(120)
    stale.callbacks.append(lambda _evt: fired.append("stale"))
    keeper2 = env.timeout(2)  # keeps live entries in the majority
    stale.cancel()
    stale.cancel()
    assert stale.callbacks is None
    env.run()
    assert fired == ["keeper"]
    assert env.now == 2
    keeper2.cancel()  # fired already: a no-op
    assert env._cancelled == 0


def test_cancelled_timers_leave_the_heap_without_reordering_the_rest():
    def run(cancel):
        env = Environment()
        log = []

        def ticker(tag, period):
            for _ in range(50):
                deadline = env.timeout(120)
                yield env.timeout(period)
                log.append((env.now, tag))
                if cancel:
                    deadline.cancel()
                    assert len(env._queue) <= 8

        env.process(ticker("a", 0.5))
        env.process(ticker("b", 0.25))
        env.process(ticker("c", 0.5))
        env.run(until=100)
        return log

    assert run(cancel=True) == run(cancel=False)


def test_events_carry_no_instance_dict():
    env = Environment()

    def proc():
        yield env.timeout(0)

    for event in (
        env.event(), env.timeout(0), env.process(proc()),
        env.all_of([]), env.any_of([]),
    ):
        assert not hasattr(event, "__dict__")
