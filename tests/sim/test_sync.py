"""Unit tests for Signal, Gate and Mailbox."""

import pytest

from repro.errors import SimulationError
from repro.sim import EOF, Environment, Gate, Mailbox, Signal


def test_signal_wakes_all_waiters():
    env = Environment()
    sig = Signal(env)
    woken = []

    def waiter(tag):
        value = yield sig.wait()
        woken.append((tag, value, env.now))

    def firer():
        yield env.timeout(3)
        assert sig.fire("go") == 2

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.process(firer())
    env.run()
    assert woken == [("a", "go", 3), ("b", "go", 3)]


def test_signal_wait_after_fire_blocks_until_next():
    env = Environment()
    sig = Signal(env)
    log = []

    def late_waiter():
        yield env.timeout(2)
        yield sig.wait()
        log.append(env.now)

    def firer():
        yield env.timeout(1)
        sig.fire()  # nobody waiting yet except... no one
        yield env.timeout(4)
        sig.fire()

    env.process(late_waiter())
    env.process(firer())
    env.run()
    assert log == [5]


def test_gate_releases_current_and_future_waiters():
    env = Environment()
    gate = Gate(env)
    log = []

    def early():
        value = yield gate.wait()
        log.append(("early", value, env.now))

    def opener():
        yield env.timeout(2)
        gate.open("opened")

    def late():
        yield env.timeout(5)
        value = yield gate.wait()
        log.append(("late", value, env.now))

    env.process(early())
    env.process(opener())
    env.process(late())
    env.run()
    assert log == [("early", "opened", 2), ("late", "opened", 5)]
    assert gate.is_open


def test_gate_fail_propagates_to_waiters():
    env = Environment()
    gate = Gate(env)

    def waiter():
        try:
            yield gate.wait()
        except RuntimeError:
            return "failed"

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("nope"))

    task = env.process(waiter())
    env.process(failer())
    assert env.run(task) == "failed"

    def late_waiter():
        try:
            yield gate.wait()
        except RuntimeError:
            return "late-failed"

    assert env.run(env.process(late_waiter())) == "late-failed"


def test_gate_double_open_rejected():
    env = Environment()
    gate = Gate(env)
    gate.open()
    with pytest.raises(SimulationError):
        gate.open()


def test_mailbox_delivers_then_eof():
    env = Environment()
    box = Mailbox(env)
    received = []

    def consumer():
        while True:
            item = yield box.get()
            if item is EOF:
                received.append("eof")
                return
            received.append(item)

    def producer():
        box.put(1)
        yield env.timeout(1)
        box.put(2)
        box.close()

    env.process(consumer())
    env.process(producer())
    env.run()
    assert received == [1, 2, "eof"]


def test_mailbox_close_wakes_blocked_getter():
    env = Environment()
    box = Mailbox(env)

    def consumer():
        item = yield box.get()
        return item is EOF

    def closer():
        yield env.timeout(2)
        box.close()

    task = env.process(consumer())
    env.process(closer())
    assert env.run(task) is True


def test_mailbox_withdrawn_getter_is_skipped():
    env = Environment()
    box = Mailbox(env)
    abandoned = box.get()
    waiting = box.get()
    box.withdraw(abandoned)
    box.withdraw(abandoned)  # twice, or once served: harmless
    box.put("item")
    env.run()
    assert not abandoned.triggered
    assert waiting.value == "item"
    box.withdraw(waiting)


def test_mailbox_put_after_close_rejected():
    env = Environment()
    box = Mailbox(env)
    box.close()
    with pytest.raises(SimulationError):
        box.put(1)
    box.close()  # idempotent
