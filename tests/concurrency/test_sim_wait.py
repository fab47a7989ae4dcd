"""``Recv`` / ``Await`` with a timeout on the simulated runtime.

The wait is on the event itself; the deadline is a timer that
interrupts the waiting process and is disarmed the moment the wait
ends. These tests pin what a caller can observe of that: when and how
the timeout is raised, that an expired wait leaves nothing behind that
could swallow later data, that other interrupts pass through, and that
a finished wait lets go of what it received.
"""

import pytest

from repro.concurrency import (
    Accept,
    Await,
    Close,
    Connect,
    MakePromise,
    Now,
    Recv,
    Send,
    SimRuntime,
    Sleep,
    Spawn,
)
from repro.errors import ConnectionClosed, ProcessInterrupt, TransferTimeout
from repro.net.profiles import WAN, build_network
from repro.sim import Environment
from tests.helpers import sim_world, traced_peak


def serve(server_rt, handler):
    """Spawn ``handler(channel)`` for the first connection on port 80."""
    listener = server_rt.listen(80)

    def server():
        channel = yield Accept(listener)
        yield from handler(channel)

    return server_rt.spawn(server())


# -- Recv ----------------------------------------------------------------------


def test_recv_times_out_exactly_at_the_deadline():
    client_rt, server_rt = sim_world()

    def silent(channel):
        yield Sleep(100)

    def op():
        channel = yield Connect(("server", 80))
        yield Sleep(0.25)
        start = yield Now()
        with pytest.raises(TransferTimeout) as caught:
            yield Recv(channel, timeout=0.5)
        return start, (yield Now()), str(caught.value)

    serve(server_rt, silent)
    start, end, message = client_rt.run(op())
    assert end == start + 0.5
    assert message == "recv on client timed out after 0.5s"


def test_burst_after_a_timed_out_recv_reaches_the_next_recv_whole():
    client_rt, server_rt = sim_world()
    message = bytes(range(256)) * 4

    def late(channel):
        yield Sleep(1.0)
        yield Send(channel, message)

    def op():
        channel = yield Connect(("server", 80))
        with pytest.raises(TransferTimeout):
            yield Recv(channel, timeout=0.5)
        # The expired wait's getter was withdrawn: the burst is not
        # swallowed by an event nobody listens to.
        data = yield Recv(channel, timeout=5)
        return data

    serve(server_rt, late)
    assert client_rt.run(op()) == message


def test_foreign_interrupt_during_recv_propagates_as_itself():
    client_rt, server_rt = sim_world()

    def silent(channel):
        yield Sleep(100)

    def waiter():
        channel = yield Connect(("server", 80))
        try:
            yield Recv(channel, timeout=50)
        except ProcessInterrupt as interrupt:
            return interrupt.cause, (yield Now())

    def op():
        task = yield Spawn(waiter())
        yield Sleep(2.0)
        task.impl.interrupt("stop")
        return task

    serve(server_rt, silent)
    task = client_rt.run(op())
    assert client_rt.join(task) == ("stop", 2.0)
    # The interrupted wait disarmed its timer: running on past the old
    # deadline raises nothing in anyone.
    client_rt.env.run()


def test_recv_with_a_deadline_keeps_eof_and_max_bytes_rules():
    client_rt, server_rt = sim_world()

    def talker(channel):
        yield Send(channel, b"abcdefgh")
        yield Close(channel)

    def op():
        channel = yield Connect(("server", 80))
        out = []
        for max_bytes in (3, 3, 10, 10, 10):
            out.append((yield Recv(channel, max_bytes, timeout=5)))
        return out

    serve(server_rt, talker)
    assert client_rt.run(op()) == [b"abc", b"def", b"gh", b"", b""]


def test_recv_with_a_deadline_sees_a_reset_as_connection_closed():
    client_rt, server_rt = sim_world()

    def resetter(channel):
        yield Sleep(0.5)
        channel.abort()

    def op():
        channel = yield Connect(("server", 80))
        with pytest.raises(ConnectionClosed, match="reset by peer"):
            yield Recv(channel, timeout=5)
        return (yield Now())

    serve(server_rt, resetter)
    assert client_rt.run(op()) < 1.0


# -- Await ---------------------------------------------------------------------


def test_await_times_out_exactly_at_the_deadline():
    client_rt, _ = sim_world()

    def op():
        promise = yield MakePromise()
        yield Sleep(0.25)
        with pytest.raises(TransferTimeout) as caught:
            yield Await(promise, timeout=0.05)
        return (yield Now()), str(caught.value)

    end, message = client_rt.run(op())
    assert end == 0.25 + 0.05
    assert message == "promise await timed out after 0.05s"


def test_value_after_a_timed_out_await_reaches_the_next_await():
    client_rt, _ = sim_world()

    def resolver(promise):
        yield Sleep(1.0)
        promise.resolve("late")

    def op():
        promise = yield MakePromise()
        yield Spawn(resolver(promise))
        with pytest.raises(TransferTimeout):
            yield Await(promise, timeout=0.5)
        value = yield Await(promise, timeout=5)
        return value, (yield Now())

    assert client_rt.run(op()) == ("late", 1.0)


def test_foreign_interrupt_during_await_propagates_as_itself():
    client_rt, _ = sim_world()

    def waiter(promise):
        try:
            yield Await(promise, timeout=50)
        except ProcessInterrupt as interrupt:
            return interrupt.cause

    def op():
        promise = yield MakePromise()
        task = yield Spawn(waiter(promise))
        yield Sleep(2.0)
        task.impl.interrupt("stop")
        return task

    task = client_rt.run(op())
    assert client_rt.join(task) == "stop"
    client_rt.env.run()


def test_await_with_a_deadline_keeps_resolve_and_reject_rules():
    client_rt, _ = sim_world()

    def settle(promise, error):
        yield Sleep(0.1)
        if error is None:
            promise.resolve("value")
        else:
            promise.reject(error)

    def op():
        kept = yield MakePromise()
        yield Spawn(settle(kept, None))
        value = yield Await(kept, timeout=5)
        broken = yield MakePromise()
        yield Spawn(settle(broken, RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            yield Await(broken, timeout=5)
        return value, (yield Now())

    assert client_rt.run(op()) == ("value", 0.2)
    # Both deadlines were disarmed; letting them pass is silent.
    client_rt.env.run()


# -- what a finished wait leaves behind --------------------------------------


def _transfer(client_rt, server_rt, payload, timeout):
    """Send ``payload`` client -> server; the sink drops every chunk as
    it reads it."""
    listener = server_rt.listen(9000)
    size = len(payload)

    def sink():
        channel = yield Accept(listener)
        received = 0
        while received < size:
            received += len((yield Recv(channel, timeout=timeout)))

    def source():
        channel = yield Connect(("server", 9000))
        yield Send(channel, payload)
        yield Close(channel)

    def run():
        task = server_rt.spawn(sink())
        client_rt.spawn(source())
        return server_rt.join(task)

    return run


def test_received_bursts_are_not_retained_until_the_deadline():
    """32 MiB through ``Recv(timeout=120)``: once the last byte is
    consumed, and long before the first deadline, the bytes are gone.
    A stale timer that still reaches its wait's result would pin all
    of them."""
    client_rt, server_rt = sim_world(bandwidth=1e9)
    payload = bytes(32 << 20)
    run = _transfer(client_rt, server_rt, payload, timeout=120)
    del payload  # the send queue holds the only reference now

    held = traced_peak(run).held
    assert client_rt.now() < 120
    assert held < 2 << 20


def test_event_budget_of_a_wan_transfer():
    """1 MiB over the WAN profile, received with a deadline: the number
    of kernel events is pinned, so a hop that grows back in the burst
    or receive path fails here without a stopwatch."""
    env = Environment()
    net = build_network(WAN, env, seed=1)
    run = _transfer(
        SimRuntime(net, "client"), SimRuntime(net, "server"),
        bytes(1 << 20), timeout=120,
    )
    run()
    assert env._eid <= 236  # the parent of this test scheduled 312
