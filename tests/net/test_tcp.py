"""Behavioural tests of the flow-level TCP model."""

import pytest

from repro.errors import ConnectionClosed
from repro.net import LinkSpec, Network, TcpOptions
from repro.sim import Environment


def make_pair(
    latency=0.01,
    bandwidth=1e9,
    jitter=0.0,
    loss_rate=0.0,
    access=1e12,
    seed=1,
):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("client", access_bandwidth=access)
    net.add_host("server", access_bandwidth=access)
    net.set_route(
        "client",
        "server",
        LinkSpec(
            latency=latency,
            bandwidth=bandwidth,
            jitter=jitter,
            loss_rate=loss_rate,
        ),
    )
    return env, net


def echo_server(env, net, port=80, chunk=65536):
    """Accept one connection and echo everything until EOF."""

    listener = net.listen("server", port)

    def run():
        side = yield listener.accept()
        while True:
            data = yield side.recv(chunk)
            if not data:
                break
            yield side.send(data)
        side.close()

    return env.process(run())


def recv_all(side):
    """Process helper: read until EOF, return the bytes."""
    buf = bytearray()
    while True:
        data = yield side.recv()
        if not data:
            return bytes(buf)
        buf.extend(data)


def test_handshake_takes_one_rtt():
    env, net = make_pair(latency=0.05)
    net.listen("server", 80)

    def client():
        yield net.connect("client", ("server", 80))
        return env.now

    assert env.run(env.process(client())) == pytest.approx(0.1)


def test_payload_roundtrip_byte_exact():
    env, net = make_pair()
    echo_server(env, net)
    payload = bytes(range(256)) * 1000  # 256 000 bytes

    def client():
        side = yield net.connect("client", ("server", 80))
        yield side.send(payload)
        side.close()
        data = yield from recv_all(side)
        return data

    assert env.run(env.process(client())) == payload


def test_transfer_time_matches_bandwidth_when_window_open():
    # 1 MB at 1 MB/s with negligible latency: ~1 s.
    env, net = make_pair(latency=1e-6, bandwidth=1e6)
    listener = net.listen("server", 80)
    size = 1_000_000

    def server():
        side = yield listener.accept()
        yield side.send(b"x" * size)
        side.close()

    def client():
        side = yield net.connect("client", ("server", 80))
        yield from recv_all(side)
        return env.now

    env.process(server())
    elapsed = env.run(env.process(client()))
    assert 0.9 < elapsed < 1.3


def test_slow_start_doubles_window_each_rtt():
    # High latency, high bandwidth: time is dominated by RTT rounds and
    # the number of rounds grows logarithmically with transfer size.
    opts = TcpOptions(idle_reset=False)
    iw = opts.initial_window

    def transfer_time(size):
        env, net = make_pair(latency=0.1, bandwidth=1e9)
        listener = net.listen("server", 80)

        def server():
            side = yield listener.accept()
            yield side.send(b"x" * size)
            side.close()

        def client():
            side = yield net.connect("client", ("server", 80), opts)
            yield from recv_all(side)
            return env.now

        env.process(server())
        return env.run(env.process(client()))

    t1 = transfer_time(iw)  # fits in the initial window
    t8 = transfer_time(8 * iw)  # needs ~3 extra doubling rounds
    extra_rounds = round((t8 - t1) / 0.2)
    assert extra_rounds == 3


def test_warm_connection_skips_slow_start():
    # Request/response pairs on one connection: later exchanges are
    # faster because cwnd has grown (the keep-alive benefit).
    env, net = make_pair(latency=0.05, bandwidth=1e9)
    listener = net.listen("server", 80)
    size = 16 * 14600

    def server():
        side = yield listener.accept()
        for _ in range(2):
            request = yield side.recv()
            assert request
            yield side.send(b"y" * size)
        side.close()

    def client():
        opts = TcpOptions(idle_reset=False)
        side = yield net.connect("client", ("server", 80), opts)
        times = []
        for _ in range(2):
            start = env.now
            yield side.send(b"GET")
            received = 0
            while received < size:
                data = yield side.recv()
                received += len(data)
            times.append(env.now - start)
        return times

    env.process(server())
    first, second = env.run(env.process(client()))
    assert second < first * 0.55  # warm window cuts rounds


def test_idle_reset_restores_initial_window():
    env, net = make_pair(latency=0.05, bandwidth=1e9)
    listener = net.listen("server", 80)
    size = 16 * 14600

    def server():
        side = yield listener.accept()
        for _ in range(2):
            request = yield side.recv()
            assert request
            yield side.send(b"y" * size)
        side.close()

    def client():
        opts = TcpOptions(idle_reset=True, idle_timeout=0.5)
        side = yield net.connect("client", ("server", 80), opts)
        times = []
        for i in range(2):
            if i:
                yield env.timeout(2.0)  # idle gap > idle_timeout
            start = env.now
            yield side.send(b"GET")
            received = 0
            while received < size:
                data = yield side.recv()
                received += len(data)
            times.append(env.now - start)
        return times

    env.process(server())
    first, second = env.run(env.process(client()))
    # The server's cwnd was reset during the idle gap: the second
    # exchange pays slow start again.
    assert second == pytest.approx(first, rel=0.25)


def test_window_cap_limits_throughput_on_fat_pipe():
    # BDP (2 MB) above max_window (64 KB): throughput ~ window/RTT.
    size = 2_000_000
    env, net = make_pair(latency=0.1, bandwidth=1e8)
    listener = net.listen("server", 80)
    opts = TcpOptions(max_window=65536, idle_reset=False)

    def server():
        side = yield listener.accept()
        yield side.send(b"x" * size)
        side.close()

    def client():
        side = yield net.connect("client", ("server", 80), opts)
        yield from recv_all(side)
        return env.now

    env.process(server())
    elapsed = env.run(env.process(client()))
    expected = size / (65536 / 0.2)  # ~6.1 s
    assert elapsed == pytest.approx(expected, rel=0.25)


def test_nagle_delays_small_write_until_ack():
    def run(nagle):
        env, net = make_pair(latency=0.05, bandwidth=1e9)
        listener = net.listen("server", 80)

        def server():
            side = yield listener.accept()
            total = 0
            while total < 2000 + 10:
                data = yield side.recv()
                total += len(data)
            return env.now

        def client():
            opts = TcpOptions(nagle=nagle, idle_reset=False)
            side = yield net.connect("client", ("server", 80), opts)
            yield side.send(b"a" * 2000)
            yield side.send(b"b" * 10)  # sub-MSS while data in flight

        server_task = env.process(server())
        env.process(client())
        return env.run(server_task)

    assert run(nagle=True) > run(nagle=False) + 0.05


def test_loss_episode_slows_transfer_and_is_counted():
    def run(loss):
        env, net = make_pair(
            latency=0.02, bandwidth=1e7, loss_rate=loss, seed=7
        )
        listener = net.listen("server", 80)
        holder = {}

        def server():
            side = yield listener.accept()
            holder["side"] = side
            yield side.send(b"x" * 1_000_000)
            side.close()

        def client():
            side = yield net.connect("client", ("server", 80))
            yield from recv_all(side)
            return env.now

        env.process(server())
        elapsed = env.run(env.process(client()))
        episodes = holder["side"]._out.loss_episodes
        return elapsed, episodes

    clean_time, clean_episodes = run(0.0)
    lossy_time, lossy_episodes = run(0.3)
    assert clean_episodes == 0
    assert lossy_episodes > 0
    assert lossy_time > clean_time


def test_clean_close_yields_empty_read():
    env, net = make_pair()
    listener = net.listen("server", 80)

    def server():
        side = yield listener.accept()
        yield side.send(b"bye")
        side.close()

    def client():
        side = yield net.connect("client", ("server", 80))
        first = yield side.recv()
        second = yield side.recv()
        third = yield side.recv()
        return first, second, third

    env.process(server())
    first, second, third = env.run(env.process(client()))
    assert first == b"bye"
    assert second == b""
    assert third == b""


def test_abort_fails_pending_recv():
    env, net = make_pair(latency=0.01)
    listener = net.listen("server", 80)

    def server():
        side = yield listener.accept()
        yield env.timeout(0.5)
        side.abort()

    def client():
        side = yield net.connect("client", ("server", 80))
        try:
            yield side.recv()
        except ConnectionClosed:
            return "reset"

    env.process(server())
    assert env.run(env.process(client())) == "reset"


def test_send_after_close_fails():
    env, net = make_pair()
    net.listen("server", 80)

    def client():
        side = yield net.connect("client", ("server", 80))
        side.close()
        try:
            yield side.send(b"late")
        except ConnectionClosed:
            return "rejected"

    assert env.run(env.process(client())) == "rejected"


def test_recv_max_bytes_partial_delivery():
    env, net = make_pair()
    listener = net.listen("server", 80)

    def server():
        side = yield listener.accept()
        yield side.send(b"abcdefgh")
        side.close()

    def client():
        side = yield net.connect("client", ("server", 80))
        a = yield side.recv(3)
        b = yield side.recv(3)
        c = yield side.recv(10)
        return a, b, c

    env.process(server())
    assert env.run(env.process(client())) == (b"abc", b"def", b"gh")


def test_cancelled_recv_does_not_swallow_the_next_burst():
    env, net = make_pair()
    listener = net.listen("server", 80)

    def server():
        side = yield listener.accept()
        yield env.timeout(1.0)
        yield side.send(b"payload")
        side.close()

    def client():
        side = yield net.connect("client", ("server", 80))
        abandoned = side.recv()
        yield env.timeout(0.5)
        side.cancel_recv(abandoned)
        data = yield side.recv()
        rest = yield side.recv()
        return data, rest, abandoned.triggered

    env.process(server())
    assert env.run(env.process(client())) == (b"payload", b"", False)


def test_recv_resumes_its_waiter_in_the_step_the_burst_arrives():
    """One hop from mailbox to waiter: nothing else scheduled for the
    same instant, however early, gets in between."""
    env, net = make_pair()
    listener = net.listen("server", 80)
    order = []

    def server():
        side = yield listener.accept()
        yield side.send(b"x" * 100)

    def client():
        side = yield net.connect("client", ("server", 80))
        pending = side.recv(10)
        pending.callbacks.append(
            lambda _evt: env.event().succeed().callbacks.append(
                lambda _e: order.append("scheduled on arrival")
            )
        )
        data = yield pending
        order.append("waiter resumed")
        return data

    env.process(server())
    assert env.run(env.process(client())) == b"x" * 10
    env.run()
    assert order == ["waiter resumed", "scheduled on arrival"]


def test_bandwidth_shared_between_connections():
    # Two simultaneous 1 MB downloads through one 1 MB/s server uplink
    # finish in ~2 s (vs ~1 s for a single download).
    env, net = make_pair(latency=1e-6, bandwidth=1e9, access=1e6)
    listener = net.listen("server", 80)
    size = 1_000_000

    def server():
        while True:
            side = yield listener.accept()
            env.process(serve_one(side))

    def serve_one(side):
        yield side.send(b"x" * size)
        side.close()

    def client(results):
        side = yield net.connect("client", ("server", 80))
        data = yield from recv_all(side)
        results.append((env.now, len(data)))

    results = []
    env.process(server())
    env.process(client(results))
    env.process(client(results))
    env.run(until=60)
    assert len(results) == 2
    for finished_at, nbytes in results:
        assert nbytes == size
        assert 1.8 < finished_at < 2.6


def test_jitter_is_deterministic_per_seed():
    def run(seed):
        env, net = make_pair(latency=0.01, jitter=0.005, seed=seed)
        listener = net.listen("server", 80)

        def server():
            side = yield listener.accept()
            yield side.send(b"x")
            side.close()

        def client():
            side = yield net.connect("client", ("server", 80))
            yield side.recv()
            return env.now

        env.process(server())
        return env.run(env.process(client()))

    assert run(3) == run(3)
    assert run(3) != run(4)


@pytest.mark.parametrize("nagle", [False, True])
def test_gather_send_cuts_the_same_bursts_as_its_join(nagle):
    """A sequence handed to one send() is queued whole before the
    sender wakes, so it leaves in exactly the bursts — same sizes, same
    simulated times — that one send() of the joined bytes leaves in,
    from the initial window up through slow start."""
    pieces = [
        b"H" * 300,
        b"a" * 80,
        bytes(range(256)) * 2000,  # 512 000 B: many bursts
        b"",
        memoryview(b"b" * 70),
        b"c" * 3,
        bytearray(b"d" * 200_000),
        b"e" * 40,
    ]
    joined = b"".join(pieces)

    def run(payload):
        env, net = make_pair(latency=0.05, bandwidth=1e8)
        listener = net.listen("server", 80)
        bursts = []

        def server():
            side = yield listener.accept()
            yield side.send(payload)
            side.close()

        def client():
            opts = TcpOptions(nagle=nagle)
            side = yield net.connect("client", ("server", 80), opts)
            received = bytearray()
            while True:
                data = yield side.recv()
                if not data:
                    return bytes(received)
                bursts.append((env.now, len(data)))
                received.extend(data)

        env.process(server())
        received = env.run(env.process(client()))
        return received, bursts

    gathered, gathered_bursts = run(pieces)
    single, single_bursts = run(joined)
    assert gathered == single == joined
    assert gathered_bursts == single_bursts
    sizes = [size for _, size in single_bursts]
    assert sizes[0] == TcpOptions().initial_window  # starts cold
    assert max(sizes) == TcpOptions().chunk_cap  # and opens fully
