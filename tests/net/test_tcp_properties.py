"""Property-based tests of the TCP model's core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import LinkSpec, Network, TcpOptions
from repro.sim import Environment


def transfer(payloads, latency, bandwidth, chunk_cap, max_window, seed):
    """Send `payloads` over a fresh sim connection; return what arrives
    and the completion time."""
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("a")
    net.add_host("b")
    net.set_route("a", "b", LinkSpec(latency=latency, bandwidth=bandwidth))
    listener = net.listen("b", 1)
    options = TcpOptions(chunk_cap=chunk_cap, max_window=max_window)
    received = bytearray()

    def server():
        side = yield listener.accept()
        while True:
            data = yield side.recv()
            if not data:
                return
            received.extend(data)

    def client():
        side = yield net.connect("a", ("b", 1), options)
        for payload in payloads:
            yield side.send(payload)
        side.close()

    server_task = env.process(server())
    env.process(client())
    env.run(server_task)
    return bytes(received), env.now


@settings(max_examples=30)
@given(
    st.lists(st.binary(min_size=0, max_size=50_000), max_size=8),
    st.sampled_from([1e-5, 0.001, 0.05]),
    st.sampled_from([1e5, 1e7, 1e9]),
    st.sampled_from([1460, 8192, 65536]),
    st.integers(min_value=0, max_value=5),
)
def test_bytes_conserved_and_ordered(
    payloads, latency, bandwidth, chunk_cap, seed
):
    """Whatever the write pattern and link, the receiver gets exactly
    the concatenation of the writes."""
    data, _ = transfer(
        payloads, latency, bandwidth, chunk_cap, 4 << 20, seed
    )
    assert data == b"".join(payloads)


@settings(max_examples=20)
@given(
    st.integers(min_value=1, max_value=500_000),
    st.sampled_from([0.001, 0.02]),
    st.sampled_from([1e6, 1e8]),
)
def test_completion_time_bounded_below_by_physics(size, latency, bandwidth):
    """No transfer can beat handshake + serialisation + propagation."""
    data, finished = transfer(
        [b"x" * size], latency, bandwidth, 65536, 4 << 20, seed=1
    )
    assert len(data) == size
    physical_floor = 2 * latency + size / bandwidth + latency
    assert finished >= physical_floor * 0.999


@settings(max_examples=15)
@given(
    st.integers(min_value=1000, max_value=300_000),
    st.integers(min_value=2920, max_value=65536),
)
def test_window_cap_never_exceeded(size, max_window):
    """In-flight bytes never exceed the window cap (plus one burst)."""
    env = Environment()
    net = Network(env, seed=2)
    net.add_host("a")
    net.add_host("b")
    net.set_route("a", "b", LinkSpec(latency=0.01, bandwidth=1e9))
    listener = net.listen("b", 1)
    options = TcpOptions(max_window=max_window, chunk_cap=8192)
    peak = {"inflight": 0}

    def server():
        side = yield listener.accept()
        while True:
            data = yield side.recv()
            if not data:
                return

    def client():
        side = yield net.connect("a", ("b", 1), options)
        half = side._out
        original = half._on_ack

        def spy(n, lost):
            peak["inflight"] = max(peak["inflight"], half.inflight)
            original(n, lost)

        half._on_ack = spy
        yield side.send(b"x" * size)
        side.close()

    server_task = env.process(server())
    env.process(client())
    env.run(server_task)
    assert peak["inflight"] <= max_window + options.chunk_cap
