"""Unit tests for LinkSpec and Wire."""

import pytest

from repro.net import LinkSpec, Wire
from repro.sim import Environment


def test_linkspec_derived_quantities():
    spec = LinkSpec(latency=0.05, bandwidth=1e6)
    assert spec.rtt == 0.1
    assert spec.bdp() == pytest.approx(1e5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"latency": -1, "bandwidth": 1e6},
        {"latency": 0.1, "bandwidth": 0},
        {"latency": 0.1, "bandwidth": 1e6, "jitter": -0.1},
        {"latency": 0.1, "bandwidth": 1e6, "loss_rate": 1.0},
    ],
)
def test_linkspec_validation(kwargs):
    with pytest.raises(ValueError):
        LinkSpec(**kwargs)


def _occupy(env, wire, size):
    """Hold ``wire`` for ``size`` bytes' serialisation time, as a TCP
    burst does."""
    duration = size / wire.bandwidth
    with wire.acquire() as claim:
        yield claim
        yield env.timeout(duration)
    wire.record(size, duration)


def test_wire_serialises_transmissions():
    env = Environment()
    wire = Wire(env, bandwidth=1000.0)
    done = []

    def sender(tag, size):
        yield from _occupy(env, wire, size)
        done.append((tag, env.now))

    env.process(sender("a", 500))
    env.process(sender("b", 500))
    env.run()
    # 500 bytes at 1000 B/s = 0.5 s each, serialised.
    assert done == [("a", 0.5), ("b", 1.0)]
    assert wire.bytes_carried == 1000
    assert wire.utilisation(1.0) == pytest.approx(1.0)


def test_wire_queue_length_under_contention():
    env = Environment()
    wire = Wire(env, bandwidth=1000.0)
    for _ in range(3):
        env.process(_occupy(env, wire, 1000))
    env.run(until=0.5)
    assert wire.queue_length == 2  # one transmitting, two queued


def test_wire_rejects_bad_bandwidth():
    env = Environment()
    with pytest.raises(ValueError):
        Wire(env, bandwidth=0)
