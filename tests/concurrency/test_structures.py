"""``bounded_gather``: the one code path that spawns and joins lanes.

Every guarantee is checked on both runtimes — deterministic simulator
tasks and OS threads — because every chunk mover (``get_many``,
multi-stream, third-party copy) leans on them.
"""

import threading

import pytest

from repro.concurrency import SimRuntime, Sleep, ThreadRuntime, bounded_gather
from repro.net import Network
from repro.sim import Environment


def sim_runtime():
    net = Network(Environment(), seed=5)
    net.add_host("client")
    return SimRuntime(net, "client")


@pytest.fixture(params=[sim_runtime, ThreadRuntime], ids=["sim", "threads"])
def runtime(request):
    return request.param()


def returning(value, delay=0.0):
    def thunk():
        yield Sleep(delay)
        return value

    return thunk


def raising(error):
    def thunk():
        yield Sleep(0.0)
        raise error

    return thunk


def test_errors_are_captured_per_operation_in_submission_order(runtime):
    boom = KeyError("boom")
    # The first operation finishes last: order is by submission.
    outcomes = runtime.run(
        bounded_gather(
            [returning("a", delay=0.02), raising(boom), returning("c")],
            limit=2,
        )
    )
    assert [outcome.index for outcome in outcomes] == [0, 1, 2]
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[0].unwrap() == "a" and outcomes[2].unwrap() == "c"
    assert outcomes[1].error is boom
    with pytest.raises(KeyError):
        outcomes[1].unwrap()


def test_zero_thunks_spawn_nothing(runtime):
    assert runtime.run(bounded_gather([], limit=4)) == []


def test_limit_below_one_is_rejected(runtime):
    with pytest.raises(ValueError):
        runtime.run(bounded_gather([returning(1)], limit=0))


@pytest.mark.parametrize("limit, n, width", [(3, 8, 3), (8, 3, 3), (1, 5, 1)])
def test_lane_width_is_min_of_limit_and_n(runtime, limit, n, width):
    lock = threading.Lock()
    in_flight = {"now": 0, "peak": 0}

    def started():
        with lock:
            in_flight["now"] += 1
            in_flight["peak"] = max(in_flight["peak"], in_flight["now"])

    def finished():
        with lock:
            in_flight["now"] -= 1

    outcomes = runtime.run(
        bounded_gather(
            [returning(i, delay=0.01) for i in range(n)],
            limit=limit,
            on_start=started,
            on_finish=finished,
        )
    )
    assert [outcome.unwrap() for outcome in outcomes] == list(range(n))
    # Every lane is busy at once (each operation sleeps), none extra.
    assert in_flight["peak"] == width
    assert in_flight["now"] == 0


def test_start_and_finish_hooks_balance_when_an_operation_raises(runtime):
    lock = threading.Lock()
    calls = {"start": 0, "finish": 0}

    def count(key):
        def hook():
            with lock:
                calls[key] += 1

        return hook

    outcomes = runtime.run(
        bounded_gather(
            [raising(ValueError("x")), returning(1), raising(OSError("y"))],
            limit=2,
            on_start=count("start"),
            on_finish=count("finish"),
        )
    )
    assert [outcome.ok for outcome in outcomes] == [False, True, False]
    assert calls == {"start": 3, "finish": 3}
