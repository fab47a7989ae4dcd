"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def worker(tag, hold):
        with res.request() as req:
            yield req
            log.append(("start", tag, env.now))
            yield env.timeout(hold)
            log.append(("end", tag, env.now))

    env.process(worker("a", 5))
    env.process(worker("b", 5))
    env.process(worker("c", 5))
    env.run()
    starts = {tag: t for kind, tag, t in log if kind == "start"}
    assert starts == {"a": 0, "b": 0, "c": 5}


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in "abcd":
        env.process(worker(tag))
    env.run()
    assert order == list("abcd")


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def checker():
        yield env.timeout(1)
        assert res.count == 1
        assert res.queue_length == 1

    env.process(holder())
    env.process(holder())
    env.process(checker())
    env.run()
    assert res.count == 0


def test_resource_release_unqueued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def impatient():
        req = res.request()
        yield env.timeout(1)
        req.release()  # withdraw before grant

    def late():
        yield env.timeout(2)
        with res.request() as req:
            yield req
            return env.now

    env.process(holder())
    env.process(impatient())
    task = env.process(late())
    assert env.run(task) == 5  # not blocked behind the withdrawn request


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)
