"""Unit tests for Resource and Container."""

import pytest

from repro.simulation import Container, Environment, Resource


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    grants = []

    def user(env, k):
        request = resource.request()
        yield request
        grants.append((env.now, k))
        yield env.timeout(10.0)
        resource.release(request)

    for k in range(3):
        env.process(user(env, k))
    env.run()
    # Two enter at t=0, the third at t=10 when a slot frees.
    assert grants == [(0.0, 0), (0.0, 1), (10.0, 2)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_context_manager_releases():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(env, k):
        with resource.request() as request:
            yield request
            order.append((env.now, k))
            yield env.timeout(1.0)

    env.process(user(env, "a"))
    env.process(user(env, "b"))
    env.run()
    assert order == [(0.0, "a"), (1.0, "b")]


def test_resource_count_tracks_usage():
    env = Environment()
    resource = Resource(env, capacity=3)
    observed = []

    def user(env):
        request = resource.request()
        yield request
        observed.append(resource.count)
        yield env.timeout(1.0)
        resource.release(request)

    for _ in range(3):
        env.process(user(env))
    env.run()
    assert max(observed) == 3
    assert resource.count == 0


def test_resource_cancel_queued_request():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env):
        request = resource.request()
        yield request
        yield env.timeout(5.0)
        resource.release(request)

    def impatient(env):
        request = resource.request()
        result = yield request | env.timeout(1.0)
        if request not in result:
            request.cancel()
            return "gave up"
        return "got it"

    env.process(holder(env))
    process = env.process(impatient(env))
    assert env.run(until=process) == "gave up"
    # The queue must be empty after cancellation.
    assert len(resource.queue) == 0


# ---------------------------------------------------------------- Container
def test_container_put_get_levels():
    env = Environment()
    tank = Container(env, capacity=100.0, init=50.0)
    assert tank.level == 50.0

    def proc(env):
        yield tank.get(30.0)
        assert tank.level == 20.0
        yield tank.put(70.0)
        assert tank.level == 90.0

    env.process(proc(env))
    env.run()
    assert tank.level == 90.0


def test_container_get_blocks_until_available():
    env = Environment()
    tank = Container(env, capacity=100.0, init=0.0)
    times = []

    def consumer(env):
        yield tank.get(10.0)
        times.append(env.now)

    def producer(env):
        yield env.timeout(4.0)
        yield tank.put(10.0)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [4.0]


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    times = []

    def producer(env):
        yield tank.put(5.0)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(3.0)
        yield tank.get(7.0)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [3.0]


def test_container_rejects_bad_init():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=5.0, init=9.0)

