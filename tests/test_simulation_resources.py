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


def test_free_slot_is_held_from_the_request():
    """Born processed: granted when asked for, nothing on the heap; a
    request that has to queue is granted through the heap by a release."""
    env = Environment()
    resource = Resource(env, capacity=1)
    holder = resource.request()
    assert holder.processed and holder.ok and holder.value is None
    assert resource.users == [holder] and not env._queue
    waiter = resource.request()
    assert not waiter.triggered and list(resource.queue) == [waiter]
    resource.release(holder)
    assert resource.users == [waiter] and waiter.triggered
    assert not waiter.processed and len(env._queue) == 1


def test_contended_requests_are_granted_fifo_at_the_same_instants():
    """Capacity 2, five users arriving a quarter second apart: the first
    two on the spot, then each waiter in arrival order at the release
    that frees its slot — the instants FIFO has always given."""
    env = Environment()
    resource = Resource(env, capacity=2)
    grants = []

    def user(name, arrive, hold):
        yield env.timeout(arrive)
        request = resource.request()
        if not request.processed:
            yield request
        grants.append((name, env.now))
        yield env.timeout(hold)
        resource.release(request)

    for name, arrive, hold in [("a", 0.0, 2.0), ("b", 0.25, 1.0),
                               ("c", 0.5, 1.0), ("d", 0.75, 0.5),
                               ("e", 1.0, 3.0)]:
        env.process(user(name, arrive, hold))
    env.run()
    # b frees at 1.25 (-> c), a at 2.0 (-> d), c at 2.25 (-> e).
    assert grants == [("a", 0.0), ("b", 0.25), ("c", 1.25), ("d", 2.0),
                      ("e", 2.25)]
    assert resource.count == 0 and not resource.queue


def test_yielding_a_born_processed_request_resumes_through_the_proxy():
    """``with res.request() as r: yield r`` keeps working on a free slot:
    the process resumes at the same instant through one proxy event."""
    env = Environment()
    resource = Resource(env, capacity=1)
    seen = []

    def user():
        with resource.request() as request:
            assert request.processed
            before = env.events_processed
            value = yield request
            seen.append((value, env.now, env.events_processed - before,
                         resource.count))
        seen.append(resource.count)

    env.run(until=env.process(user()))
    assert seen == [(None, 0.0, 1, 1), 0]


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


def test_container_move_that_fits_is_booked_on_the_spot():
    """A put or get that fits, with nothing of its kind queued ahead, is
    born processed; one that does not fit queues, and so does a later
    one behind it (FIFO), until a move frees room for both."""
    env = Environment()
    tank = Container(env, capacity=10.0)
    put = tank.put(4.0)
    got = tank.get(1.0)
    assert put.processed and got.processed and tank.level == 3.0
    assert not env._queue
    blocked = tank.put(8.0)
    behind = tank.put(1.0)  # would fit, but waits behind the blocked put
    assert not blocked.triggered and not behind.triggered and tank.level == 3.0
    drained = tank.get(2.0)
    assert drained.processed and tank.level == 10.0
    assert blocked.triggered and behind.triggered and len(env._queue) == 2
