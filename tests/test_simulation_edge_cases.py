"""Edge-case tests for the simulation kernel."""

import pytest

from repro.simulation import (
    AnyOf,
    Environment,
    SimulationError,
)


def test_any_of_fails_if_child_fails_first():
    env = Environment()
    bad = env.event()
    slow = env.timeout(10.0)

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(RuntimeError("child failed"))

    def waiter(env):
        try:
            yield env.any_of([bad, slow])
        except RuntimeError as exc:
            return str(exc)
        return "ok"

    env.process(failer(env))
    process = env.process(waiter(env))
    assert env.run(until=process) == "child failed"


def test_all_of_failure_defuses_later_failures():
    """After an AllOf fails, other children failing must not crash the run."""
    env = Environment()
    first = env.event()
    second = env.event()

    def failer(env):
        yield env.timeout(1.0)
        first.fail(ValueError("first"))
        yield env.timeout(1.0)
        second.fail(ValueError("second"))

    def waiter(env):
        try:
            yield env.all_of([first, second])
        except ValueError:
            pass
        yield env.timeout(5.0)
        return "survived"

    env.process(failer(env))
    process = env.process(waiter(env))
    assert env.run(until=process) == "survived"


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc(env):
        timeout = env.timeout(1.0, value="x")
        yield env.timeout(5.0)  # timeout fires (and is processed) meanwhile
        value = yield timeout  # already processed: resume with its value
        return (env.now, value)

    process = env.process(proc(env))
    assert env.run(until=process) == (5.0, "x")


def test_yield_already_failed_event_raises():
    env = Environment()
    dead = env.event()
    dead.fail(RuntimeError("long gone"))
    dead.defused()

    def proc(env):
        yield env.timeout(2.0)
        try:
            yield dead
        except RuntimeError:
            return "raised"
        return "ok"

    process = env.process(proc(env))
    assert env.run(until=process) == "raised"


def test_run_until_event_never_triggered_raises():
    env = Environment()
    orphan = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_env_event_ordering_urgent_before_normal():
    env = Environment()
    order = []
    normal = env.event()
    urgent = env.event()
    normal._ok = True
    normal._value = "normal"
    urgent._ok = True
    urgent._value = "urgent"
    normal.callbacks.append(lambda e: order.append(e.value))
    urgent.callbacks.append(lambda e: order.append(e.value))
    env.schedule(normal, delay=1.0)
    env.schedule(urgent, delay=1.0, urgent=True)
    env.run()
    assert order == ["urgent", "normal"]
