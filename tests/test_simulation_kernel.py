"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simulation import (
    AllOf,
    AnyOf,
    Environment,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(3.0)
        times.append(env.now)
        yield env.timeout(1.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [3.0, 4.5]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "result"

    process = env.process(proc(env))
    assert env.run(until=process) == "result"
    assert env.now == 2.0


def test_process_waits_on_process():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(5.0)
        order.append("child")
        return 99

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        assert value == 99

    env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter(env):
        value = yield gate
        woke.append((env.now, value))

    def opener(env):
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert woke == [(7.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def outer(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(outer(env))
    env.run()
    assert caught == ["inner"]


def test_unwaited_process_exception_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("unobserved")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unobserved"):
        env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    process = env.process(bad(env))

    def watcher(env):
        try:
            yield process
        except SimulationError:
            return "caught"

    watch = env.process(watcher(env))
    assert env.run(until=watch) == "caught"


def test_all_of_waits_for_everything():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        value = yield env.all_of([t1, t2])
        results.append((env.now, value[t1], value[t2]))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, "a", "b")]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        value = yield env.any_of([t1, t2])
        results.append((env.now, t1 in value, t2 in value))

    env.process(proc(env))
    env.run(until=10.0)
    assert results == [(1.0, True, False)]


def test_condition_operators():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0)
        t2 = env.timeout(2.0)
        yield t1 & t2
        results.append(env.now)
        t3 = env.timeout(1.0)
        t4 = env.timeout(9.0)
        yield t3 | t4
        results.append(env.now)

    env.process(proc(env))
    env.run(until=20.0)
    assert results == [2.0, 3.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        yield env.all_of([])
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [0.0]


def test_event_ordering_fifo_at_same_time():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4.0)
    # The timeout itself is scheduled.
    assert env.peek() == 4.0


def test_process_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    process = env.process(proc(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_many_processes_interleave_deterministically():
    env = Environment()
    trace = []

    def worker(env, k):
        for i in range(3):
            yield env.timeout(k)
            trace.append((env.now, k, i))

    for k in (1, 2, 3):
        env.process(worker(env, k))
    env.run()
    assert trace == sorted(trace, key=lambda t: t[0])
    assert len(trace) == 9


# -- call_at / call_later bare-callback fast path -----------------------------

def test_call_later_runs_bare_callback_at_time():
    env = Environment()
    fired = []
    env.call_later(2.5, lambda _ev: fired.append(env.now))
    env.run()
    assert fired == [2.5]


def test_call_at_absolute_time():
    env = Environment()
    fired = []
    env.call_later(1.0, lambda _ev: env.call_at(4.0, lambda _e: fired.append(env.now)))
    env.run()
    assert fired == [4.0]


def test_call_at_in_past_raises():
    env = Environment()
    env.timeout(5.0)
    env.run()
    with pytest.raises(ValueError):
        env.call_at(1.0, lambda _ev: None)


def test_call_later_negative_delay_raises():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-0.1, lambda _ev: None)


def test_call_at_now_runs_after_current_event():
    # Scheduling at the current instant from inside a callback is legal
    # and runs later in the same timestep (FIFO by insertion id).
    env = Environment()
    order = []

    def first(_ev):
        order.append("first")
        env.call_at(env.now, lambda _e: order.append("second"))

    env.call_later(1.0, first)
    env.run()
    assert order == ["first", "second"]


def test_call_interleaves_with_timeouts_fifo():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1.0)
        order.append("process")

    env.process(proc(env))
    env.call_later(1.0, lambda _ev: order.append("call"))
    env.run()
    # The bare call was heap-pushed first (the process only creates its
    # timeout when it first steps, at t=0), so it pops first at t=1.
    assert order == ["call", "process"]


def test_scheduled_call_ducktypes_event_protocol():
    from repro.simulation import ScheduledCall

    sc = ScheduledCall(lambda _ev: None)
    assert sc.triggered
    assert not sc.processed
    assert sc._ok and sc._defused
    env = Environment()
    env.call_later(0.0, lambda _ev: None)
    env.run()
    assert env.events_processed == 1


def test_scheduled_calls_count_as_events():
    env = Environment()
    for i in range(5):
        env.call_later(float(i), lambda _ev: None)
    env.run()
    assert env.events_processed == 5
    assert env.now == 4.0
