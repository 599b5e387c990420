"""Tests for the expanded fault-injection layer: partitions, gray
failures, probabilistic message loss, and crash/recovery race guards."""

import pytest

from repro.cluster import FaultInjector, Testbed, TestbedConfig
from repro.simulation.network import TransferAborted


def make_testbed(seed=7, **overrides):
    return Testbed(TestbedConfig(seed=seed, **overrides))


def drive(env, event_factory):
    """Start a process waiting on *event_factory()*; capture its fate."""
    outcome = {}

    def runner():
        try:
            outcome["value"] = yield event_factory()
        except Exception as exc:  # noqa: BLE001 - test harness
            outcome["error"] = exc
        outcome["at"] = env.now

    env.process(runner())
    return outcome


# ------------------------------------------------------------------ partitions
def test_partition_blackholes_crossing_messages():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    c = testbed.add_node("c")

    pid = injector.partition([a])
    crossing = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 1.0))
    inside = drive(testbed.env, lambda: testbed.net.transfer("b", "c", 1.0))
    testbed.env.run(until=10.0)
    assert "at" not in crossing        # swallowed: never delivered
    assert "at" in inside              # same-side traffic unaffected
    assert testbed.net.blackholed_transfers >= 1

    assert injector.heal(pid)
    healed = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 1.0))
    testbed.env.run(until=20.0)
    assert "at" in healed and "error" not in healed
    kinds = [e.kind for e in injector.log]
    assert kinds == ["partition", "heal"]


def test_partition_installed_mid_run_stops_the_very_next_message():
    """Messages between the pair were delivered (and their delay kept by
    the network) before any fault model existed; the partition's hook
    still sees the next one."""
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    testbed.add_node("b")
    for _ in range(3):
        testbed.env.run(until=testbed.net.transfer("a", "b", 0.0))
    assert testbed.net.fault_model is None
    injector.partition([a], heal_after=5.0)
    cut = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=testbed.env.now + 1.0)
    assert "at" not in cut and testbed.net.blackholed_transfers == 1
    testbed.env.run(until=testbed.env.now + 5.0)
    healed = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=testbed.env.now + 1.0)
    assert "at" in healed


def test_partition_blackholes_zero_payload_messages():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    testbed.add_node("b")
    testbed.add_node("c")
    injector.partition([a])
    crossing = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    inside = drive(testbed.env, lambda: testbed.net.message("b", "c"))
    testbed.env.run(until=10.0)
    assert "at" not in crossing
    assert "at" in inside
    assert testbed.net.blackholed_transfers == 1


def test_partition_aborts_inflight_flows_both_directions():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    env = testbed.env

    outgoing = drive(env, lambda: testbed.net.transfer("a", "b", 5000.0))
    incoming = drive(env, lambda: testbed.net.transfer("b", "a", 5000.0))
    env.run(until=0.5)  # both flows admitted and running

    injector.partition([a])
    env.run(until=1.0)
    assert isinstance(outgoing["error"], TransferAborted)
    assert isinstance(incoming["error"], TransferAborted)
    assert outgoing["at"] == pytest.approx(0.5)


def test_partition_aborts_a_payload_sent_just_before_the_cut():
    """The payload is still in its propagation delay when the cut falls:
    it used to be admitted after it and delivered in full."""
    testbed = make_testbed(latency_cross_s=0.01)
    injector = FaultInjector(testbed)
    a = testbed.add_node("a", site="site-0")
    testbed.add_node("b", site="site-1")
    env = testbed.env
    sent = drive(env, lambda: testbed.net.transfer("a", "b", 10.0))

    def cut():
        yield env.timeout(0.005)
        injector.partition([a])

    env.process(cut())
    env.run(until=1.0)
    assert isinstance(sent["error"], TransferAborted)
    assert sent["at"] == 0.005 and testbed.net.total_delivered == 0.0


def test_partition_heals_automatically():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    testbed.add_node("b")
    injector.partition([a], heal_after=5.0)
    assert injector.active_partitions() == 1
    testbed.env.run(until=6.0)
    assert injector.active_partitions() == 0
    assert [e.kind for e in injector.log] == ["partition", "heal"]


def test_partition_site_cuts_whole_site():
    testbed = make_testbed(sites=2)
    injector = FaultInjector(testbed)
    for i in range(4):  # round-robins across site-0/site-1
        testbed.add_node(f"n-{i}")
    site0 = [n.name for n in testbed.nodes_at("site-0")]
    site1 = [n.name for n in testbed.nodes_at("site-1")]
    assert site0 and site1

    injector.partition_site("site-0")
    env = testbed.env
    cross = drive(env, lambda: testbed.net.transfer(site0[0], site1[0], 0.0))
    local = drive(env, lambda: testbed.net.transfer(site0[0], site0[1], 0.0))
    env.run(until=5.0)
    assert "at" not in cross
    assert "at" in local


def test_partition_requires_nodes():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    with pytest.raises(ValueError):
        injector.partition([])
    with pytest.raises(ValueError):
        injector.partition_site("site-99")


def test_heal_is_idempotent():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    pid = injector.partition([a])
    assert injector.heal(pid)
    assert not injector.heal(pid)


# ------------------------------------------------------------------ gray failures
def test_degrade_nic_slows_bulk_transfers():
    def timed_transfer(factor):
        testbed = make_testbed()
        injector = FaultInjector(testbed)
        a = testbed.add_node("a")
        testbed.add_node("b")
        if factor is not None:
            injector.degrade_nic(a, bandwidth_factor=factor)
        outcome = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 100.0))
        testbed.env.run(until=600.0)
        return outcome["at"]

    baseline = timed_transfer(None)
    degraded = timed_transfer(0.5)
    assert degraded == pytest.approx(2 * baseline, rel=0.05)


def test_degrade_nic_latency_factor_delays_messages():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    testbed.add_node("b")

    before = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=1.0)
    injector.degrade_nic(a, bandwidth_factor=1.0, latency_factor=10.0)
    after = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=2.0)
    base_latency = before["at"]
    degraded_latency = after["at"] - 1.0
    assert degraded_latency == pytest.approx(10 * base_latency)

    # Restore brings latency (and the log) back to normal.
    assert injector.restore_nic(a)
    restored = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=3.0)
    assert restored["at"] - 2.0 == pytest.approx(base_latency)
    assert [e.kind for e in injector.log] == ["degrade", "restore"]


def test_degrade_nic_restores_after_duration():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    original = a.netnode.capacity_out
    injector.degrade_nic(a, bandwidth_factor=0.25, duration_s=5.0)
    assert a.netnode.capacity_out == pytest.approx(original * 0.25)
    testbed.env.run(until=6.0)
    assert a.netnode.capacity_out == pytest.approx(original)


def test_degrade_nic_guards():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    with pytest.raises(ValueError):
        injector.degrade_nic(a, bandwidth_factor=0.0)
    with pytest.raises(ValueError):
        injector.degrade_nic(a, latency_factor=0.5)
    injector.degrade_nic(a, bandwidth_factor=0.5)
    with pytest.raises(ValueError):
        injector.degrade_nic(a, bandwidth_factor=0.5)  # already degraded
    assert injector.restore_nic(a)
    assert not injector.restore_nic(a)  # idempotent


# ------------------------------------------------------------------ message loss
def _loss_pattern(seed, sends=40, rate=0.5, warm_up=0):
    testbed = make_testbed(seed=seed)
    injector = FaultInjector(testbed)
    if not warm_up:
        injector.set_message_loss(rate)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    delivered = []

    def sender(env):
        for _ in range(warm_up):  # no fault model yet: the network keeps
            yield testbed.net.transfer("a", "b", 0.0)  # the pair's delay
        if warm_up:
            injector.set_message_loss(rate)
        for i in range(sends):
            event = testbed.net.transfer("a", "b", 0.0)
            outcome = drive(env, lambda e=event: e)
            yield env.timeout(1.0)
            delivered.append("at" in outcome)

    testbed.env.process(sender(testbed.env))
    testbed.env.run(until=sends + 5.0)
    return delivered


def test_message_loss_is_seed_deterministic():
    first = _loss_pattern(seed=31)
    second = _loss_pattern(seed=31)
    assert first == second
    assert any(first) and not all(first)  # some dropped, some delivered
    assert _loss_pattern(seed=32) != first


def test_message_loss_drop_pattern_is_frozen():
    """The loss stream is consulted once per send, in send order, for
    zero-payload messages too: the pattern below was recorded at commit
    c8911bc, before messages became single kernel events."""
    pattern = "".join("1" if ok else "0" for ok in _loss_pattern(seed=31))
    assert pattern == "1100100110011110100001000101100100000000"
    # Armed mid-run, after the network has kept the pair's delay: the
    # very next send draws, and the stream is the same.
    assert _loss_pattern(seed=31, warm_up=5) == _loss_pattern(seed=31)


def test_message_loss_validation_and_off_switch():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    with pytest.raises(ValueError):
        injector.set_message_loss(1.0)
    with pytest.raises(ValueError):
        injector.set_message_loss(-0.1)
    injector.set_message_loss(0.9)
    injector.set_message_loss(0.0)  # disable again
    testbed.add_node("a")
    testbed.add_node("b")
    outcome = drive(testbed.env, lambda: testbed.net.transfer("a", "b", 0.0))
    testbed.env.run(until=1.0)
    assert "at" in outcome


def test_loss_stream_does_not_perturb_crash_schedule():
    def crash_times(with_loss):
        testbed = make_testbed(seed=17)
        injector = FaultInjector(testbed)
        if with_loss:
            injector.set_message_loss(0.3)
        nodes = [testbed.add_node(f"n-{i}") for i in range(6)]
        injector.poisson_crashes(nodes, rate_per_second=0.1, stop_at=50.0)
        testbed.env.run(until=60.0)
        return [(e.time, e.node) for e in injector.events_of("crash")]

    assert crash_times(False) == crash_times(True)


# ------------------------------------------------------------------ race guards
def test_crash_on_dead_node_schedules_no_recovery():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    node = testbed.add_node("n")
    node.fail()  # someone else's crash
    injector.crash_at(node, at=1.0, recover_after=2.0)
    testbed.env.run(until=10.0)
    assert not node.alive  # the spurious recovery never fired
    assert injector.log == []


def test_duplicate_recovery_requests_coalesce():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    node = testbed.add_node("n")
    injector.crash_at(node, at=1.0)
    testbed.env.run(until=1.5)
    injector.crash_recovery_later(node, 3.0)
    injector.crash_recovery_later(node, 5.0)  # duplicate: first wins
    testbed.env.run(until=20.0)
    assert node.alive
    assert [e.kind for e in injector.log] == ["crash", "recover"]
    assert injector.events_of("recover")[0].time == pytest.approx(4.5)


def test_stale_recovery_timer_is_inert_across_epochs():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    node = testbed.add_node("n")
    injector.crash_at(node, at=1.0)
    testbed.env.run(until=1.5)
    injector.crash_recovery_later(node, 10.0)  # would fire at 11.5
    # Manual recover + second crash in the meantime -> new epoch.
    node.recover()
    injector.crash_at(node, at=3.0)
    testbed.env.run(until=30.0)
    # The stale timer must not resurrect epoch-2's crash.
    assert not node.alive
    assert [e.kind for e in injector.log] == ["crash", "crash"]


def test_crash_recovery_cycle_alternates_in_log():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    node = testbed.add_node("n")
    injector.crash_at(node, at=1.0, recover_after=2.0)
    injector.crash_at(node, at=10.0, recover_after=2.0)
    testbed.env.run(until=20.0)
    assert [(e.kind) for e in injector.log] == [
        "crash", "recover", "crash", "recover"
    ]
    assert node.alive


def test_second_fault_model_rejected():
    testbed = make_testbed()
    injector = FaultInjector(testbed)
    other = FaultInjector(testbed)
    a = testbed.add_node("a")
    injector.partition([a])
    with pytest.raises(RuntimeError):
        other.set_message_loss(0.5)
