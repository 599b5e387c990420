"""Unit tests for the cluster substrate (nodes, testbed, faults)."""

import pytest

from repro.cluster import FaultInjector, Testbed, TestbedConfig
from repro.simulation import TransferAborted


def test_testbed_builds_nodes_round_robin_sites():
    bed = Testbed(TestbedConfig(sites=3))
    nodes = [bed.add_node(f"n-{i}") for i in range(6)]
    sites = [n.site for n in nodes]
    assert sites == ["site-0", "site-1", "site-2", "site-0", "site-1", "site-2"]


def test_testbed_duplicate_name_rejected():
    bed = Testbed()
    bed.add_node("x")
    with pytest.raises(ValueError):
        bed.add_node("x")


def test_node_compute_occupies_core():
    bed = Testbed(TestbedConfig(cores=1))
    node = bed.add_node("n0")
    finish_times = []

    def job(env):
        yield env.process(node.compute(2.0))
        finish_times.append(env.now)

    bed.env.process(job(bed.env))
    bed.env.process(job(bed.env))
    bed.run()
    # Single core: jobs serialize.
    assert finish_times == [2.0, 4.0]


def test_node_cpu_utilization_reflects_busy_cores():
    bed = Testbed(TestbedConfig(cores=4))
    node = bed.add_node("n0")
    samples = []

    def job(env):
        yield env.process(node.compute(5.0))

    def sampler(env):
        yield env.timeout(1.0)
        samples.append(node.cpu_utilization)

    for _ in range(2):
        bed.env.process(job(bed.env))
    bed.env.process(sampler(bed.env))
    bed.run()
    assert samples == [0.5]


def test_node_disk_accounting():
    bed = Testbed(TestbedConfig(disk_mb=100.0))
    node = bed.add_node("n0")
    node.disk.put(30.0)
    assert node.disk_used_mb == 30.0
    assert node.disk_free_mb == 70.0
    assert node.disk_utilization == pytest.approx(0.3)


def test_node_fail_aborts_transfers_and_notifies():
    bed = Testbed()
    a = bed.add_node("a")
    b = bed.add_node("b")
    failures = []
    b.on_fail(lambda n: failures.append(n.name))

    def sender(env):
        done = bed.net.transfer("a", "b", 10_000.0)
        try:
            yield done
        except TransferAborted:
            return "aborted"
        return "done"

    def crasher(env):
        yield env.timeout(1.0)
        b.fail()

    process = bed.env.process(sender(bed.env))
    bed.env.process(crasher(bed.env))
    assert bed.run(until=process) == "aborted"
    assert failures == ["b"]
    assert not b.alive
    assert [n for n in bed.nodes.values() if n.alive] == [a]


def test_node_recover_rejoins_network_with_empty_disk():
    bed = Testbed()
    a = bed.add_node("a")
    b = bed.add_node("b")
    b.disk.put(50.0)
    b.fail()
    b.recover()
    assert b.alive
    assert b.disk_used_mb == 0.0
    done = bed.net.transfer("a", "b", 1.0)
    bed.run(until=done)  # must not raise


def test_fault_injector_crash_at_and_recovery():
    bed = Testbed()
    node = bed.add_node("victim")
    injector = FaultInjector(bed)
    injector.crash_at(node, at=5.0, recover_after=3.0)
    bed.run(until=4.9)
    assert node.alive
    bed.run(until=5.1)
    assert not node.alive
    bed.run(until=8.1)
    assert node.alive
    assert injector.crash_count() == 1
    assert injector.recovery_count() == 1


def test_fault_injector_poisson_is_deterministic_per_seed():
    def run_once(seed):
        bed = Testbed(TestbedConfig(seed=seed))
        nodes = [bed.add_node(f"n-{i}") for i in range(10)]
        injector = FaultInjector(bed)
        injector.poisson_crashes(nodes, rate_per_second=0.5, stop_at=20.0)
        bed.run(until=20.0)
        return [(e.time, e.node) for e in injector.log]

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


def test_fault_injector_max_crashes_bound():
    bed = Testbed()
    nodes = [bed.add_node(f"n-{i}") for i in range(10)]
    injector = FaultInjector(bed)
    injector.poisson_crashes(nodes, rate_per_second=10.0, stop_at=100.0, max_crashes=3)
    bed.run(until=100.0)
    assert injector.crash_count() == 3


def test_cross_site_latency_applies():
    bed = Testbed(TestbedConfig(sites=2, latency_local_s=0.001, latency_cross_s=0.05))
    a = bed.add_node("a", site="site-0")
    b = bed.add_node("b", site="site-1")
    done = bed.net.message("a", "b")
    bed.run(until=done)
    assert bed.now == pytest.approx(0.05)
