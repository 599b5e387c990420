"""Tests for workload behaviours and canned scenarios (end-to-end)."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.workloads import (
    CorrectReader,
    CorrectWriter,
    DosAttacker,
    build_dos_scenario,
    build_write_scenario,
)


def small_deployment(**overrides):
    defaults = dict(
        data_providers=8,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=11, rate_granularity_s=0.01),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def test_correct_writer_streams_ops():
    dep = small_deployment()
    writer = CorrectWriter(dep.new_client("w"), op_mb=128.0, max_ops=3)
    process = dep.env.process(writer.run(dep.env))
    dep.run(until=process)
    assert len(writer.results) == 3
    assert writer.total_written_mb() == pytest.approx(384.0)
    assert writer.mean_throughput() > 50.0
    assert all(r.duration_s > 0 for r in writer.results)


def test_correct_writer_respects_stop_time():
    dep = small_deployment()
    writer = CorrectWriter(dep.new_client("w"), op_mb=128.0, stop_at=5.0)
    process = dep.env.process(writer.run(dep.env))
    dep.run(until=process)
    assert dep.now < 10.0
    assert writer.results  # managed at least one op


def test_writer_with_a_deadline_survives_a_metadata_provider_crash():
    """Without a detector the network is not black-holing, so a message
    to a dead metadata provider dies of a bare ``KeyError`` — a transport
    error the client records and re-raises.  The writer must treat it as
    one (back off, try again), not let it abort the whole run."""
    dep = small_deployment(data_providers=4, chunk_size_mb=1.0)
    env = dep.env
    client = dep.new_client("w0", rpc_timeout_s=1.0)
    writer = CorrectWriter(client, op_mb=1.0, chunk_size_mb=1.0, max_ops=50,
                           think_s=0.01)
    env.process(writer.run(env))
    meta_node = dep.metadata_providers[0].node

    def outage():
        yield env.timeout(0.2)
        meta_node.fail()
        yield env.timeout(1.8)
        meta_node.recover()

    env.process(outage())
    dep.run(until=5)

    assert env.now == 5.0
    failed = [op for op in client.history if not op.ok]
    assert failed and all(meta_node.name in op.error for op in failed)
    assert all(0.2 <= op.finished_at < 2.5 for op in failed)
    for op in failed:  # each failure is followed by the 0.5 s backoff
        following = min(o.started_at for o in client.history
                        if o.started_at > op.started_at)
        assert following == pytest.approx(op.finished_at + 0.5 + 0.01)
    assert sum(1 for op in writer.results if op.started_at > 2.0) >= 10


def test_correct_reader_reads_shared_blob():
    dep = small_deployment()
    writer_client = dep.new_client("w")

    def setup(env):
        blob_id = yield env.process(writer_client.create_blob(64.0))
        yield env.process(writer_client.append(blob_id, 256.0))
        return blob_id

    process = dep.env.process(setup(dep.env))
    blob_id = dep.run(until=process)
    reader = CorrectReader(dep.new_client("r"), blob_id, op_mb=256.0, max_ops=4)
    process = dep.env.process(reader.run(dep.env))
    dep.run(until=process)
    assert len(reader.results) == 4
    assert sum(r.throughput_mbps for r in reader.results) / 4 > 50.0


def test_dos_attacker_floods_and_counts():
    dep = small_deployment()
    attacker = DosAttacker(dep.new_client("evil"), parallel=8, chunk_size_mb=1.0)
    dep.env.process(attacker.run(dep.env))
    dep.run(until=20.0)
    assert attacker.ops_issued > 40
    assert not attacker.blocked


def test_dos_attacker_stops_when_blocked():
    from repro.blobseer import AccessTable

    access = AccessTable()
    dep = BlobSeerDeployment(
        BlobSeerConfig(data_providers=4, metadata_providers=1,
                       testbed=TestbedConfig(seed=11)),
        access=access,
    )
    attacker = DosAttacker(dep.new_client("evil"), parallel=4, chunk_size_mb=1.0)
    dep.env.process(attacker.run(dep.env))

    def blocker(env):
        yield env.timeout(10.0)
        access.block("evil", "test")
        dep.net.abort_matching(lambda f: f.tag == "evil", "blocked")

    dep.env.process(blocker(dep.env))
    dep.run(until=30.0)
    assert attacker.blocked
    assert attacker.blocked_at >= 10.0
    issued_at_block = attacker.ops_issued
    dep.run(until=40.0)
    assert attacker.ops_issued == issued_at_block  # flood stopped


def test_write_scenario_builds_and_runs():
    scenario = build_write_scenario(
        clients=3, data_providers=10, metadata_providers=2,
        op_mb=256.0, ops_per_client=1, with_monitoring=True,
        monitoring_services=2, seed=3,
    )
    scenario.run()
    assert scenario.mean_client_throughput() > 50.0
    assert scenario.monitoring is not None
    assert scenario.monitoring.events_emitted > 0
    assert all(len(w.results) == 1 for w in scenario.writers)


def test_write_scenario_without_monitoring():
    scenario = build_write_scenario(
        clients=2, data_providers=8, metadata_providers=2,
        op_mb=128.0, ops_per_client=1, with_monitoring=False, seed=3,
    )
    scenario.run()
    assert scenario.monitoring is None
    assert scenario.mean_client_throughput() > 50.0


def test_dos_scenario_end_to_end_blocks_attackers():
    scenario = build_dos_scenario(
        n_clients=6,
        malicious_fraction=0.5,
        security_enabled=True,
        data_providers=12,
        metadata_providers=2,
        monitoring_services=2,
        op_mb=256.0,
        attack_start=10.0,
        attack_stagger_s=5.0,
        attack_parallel=32,
        seed=4,
        scan_interval_s=5.0,
        history_pull_interval_s=2.0,
        flush_interval_s=1.0,
        confirmations=1,
    )
    scenario.run(until=90.0)
    blocked = [a for a in scenario.attackers if a.blocked]
    assert len(blocked) == len(scenario.attackers) == 3
    # No correct client was sanctioned.
    for writer in scenario.correct:
        assert not writer.denied
    delays = scenario.detection_delays()
    assert len(delays) == 3
    assert all(0 < d < 60 for d in delays)


def test_dos_scenario_without_security_never_blocks():
    scenario = build_dos_scenario(
        n_clients=4,
        malicious_fraction=0.5,
        security_enabled=False,
        data_providers=8,
        metadata_providers=2,
        monitoring_services=2,
        op_mb=256.0,
        attack_start=5.0,
        attack_parallel=16,
        seed=4,
    )
    scenario.run(until=40.0)
    assert scenario.security is None
    assert all(not a.blocked for a in scenario.attackers)
    assert scenario.detection_delays() == []


def test_dos_scenario_attack_degrades_correct_clients():
    def mean_tput(security):
        scenario = build_dos_scenario(
            n_clients=8,
            malicious_fraction=0.5,
            security_enabled=security,
            data_providers=12,
            metadata_providers=2,
            monitoring_services=2,
            op_mb=512.0,
            attack_start=5.0,
            attack_stagger_s=2.0,
            attack_parallel=64,
            seed=4,
        )
        scenario.run(until=100.0)
        tputs = [w.mean_throughput() for w in scenario.correct if w.results]
        return sum(tputs) / len(tputs)

    attacked = mean_tput(security=False)
    protected = mean_tput(security=True)
    assert protected > attacked * 1.2  # security restores throughput
