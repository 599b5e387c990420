"""Tests for the sharded control plane (BENCH-META machinery).

Covers the determinism matrix the sharding PR promises:

- defaults (``vm_shards=1``, batching off) are byte-identical
  to a config that never mentions the new knobs, across seeds;
- sharded/batched runs are exactly reproducible per seed;
- one blob's version history stays totally ordered on its one owning
  shard under concurrent same-blob writers;
- a shard's primary can be killed mid-churn and the chaos invariants
  still hold (sharding composes with epoch-fenced failover);
- batched publish changes timings, never outcomes;
- batched allocation serves a whole write in one RPC.
"""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.blobseer.sharding import ShardRouter, shard_of
from repro.cloud import CumulusGateway
from repro.cluster import TestbedConfig
from repro.robustness import ChaosHarness, PrimaryHandle, steady_append_load
from repro.workloads.scenarios import build_fanout_scenario

SEEDS = (0, 7)


def run_fanout(seed, **overrides):
    kwargs = dict(writers=6, ops_per_writer=3, op_mb=4.0, chunk_size_mb=2.0,
                  data_providers=6, metadata_providers=2, seed=seed)
    kwargs.update(overrides)
    scenario = build_fanout_scenario(**kwargs)
    scenario.run()
    return scenario


def final_blob_state(deployment):
    """Per-blob (latest, size) across all shards — the protocol outcome."""
    state = {}
    for vm in deployment.authority_vms():
        for blob_id, info in vm.blobs.items():
            state[blob_id] = (info.latest, round(info.size_mb, 9))
    return state


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize("seed", SEEDS)
def test_defaults_byte_identical_to_unsharded_config(seed):
    """A config that spells out the new knobs' defaults produces the
    exact observable stream of one that predates them."""
    implicit = run_fanout(seed)
    explicit = run_fanout(seed, vm_shards=1, pm_shards=1, vm_batch=False)
    assert implicit.observables() == explicit.observables()


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_run_reproducible(seed):
    first = run_fanout(seed, vm_shards=4, pm_shards=2, vm_batch=True)
    second = run_fanout(seed, vm_shards=4, pm_shards=2, vm_batch=True)
    assert first.observables() == second.observables()


def test_different_seeds_diverge():
    # Round-robin consumes no randomness, so force a seeded strategy.
    a = run_fanout(0, vm_shards=4, vm_batch=True, allocation="random")
    b = run_fanout(7, vm_shards=4, vm_batch=True, allocation="random")
    assert a.observables() != b.observables()


# ------------------------------------------------------------- id routing
def test_blob_ids_partition_into_residue_classes():
    scenario = run_fanout(0, writers=8, vm_shards=4)
    dep = scenario.deployment
    for s, vm in enumerate(dep.vm_shards):
        for blob_id in vm.blobs:
            assert shard_of(blob_id, 4) == s
            assert (blob_id - 1) % 4 == s
    # Every shard minted ids (creates round-robin across shards) and the
    # registries are disjoint.
    all_blobs = [b for vm in dep.vm_shards for b in vm.blobs]
    assert len(all_blobs) == len(set(all_blobs)) == 8
    assert all(vm.blobs for vm in dep.vm_shards)


def test_shard_router_requires_targets():
    with pytest.raises(ValueError):
        ShardRouter([], iter(()))


# ------------------------------------------------- per-blob total order
def test_per_blob_total_order_under_concurrent_writers():
    """Many clients appending to ONE shared blob through 4 shards: the
    owning shard serializes them into a gap-free, time-monotone history."""
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=6, metadata_providers=2, vm_shards=4,
        vm_batch=True, testbed=TestbedConfig(seed=3),
    ))
    clients = [dep.new_client(f"c{i}") for i in range(6)]
    state = {}

    def creator():
        state["blob"] = yield from clients[0].create_blob(2.0)

    dep.env.process(creator(), name="create")
    dep.run()
    blob_id = state["blob"]

    def writer(client):
        for _ in range(4):
            yield from client.append(blob_id, 4.0)

    procs = [dep.env.process(writer(c), name=c.client_id) for c in clients]
    dep.run(until=dep.env.all_of(procs))

    owner = dep.vm_shards[shard_of(blob_id, 4)]
    info = owner.blobs[blob_id]
    versions = sorted(v for v, rec in info.versions.items() if rec.published)
    assert versions == list(range(1, 25))  # 6 writers x 4 appends, no gaps
    times = [info.versions[v].publish_time for v in versions]
    assert times == sorted(times)
    assert info.latest == 24
    # The blob exists on exactly its owning shard.
    for s, vm in enumerate(dep.vm_shards):
        assert (blob_id in vm.blobs) == (vm is owner)


# ------------------------------------------------- failover composition
def test_shard_primary_crash_mid_churn_invariants_hold():
    """vm_shards=2 x vm_replicas=3: kill shard 1's primary mid-load; the
    shard fails over under its own epoch fence and every chaos
    invariant holds across both shards."""
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=6, metadata_providers=2, chunk_size_mb=8.0,
        vm_shards=2, vm_replicas=3, testbed=TestbedConfig(seed=42),
    ))
    clients = [dep.new_client(f"c{i}", rpc_timeout_s=4.0) for i in range(2)]
    harness = ChaosHarness(dep, check_every_s=5.0, settle_s=30.0)
    assert harness.resolve_target("vm-primary").name == "vm-node"
    assert harness.resolve_target("vm-primary-s1").name == "vm-node-s1"

    def load(client):
        blob_id = yield from client.create_blob(8.0)
        yield from steady_append_load(client, blob_id, 8.0,
                                      period_s=1.0, stop_at=60.0)

    for client in clients:
        dep.env.process(load(client), name=f"load-{client.client_id}")
    dep.run(until=2.0)  # both creates land (one blob per shard)
    assert all(vm.blobs for vm in dep.vm_shards)
    harness.apply_schedule([
        {"at": 7.0, "kind": "crash", "node": "vm-primary-s1",
         "recover_after": 20.0},
    ])
    report = harness.run(until=60.0)

    harness.assert_clean()
    assert report["checks_run"] > 5
    # The crash hit shard 1's group, shard 0 never failed over.
    assert len(dep.vm_groups[1].failovers) == 1
    assert len(dep.vm_groups[0].failovers) == 0
    assert report["vm_shards"][1]["failovers"] == 1
    # Both clients kept writing through the outage.
    for client in clients:
        acked = [op for op in client.history if op.op == "append" and op.ok]
        assert len(acked) >= 30


def test_gateway_gets_the_endpoints_any_client_would():
    """The Cumulus gateway is a client: it takes its turn in the
    allocator-shard round-robin and gets per-shard failover handles."""
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=4, metadata_providers=2, pm_shards=2,
        testbed=TestbedConfig(seed=1),
    ))
    before = dep.new_client("c0")
    gateway = CumulusGateway(dep)
    after = dep.new_client("c1")
    assert [c.pm for c in (before, gateway.backend, after)] == [
        dep.pm_shards[0], dep.pm_shards[1], dep.pm_shards[0]]

    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=4, metadata_providers=2, vm_shards=2, vm_replicas=3,
        testbed=TestbedConfig(seed=1),
    ))
    router = CumulusGateway(dep).backend.vm
    assert isinstance(router, ShardRouter)
    assert [t.group for t in router.targets] == dep.vm_groups
    assert all(isinstance(t, PrimaryHandle) for t in router.targets)


# ------------------------------------------------------------- batching
def test_batching_changes_timing_not_outcomes():
    off = run_fanout(5, vm_shards=2)
    on = run_fanout(5, vm_shards=2, vm_batch=True)
    assert final_blob_state(off.deployment) == final_blob_state(on.deployment)
    assert off.completed_ops() == on.completed_ops() == 18
    gates = [vm.batch_gate for vm in on.deployment.vm_shards]
    assert all(g is not None for g in gates)
    assert sum(g.batched_ops for g in gates) > 0
    # A thundering start on one shard must actually form multi-request
    # batches (8 simultaneous creates share one gate).
    burst = run_fanout(5, writers=8, op_mb=1.0, chunk_size_mb=1.0,
                       vm_batch=True, ramp_s=0.0)
    gate = burst.deployment.vmanager.batch_gate
    assert gate.max_batch_seen >= 2
    assert gate.mean_batch_size() > 1.0


def test_least_loaded_allocation_reproducible():
    first = run_fanout(9, allocation="least_loaded", vm_shards=2, pm_shards=2)
    second = run_fanout(9, allocation="least_loaded", vm_shards=2, pm_shards=2)
    assert first.observables() == second.observables()
    assert {pm.strategy.name for pm in first.deployment.pm_shards} == {
        "least_loaded"}


def test_batched_allocation_one_rpc_per_write():
    # The one-RPC-per-chunk arm it is measured against lives in
    # benchmarks/test_bench_meta.py (BENCH-META's allocation ablation).
    batched = run_fanout(1, writers=4, ops_per_writer=2, op_mb=8.0,
                         chunk_size_mb=1.0)
    stats = batched.control_plane_stats()
    assert stats["allocated_chunks"] == 64
    assert stats["allocation_rpcs"] == 8       # one per write


# ------------------------------------------------------- gate edge cases
def test_group_commit_gate_fails_waiters_when_node_dies():
    """A VM crash mid-batch must fail queued publishes, not hang them."""
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=4, metadata_providers=2, vm_batch=True,
        testbed=TestbedConfig(seed=1),
    ))
    clients = [dep.new_client(f"c{i}") for i in range(4)]
    outcomes = []

    def writer(client):
        try:
            blob_id = yield from client.create_blob(2.0)
            yield from client.append(blob_id, 4.0)
            outcomes.append("ok")
        except Exception as exc:  # noqa: BLE001 - recording the kind
            outcomes.append(type(exc).__name__)

    for client in clients:
        dep.env.process(writer(client), name=client.client_id)

    def killer():
        yield dep.env.timeout(0.004)  # mid-way through the entry batches
        dep.testbed.node("vm-node").fail()

    dep.env.process(killer(), name="killer")
    dep.run(until=5.0)
    assert len(outcomes) == 4
    assert any(o != "ok" for o in outcomes)  # the crash was observed...
    # ...as raised RPC errors, never as a silent hang (all 4 resolved).


def test_config_validation():
    with pytest.raises(ValueError):
        BlobSeerDeployment(BlobSeerConfig(vm_shards=0))
    with pytest.raises(ValueError):
        BlobSeerDeployment(BlobSeerConfig(pm_shards=2, pm_standby=True))
