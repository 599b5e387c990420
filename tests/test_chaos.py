"""Tests for the chaos soak harness and declarative fault schedules."""

import os

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig
from repro.robustness import ChaosHarness, steady_append_load


def make_deployment(seed=11, providers=6, **overrides):
    defaults = dict(
        data_providers=providers,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


# ------------------------------------------------------------------ schedules
def test_schedule_round_trips_through_plain_dicts():
    dep = make_deployment()
    injector = FaultInjector(dep.testbed)
    schedule = [
        {"at": 5.0, "kind": "crash", "node": "provider-1-node",
         "recover_after": 10.0},
        {"at": 8.0, "kind": "partition", "nodes": ["provider-2-node"],
         "heal_after": 4.0, "label": "rack"},
        {"at": 20.0, "kind": "crash", "node": "provider-3-node"},
        {"at": 25.0, "kind": "recover", "node": "provider-3-node"},
    ]
    assert injector.apply_schedule(schedule) == 4
    dep.run(until=30.0)

    log = injector.export_log()
    # Every entry is a plain JSON-able dict.
    assert all(set(e) == {"at", "kind", "node"} for e in log)
    kinds = [e["kind"] for e in log]
    assert kinds.count("crash") == 2
    assert kinds.count("recover") == 2
    assert kinds.count("partition") == 1
    assert kinds.count("heal") == 1

    # Crash/recover entries replay as the next run's schedule.
    replay = [e for e in log if e["kind"] in ("crash", "recover")]
    dep2 = make_deployment()
    injector2 = FaultInjector(dep2.testbed)
    assert injector2.apply_schedule(replay) == 4
    dep2.run(until=30.0)
    assert injector2.crash_count() == 2
    assert injector2.recovery_count() == 2


def test_schedule_rejects_unknown_kind():
    dep = make_deployment()
    injector = FaultInjector(dep.testbed)
    with pytest.raises(ValueError):
        injector.apply_schedule([{"at": 1.0, "kind": "meteor", "node": "x"}])


def test_schedule_labelled_heal_and_message_loss():
    dep = make_deployment()
    injector = FaultInjector(dep.testbed)
    injector.apply_schedule([
        {"at": 2.0, "kind": "partition", "nodes": ["provider-0-node"],
         "label": "split"},
        {"at": 6.0, "kind": "heal", "label": "split"},
        {"at": 0.0, "kind": "message_loss", "rate": 0.05},
    ])
    dep.run(until=4.0)
    assert injector.active_partitions() == 1
    dep.run(until=10.0)
    assert injector.active_partitions() == 0
    assert injector._loss_rate == 0.05


def test_harness_resolves_role_aliases():
    dep = make_deployment(vm_replicas=3, pm_standby=True)
    harness = ChaosHarness(dep)
    assert harness.resolve_target("vm-primary").name == "vm-node"
    assert harness.resolve_target("pm-active").name == "pm-node"
    assert harness.resolve_target("provider-1-node").name == "provider-1-node"
    # After the boot primary dies, the alias follows the failover.
    dep.testbed.node("vm-node").fail()
    dep.run(until=30.0)
    assert harness.resolve_target("vm-primary").name != "vm-node"


def test_harness_aliases_fall_back_without_groups():
    dep = make_deployment()
    harness = ChaosHarness(dep)
    assert harness.resolve_target("vm-primary") is dep.vmanager.node
    assert harness.resolve_target("pm-active") is dep.pmanager.node


# ------------------------------------------------------------------ the soak
def test_chaos_soak_primary_crash_all_invariants_hold():
    dep = make_deployment(seed=42, vm_replicas=3, pm_standby=True)
    client = dep.new_client("c1", rpc_timeout_s=4.0)
    harness = ChaosHarness(dep, check_every_s=5.0, settle_s=30.0)

    state = {}

    def setup():
        blob_id = yield from client.create_blob(8.0)
        state["blob"] = blob_id
        yield from steady_append_load(client, blob_id, 8.0,
                                      period_s=1.0, stop_at=60.0)

    dep.env.process(setup(), name="load")
    dep.run(until=2.0)  # let create_blob land before faults fire
    harness.apply_schedule([
        {"at": 7.0, "kind": "crash", "node": "vm-primary",
         "recover_after": 20.0},
        {"at": 40.0, "kind": "crash", "node": "pm-active",
         "recover_after": 15.0},
    ])
    report = harness.run(until=60.0)

    harness.assert_clean()
    assert report["violations"] == []
    assert report["checks_run"] > 5
    assert report["crashes"] == 2
    assert report["recoveries"] == 2
    assert len(report["vm_failovers"]) == 1
    assert report["vm_failovers"][0]["failover_latency_s"] >= 0.0
    assert len(report["pm_failovers"]) == 1

    # The load actually ran through both outages.
    acked = [op for op in client.history
             if op.op == "append" and op.ok]
    assert len(acked) >= 30


def test_chaos_soak_detects_injected_violation():
    """The checkers are live: corrupting the authority's state trips them."""
    dep = make_deployment(seed=7, vm_replicas=3)
    client = dep.new_client("c1")
    harness = ChaosHarness(dep, settle_s=0.0)

    def setup():
        blob_id = yield from client.create_blob(8.0)
        for _ in range(3):
            yield from client.append(blob_id, 8.0)

    dep.env.process(setup(), name="load")
    dep.run(until=20.0)

    # Forge a lost acked write: unpublish the newest version at the
    # authority (published is derived from publish_time).
    vm = dep.vm_group.active_vm()
    blob_id, info = next(iter(vm.blobs.items()))
    info.versions[info.latest].publish_time = None
    harness.check_invariants([client], final=True)
    assert any(v.invariant == "acked_writes_durable" for v in harness.violations)
    assert any(v.invariant == "gap_free_history" for v in harness.violations)
    with pytest.raises(AssertionError):
        harness.assert_clean()


def test_chaos_soak_unreplicated_baseline_is_clean():
    """The harness also runs against the default single-manager wiring."""
    dep = make_deployment(seed=3)
    client = dep.new_client("c1")
    harness = ChaosHarness(dep, check_every_s=5.0, settle_s=10.0)

    def setup():
        blob_id = yield from client.create_blob(8.0)
        yield from steady_append_load(client, blob_id, 8.0,
                                      period_s=1.0, stop_at=25.0)

    dep.env.process(setup(), name="load")
    dep.run(until=2.0)
    harness.apply_schedule([
        {"at": 6.0, "kind": "crash", "node": "provider-1-node",
         "recover_after": 8.0},
    ])
    report = harness.run(until=25.0)
    harness.assert_clean()
    assert "vm" not in report  # no replication group in the default wiring
    assert report["crashes"] == 1


# ------------------------------------------------------------------ CI smoke
def _soak_seeds():
    """Seeds of the chaos smoke: 42 and 43 on every tier-1 run (about
    1.5 s each), or the wider matrix named by ``CHAOS_SOAK_SEEDS=...``."""
    raw = os.environ.get("CHAOS_SOAK_SEEDS", "42,43")
    return [int(s) for s in raw.split(",") if s.strip()]


@pytest.mark.parametrize("seed", _soak_seeds())
def test_chaos_smoke_seed_matrix(seed):
    """Small schedule, every invariant on — the replicated control plane
    (handles, election, PM takeover) checked on every PR."""
    dep = make_deployment(seed=seed, vm_replicas=3, pm_standby=True)
    client = dep.new_client("c1", rpc_timeout_s=4.0)
    harness = ChaosHarness(dep, check_every_s=5.0, settle_s=30.0)

    def setup():
        blob_id = yield from client.create_blob(8.0)
        yield from steady_append_load(client, blob_id, 8.0,
                                      period_s=1.0, stop_at=45.0)

    dep.env.process(setup(), name="load")
    dep.run(until=2.0)
    harness.apply_schedule([
        {"at": 6.0, "kind": "crash", "node": "vm-primary",
         "recover_after": 15.0},
        {"at": 30.0, "kind": "crash", "node": "pm-active",
         "recover_after": 10.0},
    ])
    report = harness.run(until=45.0)
    harness.assert_clean()
    assert report["crashes"] == 2
    assert len(report["vm_failovers"]) == 1
