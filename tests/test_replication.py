"""Tests for the replicated version manager and warm-standby provider manager.

Covers the PR-7 tentpole: quorum-committed publish log, epoch-fenced
failover, catch-up of rejoining replicas, client-side primary discovery,
and provider-manager warm standby — plus the opt-in guarantee that the
default (``vm_replicas=1``) wiring is untouched.
"""

import numpy as np
import pytest

from repro.adaptation import (
    ElasticityController,
    RemovalManager,
    ReplicationManager,
)
from repro.adaptation.replication_manager import migrate_chunks
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.blobseer.errors import NoActivePrimary, NotActivePrimary
from repro.cluster import FaultInjector, TestbedConfig
from repro.robustness import PrimaryHandle, ProviderManagerHandle
from repro.robustness.replication import (
    BACKOFF_BASE_S,
    BACKOFF_MAX_S,
    MAX_SWITCHES,
    PRIMARY,
    PROBE_TIMEOUT_S,
    RESOLVE_ROUNDS,
    RPC_TIMEOUT_S,
    STANDBY,
)


def make_deployment(seed=11, providers=6, **overrides):
    defaults = dict(
        data_providers=providers,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def make_replicated(seed=11, replicas=3, pm_standby=False, **overrides):
    return make_deployment(
        seed=seed, vm_replicas=replicas, pm_standby=pm_standby, **overrides
    )


def append_loop(dep, client, blob_id, count, period_s=1.0, results=None):
    """Driver generator: *count* appends, recording outcomes."""
    if results is None:
        results = []

    def driver():
        for _ in range(count):
            try:
                result = yield from client.append(blob_id, 8.0)
            except Exception as exc:  # recorded in history; keep going
                results.append((dep.now, False, None, str(exc)))
            else:
                results.append((dep.now, result.ok, result.version, None))
            yield dep.env.timeout(period_s)

    dep.env.process(driver(), name="append-loop")
    return results


# ------------------------------------------------------------------ opt-in
def test_default_deployment_has_no_replication_groups():
    dep = make_deployment()
    assert dep.vm_group is None
    assert dep.pm_group is None
    client = dep.new_client("c1")
    # Clients talk straight to the managers — no handle indirection.
    assert client.vm is dep.vmanager
    assert client.pm is dep.pmanager
    assert not isinstance(client.vm, PrimaryHandle)
    assert not isinstance(client.pm, ProviderManagerHandle)


def test_replicated_deployment_dispenses_handles():
    dep = make_replicated()
    assert dep.vm_group is not None
    assert len(dep.vm_group.replicas) == 3
    assert dep.vm_group.quorum == 2
    client = dep.new_client("c1")
    assert isinstance(client.vm, PrimaryHandle)
    # Boot primary is replica 0 (the base deployment's vm-node).
    boot = dep.vm_group.replicas[0]
    assert boot.role == PRIMARY and boot.epoch == 1
    assert all(r.role == STANDBY for r in dep.vm_group.replicas[1:])


# ------------------------------------------------------------------ mirroring
def test_standbys_mirror_published_history():
    dep = make_replicated()
    client = dep.new_client("c1")

    done = {}

    def driver():
        blob_id = yield from client.create_blob(8.0)
        for _ in range(5):
            yield from client.append(blob_id, 8.0)
        done["blob"] = blob_id

    dep.env.process(driver(), name="driver")
    dep.run(until=30.0)  # a few heartbeat periods for the tail to ship

    blob_id = done["blob"]
    primary = dep.vm_group.active_replica()
    assert primary is not None
    authority = primary.vm.blobs[blob_id]
    assert authority.latest == 5
    for replica in dep.vm_group.replicas:
        assert len(replica.log) == len(primary.log)
        mirror = replica.vm.blobs[blob_id]
        assert mirror.latest == authority.latest
        assert mirror.published_versions() == authority.published_versions()
    # Standbys replay the same log but never serve.
    assert sum(r.serving() for r in dep.vm_group.replicas) == 1


# ------------------------------------------------------------------ failover
def test_primary_crash_failover_loses_no_acked_writes():
    dep = make_replicated(seed=42)
    client = dep.new_client("c1", rpc_timeout_s=4.0)

    state = {}
    results = []

    def driver():
        blob_id = yield from client.create_blob(8.0)
        state["blob"] = blob_id
        for _ in range(25):
            try:
                result = yield from client.append(blob_id, 8.0)
            except Exception as exc:
                results.append((dep.now, False, None, str(exc)))
            else:
                results.append((dep.now, result.ok, result.version, None))
            yield dep.env.timeout(1.0)

    def chaos():
        yield dep.env.timeout(7.0)
        dep.testbed.node("vm-node").fail()

    dep.env.process(driver(), name="driver")
    dep.env.process(chaos(), name="chaos")
    dep.run(until=80.0)

    # Exactly one failover, epoch-fenced above the boot epoch.
    assert len(dep.vm_group.failovers) == 1
    event = dep.vm_group.failovers[0]
    assert event.epoch == 2
    assert event.old_primary == "vm-node"
    assert event.failover_latency_s is not None
    assert event.failover_latency_s >= 0.0
    assert event.outage_s > 0.0

    # The new primary serves and is the only one serving.
    active = dep.vm_group.active_replica()
    assert active is not None and active.name != "vm-node"
    assert sum(r.serving() for r in dep.vm_group.replicas) == 1

    # Zero lost acked writes: every acked version is published at the
    # new primary, and the history is gap-free.
    acked = [v for (_, ok, v, _) in results if ok]
    assert len(acked) >= 15  # the burst kept going through the outage
    info = dep.vm_group.active_vm().blobs[state["blob"]]
    published = set(info.published_versions())
    assert all(v in published for v in acked)
    for version in range(1, info.next_version):
        record = info.versions.get(version)
        assert record is not None, f"version {version} unaccounted"
        assert record.published or record.abandoned


def test_rejoining_replica_catches_up_after_recovery():
    dep = make_replicated(seed=42)
    client = dep.new_client("c1", rpc_timeout_s=4.0)

    state = {}
    append_loop_results = []

    def driver():
        blob_id = yield from client.create_blob(8.0)
        state["blob"] = blob_id
        for _ in range(30):
            try:
                result = yield from client.append(blob_id, 8.0)
            except Exception:
                append_loop_results.append(False)
            else:
                append_loop_results.append(result.ok)
            yield dep.env.timeout(1.0)

    def chaos():
        yield dep.env.timeout(7.0)
        dep.testbed.node("vm-node").fail()
        yield dep.env.timeout(15.0)
        dep.testbed.node("vm-node").recover()

    dep.env.process(driver(), name="driver")
    dep.env.process(chaos(), name="chaos")
    dep.run(until=90.0)

    # The crashed boot primary rejoined as a standby and was re-fed the
    # full log by the new primary's heartbeat shipper.
    rejoined = dep.vm_group.replicas[0]
    assert rejoined.node.alive
    assert rejoined.role == STANDBY and not rejoined.serving()
    active = dep.vm_group.active_replica()
    assert active is not None and active is not rejoined
    assert len(rejoined.log) == len(active.log)
    blob_id = state["blob"]
    assert (
        rejoined.vm.blobs[blob_id].published_versions()
        == active.vm.blobs[blob_id].published_versions()
    )


def test_partitioned_primary_is_epoch_fenced():
    dep = make_replicated(seed=13)
    client = dep.new_client("c1", rpc_timeout_s=4.0)
    injector = FaultInjector(dep.testbed)

    state = {}

    def driver():
        blob_id = yield from client.create_blob(8.0)
        state["blob"] = blob_id
        for _ in range(30):
            try:
                yield from client.append(blob_id, 8.0)
            except Exception:
                pass
            yield dep.env.timeout(1.0)

    def chaos():
        yield dep.env.timeout(6.0)
        # Cut the boot primary off from everyone: it cannot reach quorum,
        # so it must depose itself; the majority side elects epoch 2.
        injector.partition(["vm-node"], heal_after=20.0, label="vm-split")

    dep.env.process(driver(), name="driver")
    dep.env.process(chaos(), name="chaos")
    dep.run(until=90.0)

    old = dep.vm_group.replicas[0]
    active = dep.vm_group.active_replica()
    assert active is not None and active is not old
    assert active.epoch >= 2
    # The old primary deposed (quorum loss or a higher promise) and never
    # acked a write the majority side doesn't have.
    assert not old.serving()
    assert sum(r.serving() for r in dep.vm_group.replicas) == 1
    # After heal the minority side converges onto the new epoch's log.
    assert len(old.log) == len(active.log)
    assert old.last_epoch() == active.last_epoch()


def test_quorum_loss_rejects_writes():
    dep = make_replicated(seed=9)
    client = dep.new_client("c1", rpc_timeout_s=2.0)

    state = {"error": None}

    def driver():
        blob_id = yield from client.create_blob(8.0)
        yield from client.append(blob_id, 8.0)
        # Kill both standbys: no quorum anywhere, so the primary must
        # depose rather than ack unreplicated writes.
        dep.testbed.node("vm-node-1").fail()
        dep.testbed.node("vm-node-2").fail()
        try:
            yield from client.append(blob_id, 8.0)
        except Exception as exc:
            state["error"] = exc

    dep.env.process(driver(), name="driver")
    dep.run(until=120.0)

    assert state["error"] is not None
    assert dep.vm_group.active_replica() is None
    assert all(not r.serving() for r in dep.vm_group.replicas)


# ------------------------------------------------------------------ PM standby
def test_provider_manager_standby_takeover():
    dep = make_replicated(seed=21, pm_standby=True)
    client = dep.new_client("c1", rpc_timeout_s=4.0)
    assert dep.pm_group is not None
    assert dep.pm_group.active_pm() is dep.pmanager
    assert dep.pm_group.managers[1].standby

    state = {}
    results = []

    def driver():
        blob_id = yield from client.create_blob(8.0)
        state["blob"] = blob_id
        for _ in range(25):
            try:
                result = yield from client.append(blob_id, 8.0)
            except Exception:
                results.append(False)
            else:
                results.append(result.ok)
            yield dep.env.timeout(1.0)

    def chaos():
        yield dep.env.timeout(8.0)
        dep.testbed.node("pm-node").fail()

    dep.env.process(driver(), name="driver")
    dep.env.process(chaos(), name="chaos")
    dep.run(until=90.0)

    # The standby took over and rebuilt the provider pool from
    # re-registrations; allocations kept flowing.
    assert len(dep.pm_group.failovers) == 1
    active = dep.pm_group.active_pm()
    assert active.node.name == "pm-node-standby"
    assert not active.standby
    assert active.pool_size() == len(dep.providers)
    assert sum(results) >= 15


def test_engines_follow_membership_after_a_takeover():
    """A deposed boot manager recovers as the *empty* standby: the
    self-* engines must read the pool through the active manager, or
    they see no providers (and elasticity reads its empty-pool sentinel
    1.0 as scale-up pressure)."""
    dep = make_replicated(seed=21, replicas=1, pm_standby=True)
    client = dep.new_client("c1", rpc_timeout_s=4.0)

    def write():
        blob_id = yield from client.create_blob(8.0)
        yield from client.append(blob_id, 32.0)

    dep.env.process(write(), name="write")
    FaultInjector(dep.testbed).crash_at(
        dep.testbed.node("pm-node"), at=5.0, recover_after=20.0)
    dep.run(until=60.0)
    assert dep.pmanager.pool_size() == 0  # the boot manager: empty standby
    assert dep.active_pmanager().pool_size() == 6

    elasticity = ElasticityController(dep)
    assert elasticity.pool_load() == 0.0  # an idle pool, not the sentinel
    assert 0.0 < elasticity.pool_fill() < 1.0
    assert elasticity._pick_victim() is not None
    list(elasticity.plan(dep.now))
    assert elasticity.pool_timeline[-1][1] == 6
    assert len(ReplicationManager(dep).chunk_directory()) == 4
    assert len(RemovalManager(dep, strategies=[])._protected_keys()) == 4
    holder = next(p for p in dep.providers.values() if p.chunks)
    held = len(holder.chunks)
    moved = dep.run(until=dep.env.process(migrate_chunks(holder, dep)))
    assert moved == held and not holder.chunks


def test_standby_provider_manager_fences_allocations():
    dep = make_replicated(seed=5, pm_standby=True)
    standby = dep.pm_group.managers[1]
    assert standby.standby
    with pytest.raises(NotActivePrimary):
        standby._fence()


# ------------------------------------------------------------------ giving up
HANDLE_SEED = 5


def handle_call(dep, handle, method, *args):
    """Run one handle call from a fresh node; returns its outcome and
    the one-way latency of a control message (one site: the same for
    every pair of nodes)."""
    caller = dep.testbed.add_node("caller")
    outcome = {"start": dep.now}

    def runner():
        try:
            outcome["value"] = yield from getattr(handle, method)(caller, *args)
        except Exception as exc:  # noqa: BLE001 - the give-up under test
            outcome["error"] = exc
        outcome["took"] = dep.now - outcome["start"]

    dep.env.process(runner(), name="handle-call")
    dep.run(until=dep.now + 200.0)
    return outcome, dep.config.testbed.latency_local_s


def backoff_total(attempts):
    """Sum of the handle's documented backoff, ``min(base * 2^(n-1),
    max) * (0.5 + u)``, over *attempts* (attempt numbers in draw order)
    on a twin of its seeded stream."""
    rng = np.random.default_rng(HANDLE_SEED)
    return sum(min(BACKOFF_BASE_S * 2 ** (n - 1), BACKOFF_MAX_S)
               * (0.5 + float(rng.random())) for n in attempts)


def test_primary_handle_gives_up_when_every_replica_is_down():
    dep = make_replicated()
    handle = PrimaryHandle(dep.vm_group, np.random.default_rng(HANDLE_SEED))
    for replica in dep.vm_group.replicas:
        replica.node.fail()
    outcome, _latency = handle_call(dep, handle, "remote_get_latest", 1)

    error = outcome["error"]
    assert isinstance(error, NoActivePrimary)
    assert error.attempts == RESOLVE_ROUNDS
    # One call timed out against the cached primary; the re-resolution
    # then never found anyone to switch to.
    assert handle.switches == 1
    # The RPC deadline and its backoff, then RESOLVE_ROUNDS sweeps of
    # three black-holed probes each, every sweep followed by a backoff
    # drawn from the same stream (attempt numbers restart at 1).
    expected = (RPC_TIMEOUT_S + RESOLVE_ROUNDS * 3 * PROBE_TIMEOUT_S
                + backoff_total([1, *range(1, RESOLVE_ROUNDS + 1)]))
    assert outcome["took"] == pytest.approx(expected, rel=1e-12)


def test_primary_handle_reraises_after_max_switches(monkeypatch):
    """A replica that claims the primary role to every probe but fences
    every call: the handle re-resolves it MAX_SWITCHES times, then lets
    the caller see the error."""
    dep = make_replicated()
    handle = PrimaryHandle(dep.vm_group, np.random.default_rng(HANDLE_SEED))
    monkeypatch.setattr(dep.vm_group.replicas[0], "serving", lambda: False)
    outcome, latency = handle_call(dep, handle, "remote_get_latest", 1)

    assert isinstance(outcome["error"], NotActivePrimary)
    assert handle.switches == MAX_SWITCHES + 1
    # Every call dies on arrival (one leg); each of the MAX_SWITCHES
    # re-resolutions is a backoff plus one answered probe per replica.
    expected = ((MAX_SWITCHES + 1) * latency
                + backoff_total(range(1, MAX_SWITCHES + 1))
                + MAX_SWITCHES * 3 * 2 * latency)
    assert outcome["took"] == pytest.approx(expected, rel=1e-12)


def test_provider_manager_handle_reraises_after_max_switches():
    dep = make_replicated(replicas=1, pm_standby=True)
    handle = ProviderManagerHandle(dep.pm_group, np.random.default_rng(HANDLE_SEED))
    dep.pm_group.active_pm().standby = True  # both managers fenced
    outcome, latency = handle_call(dep, handle, "remote_allocate", 1)

    assert isinstance(outcome["error"], NotActivePrimary)
    assert handle.switches == MAX_SWITCHES + 1
    expected = ((MAX_SWITCHES + 1) * latency
                + backoff_total(range(1, MAX_SWITCHES + 1)))
    assert outcome["took"] == pytest.approx(expected, rel=1e-12)
    assert dep.pmanager.allocations == 0


# ------------------------------------------------------------------ determinism
def test_replicated_runs_are_deterministic_per_seed():
    def run_once():
        dep = make_replicated(seed=33)
        client = dep.new_client("c1", rpc_timeout_s=4.0)
        results = []

        def driver():
            blob_id = yield from client.create_blob(8.0)
            for _ in range(10):
                result = yield from client.append(blob_id, 8.0)
                results.append((dep.now, result.version))
                yield dep.env.timeout(1.0)

        def chaos():
            yield dep.env.timeout(5.0)
            dep.testbed.node("vm-node").fail()

        dep.env.process(driver(), name="driver")
        dep.env.process(chaos(), name="chaos")
        dep.run(until=60.0)
        failovers = [
            (e.epoch, e.winner, e.confirmed_at, e.promoted_at)
            for e in dep.vm_group.failovers
        ]
        return results, failovers

    first = run_once()
    second = run_once()
    assert first == second
