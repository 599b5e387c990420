"""Frozen golden digests of simulated outcomes (ROADMAP item 3).

A change meant only to make the simulator cheaper must leave every
simulated outcome bit-identical.  Instead of keeping the old code alive
as an oracle, this file pins the sha256 of each scenario's outcome for
small configurations and two seeds.  The digests were captured at commit
c8911bc (the parent of the single-event message path and the flat
segment-tree walks) and must only ever be re-recorded by a change that
*means* to alter simulated behaviour — ``python tests/test_golden_observables.py``
prints the current values.  The ``hotspot`` and ``replicated_write``
digests were added at commit 4d231df, before the scenario skeleton and
the config pruning that they guard.

``env.events_processed`` is dropped from ``observables()`` before
hashing: it is what the simulator costs, not what the simulated system
did (the benchmark's ``sim_digest`` leaves it out for the same reason).

The ``ENGINE_WORLDS`` digests pin what each self-* engine *decided*: the
decision stream ``(time, engine, action, detail)``, the engine's counters
and its timelines.  They were captured at commit b090b28 from the
in-place engine implementations that the decision-framework engines
replaced, in the worlds (and seeds) the twin-run tests of that commit
compared the two copies on.

``KERNEL_GOLDEN`` pins the flow network alone on a component far above
the scalar/array dispatch threshold: the completion log (who finished
or was aborted, when), the pass count and the solver workload of 600
concurrent flows in one component.  Captured at commit e003b2c, the
parent of the array-resident flow table, from the list-building
vector solver that table replaced.
"""

import hashlib
import json
import random

import pytest

from repro.adaptation import ElasticityController, ReplicationManager
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig
from repro.introspection import DecisionJournal
from repro.simulation import Environment, FlowNetwork, NetNode
from repro.telemetry import MetricsRegistry
from repro.workloads import (
    CorrectWriter,
    build_contention_scenario,
    build_disturbance_scenario,
    build_dos_scenario,
    build_hotspot_scenario,
    build_write_scenario,
)
from repro.workloads.scenarios import build_fanout_scenario

SEEDS = (0, 7)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _observables_digest(scenario) -> str:
    payload = json.loads(scenario.observables())
    del payload["events"]
    return _sha(payload)


def _history_digest(deployment, clients) -> str:
    """For worlds that are not a ``Scenario``: op histories + pool (the
    same payload a scenario's default ``observables()`` carries)."""
    return _sha({
        "end": deployment.env.now,
        "completions": [
            [c.client_id,
             [[op.op, op.blob_id, round(op.size_mb, 6),
               round(op.started_at, 9), round(op.finished_at, 9),
               op.ok, op.version]
              for op in c.history]]
            for c in clients
        ],
        "pool": deployment.storage_stats(),
    })


def fanout(seed):
    scenario = build_fanout_scenario(
        writers=24, ops_per_writer=3, op_mb=2.0, chunk_size_mb=1.0,
        data_providers=8, metadata_providers=3, vm_shards=4, pm_shards=2,
        vm_batch=True, ramp_s=0.05, seed=seed)
    scenario.run()
    return _observables_digest(scenario)


def disturbance(seed):
    scenario = build_disturbance_scenario(
        readers=2, dataset_chunks=16, duration=60.0, shift_at=20.0,
        churn_at=40.0, churn_heal_s=10.0, churn_providers=1,
        data_providers=6, with_tuner=True, with_journal=True, seed=seed)
    scenario.run()
    return _observables_digest(scenario)


def contention(seed):
    scenario = build_contention_scenario(
        readers=3, dataset_chunks=24, load_writers=2, shift_at=20.0,
        duration=45.0, seed=seed)
    scenario.run()
    return _observables_digest(scenario)


def write(seed):
    scenario = build_write_scenario(
        clients=6, data_providers=10, metadata_providers=2, op_mb=256.0,
        ops_per_client=2, monitoring_services=2, seed=seed)
    scenario.run()
    return _observables_digest(scenario)


def dos(seed):
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, data_providers=12,
        metadata_providers=2, monitoring_services=2, op_mb=256.0,
        attack_start=5.0, attack_stagger_s=3.0, attack_parallel=16,
        scan_interval_s=5.0, history_pull_interval_s=2.0,
        flush_interval_s=1.0, confirmations=1, seed=seed)
    scenario.run(until=30.0)
    return _observables_digest(scenario)


def hotspot(seed):
    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=24, chunk_size_mb=4.0, reads_per_client=60,
        data_providers=6, with_caches=True, chunk_cache_mb=16.0,
        with_tuner=True, tuner_interval_s=0.5, seed=seed)
    scenario.run()
    assert scenario.tuner.decisions, "the tuner must actually resize"
    return _sha({
        "ops": _history_digest(scenario.deployment,
                               [r.client for r in scenario.readers]),
        "caches": scenario.cache_report(),
    })


def replicated_write(seed):
    """Writers on a ``vm_replicas=3, pm_standby=True`` control plane ride
    out one version-manager-primary and one provider-manager crash."""
    dep = _small_deployment(seed, chunk_size_mb=8.0, vm_replicas=3,
                            pm_standby=True)
    writers = [CorrectWriter(dep.new_client(f"w{i}", rpc_timeout_s=4.0),
                             op_mb=64.0, chunk_size_mb=8.0, stop_at=60.0)
               for i in range(3)]
    for writer in writers:
        dep.env.process(writer.run(dep.env))
    injector = FaultInjector(dep.testbed)
    injector.crash_at(dep.testbed.node("vm-node"), at=7.0, recover_after=20.0)
    injector.crash_at(dep.testbed.node("pm-node"), at=35.0, recover_after=15.0)
    dep.run(until=70.0)
    assert len(dep.vm_group.failovers) == 1 and len(dep.pm_group.failovers) == 1
    return _sha({
        "ops": _history_digest(dep, [w.client for w in writers]),
        "vm_failovers": [[e.epoch, e.winner, e.old_primary, e.crashed_at,
                          e.confirmed_at, e.promoted_at]
                         for e in dep.vm_group.failovers],
        "pm_failovers": dep.pm_group.failovers,
    })


def _decision_stream(decisions):
    return [[d.time, d.engine, d.action, sorted(d.detail.items())]
            for d in decisions]


def _small_deployment(seed, **overrides):
    config = dict(data_providers=6, metadata_providers=2, chunk_size_mb=64.0,
                  testbed=TestbedConfig(seed=seed))
    config.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**config))


def elasticity(seed):
    """Six bulk writers overload a three-provider pool."""
    dep = _small_deployment(seed, data_providers=3)
    engine = ElasticityController(
        dep, min_providers=3, max_providers=10, high_load=0.3,
        interval_s=2.0, cooldown_s=4.0, provision_delay_s=1.0)
    dep.env.process(engine.run(dep.env))
    for i in range(6):
        writer = CorrectWriter(dep.new_client(f"w{i}"), op_mb=512.0, max_ops=6)
        dep.env.process(writer.run(dep.env))
    dep.run(until=90.0)
    assert engine.scale_ups > 0, "the world must actually scale"
    return _sha({
        "decisions": _decision_stream(engine.decisions),
        "pool_timeline": engine.pool_timeline,
        "scale_ups": engine.scale_ups,
        "scale_downs": engine.scale_downs,
        "pool_size": dep.pmanager.pool_size(),
    })


def replication(seed):
    """A provider holding chunks of a 2-replica blob crashes."""
    dep = _small_deployment(seed, replication=2)
    client = dep.new_client("c1")

    def write(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 256.0))

    dep.run(until=dep.env.process(write(dep.env)))
    manager = ReplicationManager(dep, target_replication=2, max_replication=3,
                                 hot_reads_per_s=0.5, interval_s=2.0)
    dep.env.process(manager.run(dep.env))
    next(p for p in dep.providers.values() if p.chunks).node.fail()
    dep.run(until=dep.now + 30.0)
    assert manager.repairs_done > 0, "the world must actually repair"
    return _sha({
        "decisions": _decision_stream(manager.decisions),
        "repairs_done": manager.repairs_done,
        "promotions": manager.promotions,
        "demotions": manager.demotions,
        "repair_traffic_mb": manager.repair_traffic_mb,
        "lost_chunks": manager.lost_chunks,
        "evidence": manager.evidence,
        "live_replicas": {
            key: [p.provider_id for p in manager.live_replicas(descriptor)]
            for key, descriptor in manager.chunk_directory().items()},
    })


def security(seed):
    """Three flooding attackers among six clients, policy scan every 5 s."""
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, security_enabled=True,
        data_providers=12, metadata_providers=2, monitoring_services=2,
        op_mb=256.0, attack_start=10.0, attack_stagger_s=5.0,
        attack_parallel=32, seed=seed, scan_interval_s=5.0,
        history_pull_interval_s=2.0, flush_interval_s=1.0, confirmations=1)
    env = scenario.deployment.env
    env.metrics = MetricsRegistry(env)
    journal = DecisionJournal(env)
    scenario.security.attach_journal(journal)
    scenario.run(until=75.0)
    violations = scenario.security.violations
    assert violations, "the attack must be detected"
    return _sha({
        "decisions": _decision_stream(journal.for_engine("security")),
        "violations": [[v.time, v.client_id, v.policy.name, v.occurrence]
                       for v in violations],
        "scans": scenario.security.engine.scans,
        "blocked": scenario.security.summary()["blocked"],
        "attackers_blocked": sorted(a.blocked for a in scenario.attackers),
        "violations_counter": env.metrics.counter("security.violations").value,
    })


def _one_component(flows) -> bool:
    """Union-find over the (uplink, downlink) pairs of *flows*."""
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            root[x] = x = root[root[x]]
        return x

    for flow in flows:
        root[find(("out", flow.src.name))] = find(("in", flow.dst.name))
    return len({find(x) for x in root}) == 1


def big_component(seed):
    """600 flows between 24 sources and 20 sinks on two sites: one
    connected component, with per-flow caps, a shared backbone, a
    mid-run abort wave and a node removal."""
    rng = random.Random(seed)
    env = Environment()
    net = FlowNetwork(env, latency=0.0005, backbone_capacity=900.0)
    sources = [f"s{i}" for i in range(24)]
    sinks = [f"d{i}" for i in range(20)]
    for i, name in enumerate(sources):
        net.add_node(NetNode(name, capacity_out=rng.choice([80.0, 125.0, 200.0]),
                             site=f"site-{i % 2}"))
    for i, name in enumerate(sinks):
        net.add_node(NetNode(name, capacity_in=rng.choice([60.0, 125.0]),
                             site=f"site-{i % 2}"))
    net.completion_log = []
    peak = []

    def starter(env):
        for k in range(600):
            net.transfer(sources[k % 24], rng.choice(sinks),
                         size=rng.uniform(40.0, 400.0),
                         rate_cap=rng.choice([None, None, None, 2.0, 9.0]),
                         tag=f"t{k % 7}").defused()
            if k % 50 == 49:
                yield env.timeout(0.01)
        peak.append(net.active_flow_count())
        assert _one_component(net.flows)
        yield env.timeout(5.0)
        net.abort_matching(lambda f: f.tag == "t3", reason="wave")
        yield env.timeout(5.0)
        net.remove_node("d7")

    env.process(starter(env))
    env.run()
    assert peak[0] >= 500
    return _sha({"log": net.completion_log, "end": env.now,
                 "reallocations": net.reallocations,
                 "flow_slots": net.realloc_flow_slots})


SCENARIOS = {
    "fanout": fanout,
    "disturbance": disturbance,
    "contention": contention,
    "write": write,
    "dos": dos,
    "hotspot": hotspot,
    "replicated_write": replicated_write,
}

GOLDEN = {
    ("contention", 0): "218191cf751eacb48fd23a3f5233d0f96510960044dce6152fbbaeed6be107a7",
    ("contention", 7): "7cac217745cdf1a444e781473e5adbf6c7b43ab451b63d1f60251eda43cd9f21",
    ("disturbance", 0): "e6728257260f7a37b52001edf10f7e75bf05b7da017d09567b57eab8b44cb533",
    ("disturbance", 7): "bbf1a2e640f18e5929590db0252cc4e853c084c76eb9761aa254dbd0fb601fca",
    ("dos", 0): "d1b9c7ba0f2dd1b992d5fea392d36c0573f502a22911aaef2c0d8e687cac4e51",
    ("dos", 7): "5707620cab63823812c9dad9becb511998cf352c1c191951f742a89a878cc240",
    # fanout and write draw nothing from the seed at these configurations
    # (round-robin allocation, deterministic ramp): one digest for both.
    ("fanout", 0): "a0e6ed9c52a225bea5c1c425948b18cb24b0648a34514ce8de6435dfbe152399",
    ("fanout", 7): "a0e6ed9c52a225bea5c1c425948b18cb24b0648a34514ce8de6435dfbe152399",
    ("hotspot", 0): "6afefe7682f19239a1b975629130ed759ac264fd140f5994f8630fd62cfe2bcc",
    ("hotspot", 7): "5f3db4943a362363e578d7661a1b08384b1c781199af8ba9c939afd214b63fcd",
    # Also what proves the replica groups' own failover-detection
    # defaults equal the BlobSeerConfig fields that used to forward them.
    ("replicated_write", 0): "451eb4a7edcead2a1c1382228649c4a1daf3b65fb6611881dbdc49cc8a47f4be",
    ("replicated_write", 7): "3083f76648a8e914cbda3adfe66a63f4d19d498b43e1f4a54f6c2f537e45a0e6",
    ("write", 0): "419d2d0279035e11e2474d2795f7de7ffa62499664e5c1173cc6d76cee598c50",
    ("write", 7): "419d2d0279035e11e2474d2795f7de7ffa62499664e5c1173cc6d76cee598c50",
}


#: Engine world -> (builder, the seed its twin-run test used).
ENGINE_WORLDS = {
    "elasticity": (elasticity, 11),
    "replication": (replication, 7),
    "security": (security, 4),
}

ENGINE_GOLDEN = {
    "elasticity": "10f35eee218d283180621c1a8575a51b32121be82a60e310658cd82145e38bb3",
    "replication": "f6af75d0cc19b2423463b8beab806a19360245ab3917229524e3d37b447e9988",
    "security": "7d13d80b7d5d4e10c904e6bb0a9449961aa2d9b70a07e707f070eb21cd0f63f4",
}


KERNEL_GOLDEN = {
    0: "afe874c0c25f79b087201cf79cdc81436cc0a1d4c37bf802b9c22dde014ef8d6",
    7: "87f0738b9b5f2b289d1a90907e1148442d18f0c591eea0ed5c290fc9b65a22f2",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_big_component_matches_frozen_digest(seed):
    assert big_component(seed) == KERNEL_GOLDEN[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outcome_matches_frozen_digest(name, seed):
    assert SCENARIOS[name](seed) == GOLDEN[name, seed]


@pytest.mark.parametrize("name", sorted(ENGINE_WORLDS))
def test_engine_decisions_match_frozen_digest(name):
    world, seed = ENGINE_WORLDS[name]
    assert world(seed) == ENGINE_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{SCENARIOS[name](seed)}",')
    for name, (world, seed) in sorted(ENGINE_WORLDS.items()):
        print(f'    "{name}": "{world(seed)}",')
    for seed in SEEDS:
        print(f'    {seed}: "{big_component(seed)}",')
