"""Frozen golden digests of simulated outcomes (ROADMAP item 3).

A change meant only to make the simulator cheaper must leave every
simulated outcome bit-identical.  Instead of keeping the old code alive
as an oracle, this file pins the sha256 of each scenario's outcome for
small configurations and two seeds.  The digests must only ever be
re-recorded by a change that *means* to alter simulated behaviour —
``python tests/test_golden_observables.py`` prints the current values.
``GOLDEN`` was first captured at commit c8911bc (``hotspot`` and
``replicated_write`` at 4d231df) and held through every change up to
5d95f24.  All fourteen entries were re-recorded by the child of 5d95f24
(PR 18), which makes the height of the metadata tree follow the size of
the blob: every write and read sheds a few milliseconds of metadata
round trips, so every timestamp moves (before/after headline fields in
CHANGES.md).  ``disturbance`` and ``contention`` hash the metrics
registry's dump, and the child of 0b2cad1 (PR 19) re-recorded their
four digests because *what is counted* changed, not what the system
did: the caches stopped mirroring their ``CacheStats`` into
``cache.<name>.{hits,misses,insertions,evictions,rejected,invalidations}``
counters and the query engine stopped counting its own scans
(``introspection.query.raw_scans``).  Each new digest equals the sha256
of the 0b2cad1 payload with exactly those keys deleted (29 / 30 / 59 /
59 of them, all counters) — the script that checks the equality is in
that PR's CHANGES.md entry.  The child of c00cc97 (PR 22) re-recorded
``contention``, ``disturbance`` and ``hotspot`` for the same kind of
reason: a client keeps what a read of a published version resolved in
its metadata cache, so a warm read counts one lookup there instead of
one per tree level.  Only the ``cache.meta.*`` ``lookups_per_s`` /
``hit_rate`` series and the metadata caches' own counters move;
completions, capacities, arbiter, reallocations and every decision's
time, action, cache and sizes are those of c00cc97 (field-by-field
before/after in CHANGES.md).  The child of a802854 (PR 23) re-recorded
``contention`` and ``disturbance`` the way PR 19 did: the flow network
stopped sampling the reader-less series ``net.active_flows``, and each
new digest equals the sha256 of the a802854 payload with exactly that
one key deleted (412 / 382 / 106 / 86 points; script in CHANGES.md).

``CONTENT_GOLDEN`` is the oracle that change was *not* allowed to move:
what ends up stored — version chains, sizes, which chunk sits at which
index of which version — whatever shape the tree has and however long
an operation takes.  Captured at 5d95f24, before the change.

``env.events_processed`` is dropped from ``observables()`` before
hashing: it is what the simulator costs, not what the simulated system
did (the benchmark's ``sim_digest`` leaves it out for the same reason).

The ``ENGINE_WORLDS`` digests pin what each self-* engine *decided*: the
decision stream ``(time, engine, action, detail)``, the engine's counters
and its timelines.  They were captured at commit b090b28 from the
in-place engine implementations that the decision-framework engines
replaced, in the worlds (and seeds) the twin-run tests of that commit
compared the two copies on.  ``elasticity`` and ``replication`` were
re-recorded together with ``GOLDEN`` (the same decisions: one
pool-load sample of ``elasticity`` catches a transfer that now starts
earlier, the one repair of ``replication`` fires 3.6 ms earlier);
``security`` is the b090b28 value.

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


def _fanout_run(seed):
    scenario = build_fanout_scenario(
        writers=24, ops_per_writer=3, op_mb=2.0, chunk_size_mb=1.0,
        data_providers=8, metadata_providers=3, vm_shards=4, pm_shards=2,
        vm_batch=True, ramp_s=0.05, seed=seed)
    scenario.run()
    return scenario


def fanout(seed):
    return _observables_digest(_fanout_run(seed))


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


def _write_run(seed):
    scenario = build_write_scenario(
        clients=6, data_providers=10, metadata_providers=2, op_mb=256.0,
        ops_per_client=2, monitoring_services=2, seed=seed)
    scenario.run()
    return scenario


def write(seed):
    return _observables_digest(_write_run(seed))


def dos(seed):
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, data_providers=12,
        metadata_providers=2, monitoring_services=2, op_mb=256.0,
        attack_start=5.0, attack_stagger_s=3.0, attack_parallel=16,
        scan_interval_s=5.0, history_pull_interval_s=2.0,
        flush_interval_s=1.0, confirmations=1, seed=seed)
    scenario.run(until=30.0)
    return _observables_digest(scenario)


def _hotspot_run(seed):
    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=24, chunk_size_mb=4.0, reads_per_client=60,
        data_providers=6, with_caches=True, chunk_cache_mb=16.0,
        with_tuner=True, tuner_interval_s=0.5, seed=seed)
    scenario.run()
    assert scenario.tuner.decisions, "the tuner must actually resize"
    return scenario


def hotspot(seed):
    scenario = _hotspot_run(seed)
    return _sha({
        "ops": _history_digest(scenario.deployment,
                               [r.client for r in scenario.readers]),
        "caches": scenario.cache_report(),
    })


def _replicated_write_run(seed):
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
    return dep, writers


def replicated_write(seed):
    dep, writers = _replicated_write_run(seed)
    return _sha({
        "ops": _history_digest(dep, [w.client for w in writers]),
        "vm_failovers": [[e.epoch, e.winner, e.old_primary, e.crashed_at,
                          e.confirmed_at, e.promoted_at]
                         for e in dep.vm_group.failovers],
        "pm_failovers": dep.pm_group.failovers,
    })


def _content_digest(deployment, versions=None) -> str:
    """What is stored, whatever the tree's shape and the run's timing:
    every blob's published version chain, each version's size and its
    ``{chunk index: storage key}`` map.  Where the writers run against a
    deadline only the first *versions* links are hashed: how many appends
    fit depends on what an append costs, what the first ones hold does
    not.  Each version is read back, whole, by a fresh client's ``read``
    — a spy on the ``tree_query`` the client module calls keeps the
    descriptors that read resolved.  The reader's caches only spare it
    fetching a chunk or a tree node twice (both are immutable), which is
    most of the work when version after version of one blob is read from
    offset 0."""
    import repro.blobseer.client as client_module
    from repro.cache import Cache

    reader = deployment.new_client("content-oracle", rpc_timeout_s=4.0)
    reader.chunk_cache = Cache("content-oracle.chunks", 1e9)
    reader.meta.cache = Cache("content-oracle.nodes", 1e9)
    resolved = []
    real_query = client_module.tree_query

    def spy(*args, **kwargs):
        found = yield from real_query(*args, **kwargs)
        resolved.append(found)
        return found

    blobs = {}
    client_module.tree_query = spy
    try:
        for vm in deployment.authority_vms():
            for blob_id, info in sorted(vm.blobs.items()):
                chain = blobs[blob_id] = []
                published = info.published_versions()
                assert versions is None or len(published) >= versions
                for version in published[:versions]:
                    size_mb = info.versions[version].size_mb
                    deployment.run(until=deployment.env.process(
                        reader.read(blob_id, 0.0, size_mb, version=version)))
                    chain.append([version, size_mb, sorted(
                        (index, descriptor.storage_key)
                        for index, descriptor in resolved.pop().items())])
    finally:
        client_module.tree_query = real_query
    assert any(chain for chain in blobs.values()), "nothing was published"
    return _sha(blobs)


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
    manager = ReplicationManager(dep, target_replication=2, interval_s=2.0)
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
        peak.append(len(net._flows))
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
    ("contention", 0): "251229fd2c3bd0ba06cab357b840eea2d1dd278f52874b3f9d73c07200450bb0",
    ("contention", 7): "0e277ef7d89794891391796966b2ea3d54cf7f5908ec7673e0e6111adb40b41e",
    ("disturbance", 0): "6933db22272092864d0529b12179b3137c8e7c9394bd429d357d97e6ddc4e307",
    ("disturbance", 7): "f5bd258c34aacc43cb4bb1bf26f9f2f355d685a117959c4ef000e0a954265843",
    ("dos", 0): "bf7af676ce7b2d08aa96941d78d8baed0004c455b261c55ff45eb35b94c07332",
    ("dos", 7): "b185245d08b422b5aa5bf7d77d05694c040aa536ecde39180cc646b7e463216d",
    # fanout and write draw nothing from the seed at these configurations
    # (round-robin allocation, deterministic ramp): one digest for both.
    ("fanout", 0): "d7076a78eec19c2a6026a8a506ed70f6816c5a78602f3403f1dc4603c52cf3a0",
    ("fanout", 7): "d7076a78eec19c2a6026a8a506ed70f6816c5a78602f3403f1dc4603c52cf3a0",
    ("hotspot", 0): "4955b80925ad976ba28f7172520624509460bc972906ee095f92f5a44e683aaa",
    ("hotspot", 7): "ff591018a107c8c819cfe637eb44c2d70547714547ae0a811c33151d9c5fdaf0",
    # Also what proves the replica groups' own failover-detection
    # defaults equal the BlobSeerConfig fields that used to forward them.
    ("replicated_write", 0): "0e6791d2ad5b11d826939bdaa810ed136925193e93fc6b9d1a82db312f6f6676",
    ("replicated_write", 7): "e3be098bee9c338250c38a3cd47b71570cb6e3aaf79c2d0e847fbb68f77b0550",
    ("write", 0): "4020ebbb14dc4fa9a030b67e49cffebe290934dc483dab00f38374aa5a14efe4",
    ("write", 7): "4020ebbb14dc4fa9a030b67e49cffebe290934dc483dab00f38374aa5a14efe4",
}


#: Scenario -> the content digest of its finished deployment.
CONTENT_WORLDS = {
    "fanout": lambda seed: _content_digest(_fanout_run(seed).deployment),
    "write": lambda seed: _content_digest(_write_run(seed).deployment),
    "hotspot": lambda seed: _content_digest(_hotspot_run(seed).deployment),
    # Its writers append until t = 60 (75 appends each at 5d95f24).
    "replicated_write": lambda seed: _content_digest(
        _replicated_write_run(seed)[0], versions=64),
}

CONTENT_GOLDEN = {
    # Nothing stored depends on the seed at these configurations.
    ("fanout", 0): "deffe071270ab2b00ef16cee881f8e45756d444d1f60e48d5a65aee58ad69eaa",
    ("fanout", 7): "deffe071270ab2b00ef16cee881f8e45756d444d1f60e48d5a65aee58ad69eaa",
    ("hotspot", 0): "1fcdb7e675b7a2db40530923b7aa9dfd64f040589f6556ff8da7bba133ad473a",
    ("hotspot", 7): "1fcdb7e675b7a2db40530923b7aa9dfd64f040589f6556ff8da7bba133ad473a",
    ("replicated_write", 0): "8cff977cf586030b01264e89b3339d36867818c94b6b103f00e2377be1c1b06f",
    ("replicated_write", 7): "8cff977cf586030b01264e89b3339d36867818c94b6b103f00e2377be1c1b06f",
    ("write", 0): "b4148a15f2e3da91954b4efd506ce0354a0c2630ac29a3e979704ed2f2e46633",
    ("write", 7): "b4148a15f2e3da91954b4efd506ce0354a0c2630ac29a3e979704ed2f2e46633",
}


#: Engine world -> (builder, the seed its twin-run test used).
ENGINE_WORLDS = {
    "elasticity": (elasticity, 11),
    "replication": (replication, 7),
    "security": (security, 4),
}

ENGINE_GOLDEN = {
    "elasticity": "10016a079a45a430dc9027e8efb95142153f42158444413769a4547058494101",
    "replication": "0ee073a96dee333c18231c9cfaa76de11bce431fd544f40f3438c1d8675299d4",
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONTENT_WORLDS))
def test_stored_content_matches_frozen_digest(name, seed):
    assert CONTENT_WORLDS[name](seed) == CONTENT_GOLDEN[name, seed]


@pytest.mark.parametrize("name", sorted(ENGINE_WORLDS))
def test_engine_decisions_match_frozen_digest(name):
    world, seed = ENGINE_WORLDS[name]
    assert world(seed) == ENGINE_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{SCENARIOS[name](seed)}",')
    for name in sorted(CONTENT_WORLDS):
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{CONTENT_WORLDS[name](seed)}",')
    for name, (world, seed) in sorted(ENGINE_WORLDS.items()):
        print(f'    "{name}": "{world(seed)}",')
    for seed in SEEDS:
        print(f'    {seed}: "{big_component(seed)}",')
