"""Frozen golden digests of simulated outcomes (ROADMAP item 3).

A change meant only to make the simulator cheaper must leave every
simulated outcome bit-identical.  Instead of keeping the old code alive
as an oracle, this file pins the sha256 of each scenario's outcome for
small configurations and two seeds.  The digests were captured at commit
c8911bc (the parent of the single-event message path and the flat
segment-tree walks) and must only ever be re-recorded by a change that
*means* to alter simulated behaviour — ``python tests/test_golden_observables.py``
prints the current values.

``env.events_processed`` is dropped from ``observables()`` before
hashing: it is what the simulator costs, not what the simulated system
did (the benchmark's ``sim_digest`` leaves it out for the same reason).
"""

import hashlib
import json

import pytest

from repro.workloads import (
    build_contention_scenario,
    build_disturbance_scenario,
    build_dos_scenario,
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
    """For scenarios without ``observables()``: op histories + pool."""
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
    return _history_digest(scenario.deployment,
                           [w.client for w in scenario.writers])


def dos(seed):
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, data_providers=12,
        metadata_providers=2, monitoring_services=2, op_mb=256.0,
        attack_start=5.0, attack_stagger_s=3.0, attack_parallel=16,
        scan_interval_s=5.0, history_pull_interval_s=2.0,
        flush_interval_s=1.0, confirmations=1, seed=seed)
    scenario.run(until=30.0)
    return _history_digest(
        scenario.deployment,
        [w.client for w in scenario.correct + scenario.attackers])


SCENARIOS = {
    "fanout": fanout,
    "disturbance": disturbance,
    "contention": contention,
    "write": write,
    "dos": dos,
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
    ("write", 0): "419d2d0279035e11e2474d2795f7de7ffa62499664e5c1173cc6d76cee598c50",
    ("write", 7): "419d2d0279035e11e2474d2795f7de7ffa62499664e5c1173cc6d76cee598c50",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outcome_matches_frozen_digest(name, seed):
    assert SCENARIOS[name](seed) == GOLDEN[name, seed]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{SCENARIOS[name](seed)}",')
