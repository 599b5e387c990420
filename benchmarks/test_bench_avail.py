"""BENCH-AVAIL: write availability and failover latency under manager churn.

The control plane is BlobSeer's single point of failure: the seed repo's
version manager and provider manager are one node each, so a manager
crash stalls every write until the node returns.  PR 7 adds a replicated
version manager (quorum-committed publish log, epoch-fenced elections)
and a warm-standby provider manager, both opt-in.

This bench soaks the two wirings under the *same* Poisson manager-churn
schedule (crashes with recovery across the manager nodes) while three
writers append steadily, and reports:

- write availability (fraction of appends acked) per mode,
- failover latency per event: detection (confirmed dead) -> new primary
  serving, plus the full outage (crash -> serving),
- the chaos harness's invariant verdict for the replicated run — zero
  lost acked writes, gap-free history, at most one active primary.

Shape claims: the replicated control plane's availability strictly
beats the single-manager ablation under identical churn; failover
latency is bounded by the detection window plus an election round-trip
(a few seconds), not the ~30 s node-recovery time the ablation pays.
"""

from _util import env_stats, once, report

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.blobseer.errors import BlobSeerError
from repro.cluster import FaultInjector, NodeDownError, TestbedConfig
from repro.robustness import ChaosHarness
from repro.robustness.replication import (
    CONFIRM_MISSES,
    DETECT_PERIOD_S,
    DETECT_TIMEOUT_S,
)
from repro.simulation.network import TransferAborted

SEED = 61
CHURN_RATE = 0.02  # Poisson crashes/s across the manager nodes
CHURN_STOP = 100.0
RECOVER_AFTER = 30.0
MAX_CRASHES = 3
LOAD_STOP = 120.0
SETTLE_S = 40.0


def run_soak(replicated: bool):
    config = dict(
        data_providers=8,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=SEED, rate_granularity_s=0.01),
    )
    if replicated:
        config.update(vm_replicas=3, pm_standby=True)
    deployment = BlobSeerDeployment(BlobSeerConfig(**config))
    env = deployment.env
    deployment.net.blackhole_missing = True

    outcome = {"ok": 0, "total": 0}
    clients = []

    def writer(client):
        blob_id = yield env.process(client.create_blob(8.0))
        while env.now < LOAD_STOP:
            outcome["total"] += 1
            try:
                result = yield env.process(client.append(blob_id, 8.0))
                if result.ok:
                    outcome["ok"] += 1
            except (BlobSeerError, NodeDownError, TransferAborted):
                pass
            yield env.timeout(2.0)

    for i in range(3):
        client = deployment.new_client(f"w{i}", rpc_timeout_s=4.0)
        clients.append(client)
        env.process(writer(client), name=f"writer-{i}")

    harness = ChaosHarness(deployment, check_every_s=5.0, settle_s=SETTLE_S)
    deployment.run(until=2.0)  # creates land before the churn starts

    # Identical Poisson churn over each mode's manager fleet: crashes
    # with recovery, so the ablation's managers do come back — its
    # unavailability is the recovery time, not a permanent loss.
    if replicated:
        manager_nodes = [
            deployment.testbed.node(name)
            for name in ("vm-node", "vm-node-1", "vm-node-2",
                         "pm-node", "pm-node-standby")
        ]
    else:
        manager_nodes = [
            deployment.testbed.node("vm-node"),
            deployment.testbed.node("pm-node"),
        ]
    harness.injector.poisson_crashes(
        manager_nodes, rate_per_second=CHURN_RATE, stop_at=CHURN_STOP,
        recover_after=RECOVER_AFTER, max_crashes=MAX_CRASHES,
    )

    soak = harness.run(until=LOAD_STOP, clients=clients)

    failovers = soak.get("vm_failovers", [])
    return {
        "ok": outcome["ok"],
        "total": outcome["total"],
        "crashes": soak["crashes"],
        "recoveries": soak["recoveries"],
        "violations": soak["violations"],
        "failovers": failovers,
        "pm_failovers": soak.get("pm_failovers", []),
        "harness": harness,
        "stats": env_stats(env, net=deployment.testbed.net, deployment=deployment),
    }


def test_bench_avail(benchmark):
    def run():
        return {
            "single": run_soak(replicated=False),
            "replicated": run_soak(replicated=True),
        }

    grid = once(benchmark, run)
    rows = []
    for mode in ("single", "replicated"):
        r = grid[mode]
        latencies = [f["failover_latency_s"] for f in r["failovers"]
                     if f["failover_latency_s"] is not None]
        outages = [f["outage_s"] for f in r["failovers"]
                   if f["outage_s"] is not None]
        rows.append((
            mode, r["crashes"],
            f"{r['ok']}/{r['total']}",
            f"{r['ok'] / r['total'] * 100:.1f}%",
            len(r["failovers"]) + len(r["pm_failovers"]),
            f"{sum(latencies) / len(latencies) * 1e3:.2f}" if latencies else "-",
            f"{max(outages):.2f}" if outages else "-",
            len(r["violations"]),
        ))

    single = grid["single"]
    repl = grid["replicated"]
    avail_single = single["ok"] / single["total"]
    avail_repl = repl["ok"] / repl["total"]
    latencies = [f["failover_latency_s"] for f in repl["failovers"]
                 if f["failover_latency_s"] is not None]
    report(
        "AVAIL",
        "write availability and failover latency under Poisson manager "
        f"churn (rate {CHURN_RATE}/s, up to {MAX_CRASHES} crashes, "
        f"{RECOVER_AFTER:.0f} s recovery): replicated control plane "
        "(3 VM replicas + PM warm standby) vs the single-manager ablation",
        ["mode", "crashes", "appends ok", "availability", "failovers",
         "mean failover ms", "max outage s", "violations"],
        rows,
        notes=[
            f"detector: period {DETECT_PERIOD_S} s, timeout "
            f"{DETECT_TIMEOUT_S} s, {CONFIRM_MISSES} misses to confirm; "
            "failover latency = confirmation -> new primary serving",
            "outage = actual crash instant -> new primary serving "
            "(includes detection)",
            "the ablation has no failover path: it waits out the "
            f"{RECOVER_AFTER:.0f} s node recovery",
            "replicated-run invariants: acked writes durable, gap-free "
            "history, at most one active primary, read-your-writes, "
            "replica convergence",
        ],
        stats={
            **repl["stats"],
            # Machine-readable failover record: detection -> serving per
            # event, plus full crash -> serving outages.
            "failover_latencies_s": latencies,
            "outages_s": [f["outage_s"] for f in repl["failovers"]
                          if f["outage_s"] is not None],
            "availability_single_pct": round(avail_single * 100, 2),
        },
        headline={
            "metric": "availability_replicated_pct",
            "value": round(avail_repl * 100, 2),
        },
    )

    # The chaos invariants all hold on the replicated run.
    grid["replicated"]["harness"].assert_clean()
    assert repl["violations"] == []
    # Churn actually happened, and the replicated control plane failed over.
    assert repl["crashes"] >= 1
    assert len(repl["failovers"]) + len(repl["pm_failovers"]) >= 1
    # Failover latency: positive, and bounded by the detection window
    # plus an election (seconds) — far below the node-recovery time.
    bound = DETECT_TIMEOUT_S + CONFIRM_MISSES * DETECT_PERIOD_S + 2.0
    for latency in latencies:
        assert 0.0 <= latency <= bound
    for f in repl["failovers"]:
        assert f["outage_s"] is None or f["outage_s"] < RECOVER_AFTER
    # Replication strictly beats the ablation under identical churn.
    assert avail_repl > avail_single
    assert avail_repl >= 0.9
