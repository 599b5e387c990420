"""The four workloads: configuration, measured phase, metrics, checks.

Each workload is built through the existing builders of
``repro.workloads.scenarios`` and driven from one process with no
threads.  All simulated clients are closed-loop: a client issues its
next operation when the previous one completes (after ``think_s`` where
stated), and client counts are fixed.

Inputs come from ``--seed`` alone.  The fan-out and bulk-write builders
draw nothing random at these configurations, so the harness draws each
writer's start offset from the seed: the arrival pattern, not only the
label, differs between seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List, Optional

from repro.cluster.faults import FaultInjector
from repro.telemetry.profiler import KernelProfiler
from repro.workloads.scenarios import (
    build_disturbance_scenario,
    build_dos_scenario,
    build_fanout_scenario,
    build_write_scenario,
)

from spec import PER_LAYER, percentile, tail_percentile

__all__ = ["Workload", "WORKLOADS", "probe_unloaded_latency", "slo_table"]


class Workload:
    """One benchmark workload.  Subclasses give the configuration."""

    name = ""
    #: Tail percentile of ``sim_op_tail_s`` at full size (fixed, so the
    #: metric's definition cannot drift with the sample count).
    tail_q = 0.99
    #: Simulated latency of the same operation with one client and
    #: nothing else running, probed once (``run.py --probe-slo``) and
    #: pinned here; the latency limit ``slo_op_s`` is twice that.
    unloaded_op_s = 0.0

    @property
    def slo_op_s(self) -> float:
        return 2.0 * self.unloaded_op_s

    def build(self, seed: int, smoke: bool):
        """The scenario, through the repo's builder (part of set-up)."""
        raise NotImplementedError

    def prepare(self, scenario) -> None:
        """Simulated work that belongs to set-up, not to the measured phase."""

    def run(self, scenario) -> None:
        """The measured phase."""
        raise NotImplementedError

    def clients(self, scenario) -> list:
        """The measured clients (``BlobSeerClient`` objects)."""
        raise NotImplementedError

    def span_s(self, scenario, phase_start: float) -> float:
        """Simulated seconds of the measured phase: the makespan for
        fixed-work workloads, the fixed horizon otherwise."""
        return scenario.deployment.env.now - phase_start

    def check(self, scenario, ops: list) -> List[str]:
        """Workload-specific output checks; returns the failures."""
        raise NotImplementedError

    # -- shared -----------------------------------------------------------------
    def measured_ops(self, scenario, phase_start: float) -> list:
        """Non-``create`` results of the measured clients, measured phase only."""
        return [op for client in self.clients(scenario) for op in client.history
                if op.op != "create" and op.started_at >= phase_start]

    def unloaded(self):
        """A one-client, one-op scenario of the same shape, for the SLO probe."""
        raise NotImplementedError


def _seeded_offsets(name: str, seed: int, count: int) -> List[float]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.random() for _ in range(count)]


class MetaFanout(Workload):
    name = "meta_fanout"
    tail_q = 0.99
    unloaded_op_s = 0.030533

    def _build(self, writers: int, ops: int, seed: int):
        return build_fanout_scenario(
            writers, ops_per_writer=ops, op_mb=1, chunk_size_mb=1,
            data_providers=64, vm_shards=8, pm_shards=4, vm_batch=True,
            ramp_s=1.0, seed=seed)

    def build(self, seed, smoke):
        writers, ops = (100, 2) if smoke else (1000, 4)
        scenario = self._build(writers, ops, seed)
        # Same one-second ramp as the builder's, with each writer's
        # arrival drawn inside its own slot instead of at the slot's edge.
        step = 1.0 / writers
        for i, (writer, u) in enumerate(
                zip(scenario.writers, _seeded_offsets(self.name, seed, writers))):
            writer.start_at = (i + u) * step
        return scenario

    def unloaded(self):
        return self._build(1, 1, 0)

    def run(self, scenario):
        scenario.run()

    def clients(self, scenario):
        return [w.client for w in scenario.writers]

    def check(self, scenario, ops):
        failures = []
        expected = sum(w.max_ops for w in scenario.writers)
        ok = sum(1 for op in ops if op.ok)
        if ok != expected:
            failures.append(f"{ok} ops ok, expected {expected}")
        stats = scenario.control_plane_stats()
        if stats["versions_published"] != expected:
            failures.append(
                f"versions_published {stats['versions_published']} != {expected}")
        for writer in scenario.writers:
            info = scenario.deployment.authority_vm(writer.blob_id).blob_info(
                writer.blob_id)
            chain = info.published_versions()
            if chain != list(range(1, writer.max_ops + 1)):
                failures.append(f"blob {writer.blob_id} version chain {chain}")
                break
        idle = [e["shard"] for e in stats["vm"] if e["versions_published"] < 1]
        if idle:
            failures.append(f"version-manager shards {idle} published nothing")
        return failures


class BulkWrite(Workload):
    name = "bulk_write"
    tail_q = 0.95
    unloaded_op_s = 8.744737
    #: Clients of the paper's experiment start "at the same time"; on a
    #: real cluster that is within about a second.
    start_skew_s = 1.0

    def build(self, seed, smoke):
        clients, ops = (12, 1) if smoke else (120, 2)
        scenario = build_write_scenario(clients, ops_per_client=ops, seed=seed)
        for writer, u in zip(scenario.writers,
                             _seeded_offsets(self.name, seed, clients)):
            writer.start_at = u * self.start_skew_s
        return scenario

    def unloaded(self):
        return build_write_scenario(1, ops_per_client=1)

    def run(self, scenario):
        scenario.run()

    def clients(self, scenario):
        return [w.client for w in scenario.writers]

    def check(self, scenario, ops):
        failures = []
        expected = sum(w.max_ops for w in scenario.writers)
        ok = [op for op in ops if op.ok]
        if len(ok) != expected:
            failures.append(f"{len(ok)} ops ok, expected {expected}")
        written = sum(op.size_mb for op in ok)
        if written != expected * 1024.0:
            failures.append(f"written {written} MB != {expected} x 1024")
        stored = scenario.deployment.storage_stats()["total_stored_mb"]
        replicated = written * scenario.deployment.config.replication
        if abs(stored - replicated) > 1e-6:
            failures.append(f"stored {stored} MB != written x replication "
                            f"{replicated}")
        return failures


class AdaptiveRead(Workload):
    name = "adaptive_read"
    tail_q = 0.99
    unloaded_op_s = 0.039500
    #: The builder's churn *crashes* providers, which loses chunks whose
    #: replicas sit on both of them (seed 1: 12 reads fail with "all
    #: replicas lost") and aborts reads in flight.  A benchmark workload
    #: must not fail operations, so the churn window is a gray failure
    #: instead: the same two providers, the same window, NICs at 10%.
    churn_providers = 2
    churn_bandwidth_factor = 0.1

    def _build(self, seed, smoke, **overrides):
        config = dict(
            readers=12, think_s=0.05, duration=200, shift_at=70, churn_at=130,
            with_tuner=True, with_journal=True, churn_providers=0, seed=seed)
        if smoke:
            config.update(readers=4, duration=50, shift_at=15, churn_at=30,
                          churn_heal_s=10)
        config.update(overrides)
        return build_disturbance_scenario(**config)

    def build(self, seed, smoke):
        return self._build(seed, smoke)

    def unloaded(self):
        # One reader whose think time outlasts the run: exactly one read.
        return self._build(0, False, readers=1, think_s=1e6, with_tuner=False,
                           with_journal=False)

    def prepare(self, scenario):
        scenario.preload()

    def run(self, scenario):
        testbed = scenario.deployment.testbed
        env = testbed.env
        injector = FaultInjector(testbed)

        def churn():
            yield env.timeout(scenario.churn_at - env.now)
            for k in range(self.churn_providers):
                injector.degrade_nic(
                    testbed.node(f"provider-{k}-node"),
                    bandwidth_factor=self.churn_bandwidth_factor,
                    duration_s=scenario.churn_heal_s)

        env.process(churn(), name="provider-churn")
        scenario.run()
        # ``scenario.run()`` installed its own injector, which stayed idle
        # (``churn_providers=0``); the one that acted is the one to report.
        scenario.injector = injector

    def clients(self, scenario):
        return [r.client for r in scenario.readers]

    def span_s(self, scenario, phase_start):
        return scenario.duration - phase_start

    def check(self, scenario, ops):
        failures = []
        delivered = scenario.total_read_mb()
        ok_mb = sum(op.size_mb for op in ops if op.ok)
        if abs(delivered - ok_mb) > 1e-6:
            failures.append(f"delivered {delivered} MB != ok reads {ok_mb} MB")
        if scenario.tuner.decisions_total < 1:
            failures.append("the cache tuner made no decision")
        try:
            fleet = scenario.scorecard()["fleet"]
            if "slo_violation_s" not in fleet:
                failures.append("scorecard has no fleet.slo_violation_s")
        except Exception as exc:  # the check is that it computes at all
            failures.append(f"scorecard failed: {exc!r}")
        return failures


class DosDefense(Workload):
    name = "dos_defense"
    tail_q = 0.90
    unloaded_op_s = 1.059533
    horizon_s = 40.0

    def _build(self, clients, malicious, seed, smoke):
        config = dict(attack_start=5, attack_stagger_s=5, op_mb=64,
                      security_enabled=True, seed=seed)
        if smoke:
            config.update(attack_start=1, attack_stagger_s=1, attack_parallel=8,
                          scan_interval_s=2.0, history_pull_interval_s=1.0,
                          flush_interval_s=0.5)
        return build_dos_scenario(clients, malicious, **config)

    def build(self, seed, smoke):
        scenario = self._build(10, 0.3, seed, smoke)
        scenario.horizon_s = 12.0 if smoke else self.horizon_s
        return scenario

    def unloaded(self):
        scenario = self._build(1, 0.0, 0, False)
        scenario.horizon_s = 2.0
        return scenario

    def run(self, scenario):
        scenario.run(until=scenario.horizon_s)

    def clients(self, scenario):
        return [w.client for w in scenario.correct]

    def span_s(self, scenario, phase_start):
        return scenario.horizon_s - phase_start

    def check(self, scenario, ops):
        failures = []
        engine = scenario.security.engine
        blocked = set(scenario.security.enforcement.blocked_clients())
        for attacker in scenario.attackers:
            cid = attacker.client.client_id
            if engine.first_detection(cid) is None:
                failures.append(f"attacker {cid} was never detected")
            elif cid not in blocked:
                failures.append(f"attacker {cid} was detected but not blocked")
        correct = {w.client.client_id for w in scenario.correct}
        sanctioned = sorted(correct & {s.client_id for s in
                                       scenario.security.enforcement.sanctions})
        if sanctioned:
            failures.append(f"correct clients sanctioned: {sanctioned}")
        if not ops:
            failures.append("correct clients completed no op")
        return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (MetaFanout(), BulkWrite(), AdaptiveRead(), DosDefense())
}


# -- end-to-end (simulated) metrics ------------------------------------------------
def simulated_metrics(workload: Workload, scenario, phase_start: float,
                      smoke: bool) -> Dict[str, Any]:
    """The simulated end-to-end metrics, the counts behind them, the
    output-check failures and the outcome digest of one finished run."""
    ops = workload.measured_ops(scenario, phase_start)
    ok = [op for op in ops if op.ok]
    span = workload.span_s(scenario, phase_start)
    latencies = sorted(op.duration_s for op in ok)
    supported = tail_percentile(len(latencies))
    tail_q = supported if smoke else workload.tail_q
    late = sum(1 for d in latencies if d > workload.slo_op_s)
    failed = len(ops) - len(ok)
    attempted = max(1, len(ops))
    failures = workload.check(scenario, ops)
    if failed:
        failures.append(f"{failed} of {len(ops)} measured ops failed")
    if not smoke and (supported is None or supported < workload.tail_q):
        failures.append(f"p{workload.tail_q * 100:g} needs 10 samples beyond it; "
                        f"{len(latencies)} ok ops support {supported}")
    return {
        "metrics": {
            "sim_ops_per_s": len(ok) / span,
            "sim_goodput_mbps": sum(op.size_mb for op in ok) / span,
            "sim_op_p50_s": percentile(latencies, 0.50),
            "sim_op_tail_s": percentile(latencies, tail_q or 1.0),
            "op_fail_ratio": failed / attempted,
            "sim_slo_miss_ratio": (failed + late) / attempted,
        },
        "counts": {
            "attempted": len(ops),
            "ok": len(ok),
            "failed": failed,
            "late": late,
            "tail_percentile": tail_q,
            "tail_samples_beyond": (
                len(latencies) - math.ceil((tail_q or 1.0) * len(latencies))),
            "span_sim_s": span,
            "slo_op_s": workload.slo_op_s,
        },
        "check_failures": failures,
        "sim_digest": outcome_digest(workload, scenario),
    }


def outcome_digest(workload: Workload, scenario) -> str:
    """sha256 of the client-visible outcome: every measured client's op
    history (rounded as the scenarios' ``observables()`` round), every
    blob's final version and the storage pool's state.  The event count
    is left out on purpose: a kernel change that removes events but
    keeps every outcome keeps the digest."""
    deployment = scenario.deployment
    blobs = {}
    for vm in deployment.authority_vms():
        for blob_id, info in vm.blobs.items():
            blobs[str(blob_id)] = [info.latest, round(info.size_mb, 6)]
    payload = {
        "end": round(deployment.env.now, 9),
        "histories": [
            [client.client_id,
             [[op.op, op.blob_id, round(op.size_mb, 6), round(op.started_at, 9),
               round(op.finished_at, 9), op.ok, op.version]
              for op in client.history]]
            for client in workload.clients(scenario)
        ],
        "blobs": blobs,
        "pool": {k: round(v, 6) for k, v in deployment.storage_stats().items()},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def probe_unloaded_latency(workload: Workload) -> float:
    """Simulated latency of the workload's operation with one client and
    nothing else running — half of ``slo_op_s``."""
    scenario = workload.unloaded()
    workload.prepare(scenario)
    start = scenario.deployment.env.now
    workload.run(scenario)
    ops = [op for op in workload.measured_ops(scenario, start) if op.ok]
    return ops[0].duration_s


def slo_table(probe: bool = False) -> Dict[str, Dict[str, Optional[float]]]:
    """The pinned latency limits per workload; with *probe*, the
    unloaded latencies measured again beside them."""
    return {
        w.name: {
            "unloaded_op_s": w.unloaded_op_s,
            "slo_op_s": w.slo_op_s,
            "probed_unloaded_op_s": probe_unloaded_latency(w) if probe else None,
        }
        for w in WORKLOADS.values()
    }


# -- per-layer counters --------------------------------------------------------------
def counters(scenario) -> Dict[str, float]:
    """Cumulative public counters of every layer the scenario deployed.

    Read before and after the measured phase; the per-layer counts are
    the differences, so set-up work (the dataset preload) is excluded.
    """
    deployment = scenario.deployment
    plane = deployment.control_plane_stats()
    gates = [vm.batch_gate for vm in deployment.authority_vms()
             if vm.batch_gate is not None]
    out = {
        "events": deployment.env.events_processed,
        "reallocations": deployment.net.reallocations,
        "realloc_flow_slots": deployment.net.realloc_flow_slots,
        "tickets": plane["tickets_issued"],
        "publishes": plane["versions_published"],
        "batches": sum(g.batches for g in gates),
        "batched_ops": sum(g.batched_ops for g in gates),
        "allocation_rpcs": plane["allocation_rpcs"],
        "allocated_chunks": plane["allocated_chunks"],
        "ingests": sum(p.chunks_written for p in deployment.providers.values()),
        "serves": sum(p.chunks_read for p in deployment.providers.values()),
        "kv_puts": sum(p.puts for p in deployment.metadata_providers),
        "kv_gets": sum(p.gets for p in deployment.metadata_providers),
        "cache_hits": sum(c.stats.hits for c in deployment.caches),
        "cache_misses": sum(c.stats.misses for c in deployment.caches),
        "cache_evictions": sum(c.stats.evictions for c in deployment.caches),
    }
    monitoring = getattr(scenario, "monitoring", None)
    stats = monitoring.stats() if monitoring is not None else {}
    for key in ("emitted", "shipped", "stored", "dropped"):
        out[f"monitoring_{key}"] = stats.get(key, 0)
    security = getattr(scenario, "security", None)
    out["scans"] = security.engine.scans if security is not None else 0
    out["detections"] = len(security.violations) if security is not None else 0
    tuner = getattr(scenario, "tuner", None)
    out["loop_steps"] = tuner.steps if tuner is not None else 0
    out["decisions"] = tuner.decisions_total if tuner is not None else 0
    journal = getattr(scenario, "journal", None)
    out["journal_entries"] = journal.total if journal is not None else 0
    injector = getattr(scenario, "injector", None)
    for kind in ("crash", "recover", "degrade"):
        out[f"faults_{kind}"] = (len(injector.events_of(kind))
                                 if injector is not None else 0)
    return out


def start_profiler(scenario) -> None:
    """Kernel counters for the traced run (inert for simulated outcomes)."""
    scenario.deployment.env.profiler = KernelProfiler()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(workload: Workload, scenario, report: Dict[str, Any],
                      before: Dict[str, float], after: Dict[str, float],
                      traced_wall_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except the two that need the untraced
    wall time (``simulation.events_per_s``, ``us_per_event``) and
    ``trace.overhead_ratio``, which the parent fills in."""
    delta = {k: after[k] - before[k] for k in after}
    rows = report["boundaries"]

    def calls(layer, *names, parent_not=None, field="calls"):
        return sum(r[field] for r in rows
                   if r["layer"] == layer and r["boundary"].endswith(names)
                   and (parent_not is None or r["parent"] != parent_not))

    out = {f"{layer}.self_s": 0.0 for layer in
           dict.fromkeys(m.name.rsplit(".", 1)[0] for m in PER_LAYER
                         if m.name.endswith(".self_s"))}
    for layer, entry in report["layers"].items():
        out[f"{layer}.self_s"] = entry["self_s"]

    profiler = scenario.deployment.env.profiler
    out["simulation.events"] = delta["events"]
    out["simulation.process_resumes"] = sum(profiler.process_steps.values())
    out["simulation.max_heap_depth"] = profiler.max_heap_depth

    out["network.transfers"] = calls("network", "transfer[payload]")
    out["network.messages"] = calls("network", "transfer[message]")
    out["network.aborts"] = calls("network", ".abort")
    out["network.reallocations"] = delta["reallocations"]
    out["network.realloc_flow_slots"] = delta["realloc_flow_slots"]
    out["network.slots_per_reallocation"] = _ratio(
        delta["realloc_flow_slots"], delta["reallocations"])

    out["cluster.crashes"] = delta["faults_crash"]
    out["cluster.recoveries"] = delta["faults_recover"]
    out["cluster.degradations"] = delta["faults_degrade"]

    client_ops = ("BlobSeerClient.create_blob", "BlobSeerClient.write",
                  "BlobSeerClient.append", "BlobSeerClient.read")
    out["blobseer.client.ops"] = calls("blobseer.client", *client_ops)
    out["blobseer.client.failed_ops"] = calls("blobseer.client", *client_ops,
                                              field="raised")

    out["blobseer.version_manager.tickets"] = delta["tickets"]
    out["blobseer.version_manager.publishes"] = delta["publishes"]
    # Without a group-commit gate every request is a batch of one.
    out["blobseer.version_manager.mean_batch"] = (
        _ratio(delta["batched_ops"], delta["batches"]) if delta["batches"] else 1.0)
    # Ticket request to publish ack, per write: the ticket RPC, the
    # metadata write and the publish RPC run back to back in the client.
    out["blobseer.version_manager.wait_sim_s"] = sum(
        r["sim_s"] for r in rows if r["parent"] == "blobseer.client"
        and (r["boundary"].endswith((".remote_ticket", ".remote_complete"))
             or r["boundary"] == "tree_update"))

    out["blobseer.provider_manager.allocation_rpcs"] = delta["allocation_rpcs"]
    out["blobseer.provider_manager.allocated_chunks"] = delta["allocated_chunks"]
    out["blobseer.provider_manager.chunks_per_rpc"] = _ratio(
        delta["allocated_chunks"], delta["allocation_rpcs"])

    out["blobseer.provider.ingests"] = delta["ingests"]
    out["blobseer.provider.serves"] = delta["serves"]
    out["blobseer.provider.stored_mb"] = (
        scenario.deployment.storage_stats()["total_stored_mb"])

    updates = calls("blobseer.metadata", "tree_update")
    queries = calls("blobseer.metadata", "tree_query")
    out["blobseer.metadata.tree_updates"] = updates
    out["blobseer.metadata.tree_queries"] = queries
    out["blobseer.metadata.kv_puts"] = delta["kv_puts"]
    out["blobseer.metadata.kv_gets"] = delta["kv_gets"]
    out["blobseer.metadata.puts_per_update"] = _ratio(delta["kv_puts"], updates)
    out["blobseer.metadata.gets_per_query"] = _ratio(delta["kv_gets"], queries)

    out["blobseer.rpc.requests"] = calls("blobseer.rpc", "request_response")
    out["blobseer.rpc.timeouts"] = calls("blobseer.rpc", "make_timeout_error")
    # ``with_retries`` counts its re-attempts only into a metrics
    # registry; with no retry policy configured it never runs at all.
    registry = scenario.deployment.env.metrics
    out["blobseer.rpc.retries"] = (
        registry.counter("rpc.retries").value if registry is not None else 0)

    lookups = delta["cache_hits"] + delta["cache_misses"]
    out["cache.lookups"] = lookups
    out["cache.hits"] = delta["cache_hits"]
    out["cache.hit_ratio"] = _ratio(delta["cache_hits"], lookups)
    out["cache.evictions"] = delta["cache_evictions"]
    out["cache.resizes"] = calls("cache", "Cache.resize")

    for key in ("emitted", "shipped", "stored", "dropped"):
        out[f"monitoring.{key}"] = delta[f"monitoring_{key}"]
    out["monitoring.stored_per_emitted"] = _ratio(
        delta["monitoring_stored"], delta["monitoring_emitted"])

    out["introspection.queries"] = sum(
        r["calls"] for r in rows if r["layer"] == "introspection"
        and r["boundary"].startswith("QueryEngine.")
        and r["parent"] != "introspection")
    out["introspection.journal_entries"] = delta["journal_entries"]

    out["security.scans"] = delta["scans"]
    out["security.detections"] = delta["detections"]
    security = getattr(scenario, "security", None)
    delays: List[float] = []
    false_positives = 0
    if security is not None:
        delays = sorted(scenario.detection_delays())
        correct = {w.client.client_id for w in scenario.correct}
        false_positives = sum(1 for s in security.enforcement.sanctions
                              if s.client_id in correct)
    out["security.false_positives"] = false_positives
    out["security.detection_delay_p50_sim_s"] = percentile(delays, 0.5)
    out["security.detection_delay_max_sim_s"] = delays[-1] if delays else 0.0

    out["adaptation.loop_steps"] = delta["loop_steps"]
    out["adaptation.decisions"] = delta["decisions"]
    out.update(_adaptation_quality(scenario))

    out["telemetry.samples"] = calls(
        "telemetry", "Counter.inc", "Gauge.set", "Gauge.add",
        "Histogram.observe", "TimeSeries.record")

    out["trace.coverage"] = _ratio(
        sum(entry["self_s"] for entry in report["layers"].values()),
        traced_wall_s)
    return out


def _adaptation_quality(scenario) -> Dict[str, float]:
    """SLO-violation seconds and settling times from the scenario's own
    scorecard.  A signal that never settles is reported as the time from
    the disturbance to the end of the run (a censored value)."""
    names = ("adaptation.slo_violation_sim_s",
             "adaptation.settling_hot_set_shift_sim_s",
             "adaptation.settling_provider_churn_sim_s")
    if not hasattr(scenario, "scorecard"):
        return dict.fromkeys(names, 0.0)
    card = scenario.scorecard()
    end = card["span"][1]
    out = {names[0]: card["fleet"]["slo_violation_s"]}
    disturbances = card["signals"]["throughput"]["disturbances"]
    for name, label in zip(names[1:], ("hot_set_shift", "provider_churn")):
        entry: Optional[dict] = disturbances.get(label)
        if entry is None:
            out[name] = 0.0
        elif entry["settling_s"] is None:
            out[name] = end - entry["at"]
        else:
            out[name] = entry["settling_s"]
    return out
