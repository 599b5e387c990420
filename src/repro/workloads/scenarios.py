"""Canned experiment scenarios matching the paper's deployments.

- :func:`build_write_scenario` — §IV-B: N clients each writing 1 GB to
  BlobSeer, with or without the introspection stack (150 data providers
  in the paper).
- :func:`build_dos_scenario` — §IV-C: 70 BlobSeer nodes, 8 monitoring
  services, up to 50 concurrent clients, a fraction of them attackers,
  with or without the security framework.
- :func:`build_hotspot_scenario` — a Zipf-skewed hot-spot read workload
  over one shared dataset BLOB, the stress case for the multi-tier
  caches (``repro.cache``) and the adaptive cache tuner.
- :func:`build_disturbance_scenario` — the BENCH-ADAPT quality-of-
  adaptation scenario: a sustained hot-spot read load hit by two seeded
  disturbances (a hot-set shift and a provider-churn window), with the
  cache tuner, decision journal, and adaptation scorecard wired in.
  ``planner=`` names which of the interchangeable planners drives the
  tuner — the BENCH-DECIDE matrix axis.
- :func:`build_contention_scenario` — the BENCH-DECIDE two-loop case:
  the cache tuner and the elasticity controller compete for one
  conserved memory ledger under an
  :class:`~repro.decision.arbiter.Arbiter` (elasticity outranks cache
  tuning; preemption physically shrinks caches).

The three Zipf-read scenarios (hot-spot, disturbance, contention) share
one base, :class:`ZipfReadScenario`: the dataset preload, the hot-set
shift and the read-side block of ``observables()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional

from ..blobseer.access import AccessTable
from ..blobseer.deployment import BlobSeerConfig, BlobSeerDeployment
from ..cluster.testbed import Testbed, TestbedConfig
from ..monitoring.pipeline import MonitoringConfig, MonitoringStack
from ..security.framework import PolicyManagement, SecurityConfig
from ..security.policy import Policy, dos_flood_policy
from .clients import CorrectWriter, DosAttacker, ZipfReader

__all__ = [
    "WriteScenario",
    "build_write_scenario",
    "FanoutScenario",
    "build_fanout_scenario",
    "DosScenario",
    "build_dos_scenario",
    "ZipfReadScenario",
    "HotspotScenario",
    "build_hotspot_scenario",
    "DisturbanceScenario",
    "build_disturbance_scenario",
    "ContentionScenario",
    "build_contention_scenario",
]


@dataclass
class WriteScenario:
    """Handles for a §IV-B style concurrent-write run."""

    deployment: BlobSeerDeployment
    monitoring: Optional[MonitoringStack]
    writers: List[CorrectWriter]

    __test__ = False

    def run(self, until: Optional[float] = None) -> None:
        env = self.deployment.env
        procs = [env.process(w.run(env), name=f"writer-{i}")
                 for i, w in enumerate(self.writers)]
        if until is not None:
            self.deployment.run(until=until)
        else:
            self.deployment.run(until=env.all_of(procs))

    def mean_client_throughput(self) -> float:
        values = [w.mean_throughput() for w in self.writers if w.results]
        return sum(values) / len(values) if values else 0.0


def build_write_scenario(
    clients: int,
    data_providers: int = 150,
    metadata_providers: int = 8,
    op_mb: float = 1024.0,
    ops_per_client: int = 1,
    chunk_size_mb: float = 64.0,
    with_monitoring: bool = True,
    monitoring_services: int = 8,
    seed: int = 0,
) -> WriteScenario:
    """The §IV-B experiment: N clients x 1 GB writes, monitored or not."""
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=data_providers,
        metadata_providers=metadata_providers,
        chunk_size_mb=chunk_size_mb,
        testbed=TestbedConfig(seed=seed),
    ))
    monitoring: Optional[MonitoringStack] = None
    if with_monitoring:
        monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
            services=monitoring_services,
            storage_servers=max(2, monitoring_services // 2),
            flush_interval_s=1.0,
            physical_sample_interval_s=5.0,
            sensor_stop_at=600.0,
        ))
        monitoring.attach(deployment)
    writers = []
    for i in range(clients):
        client = deployment.new_client(f"client-{i}")
        writers.append(CorrectWriter(
            client, op_mb=op_mb, chunk_size_mb=chunk_size_mb,
            max_ops=ops_per_client,
        ))
    return WriteScenario(deployment, monitoring, writers)


@dataclass
class FanoutScenario:
    """Handles for a BENCH-META control-plane fan-out run.

    Many small concurrent writers, each appending to its own BLOB: the
    data plane is nearly idle while every write still crosses the
    allocate → ticket → publish control path, so aggregate throughput
    measures the control plane's serialization point, not the disks.
    """

    deployment: BlobSeerDeployment
    writers: List[CorrectWriter]

    __test__ = False

    def run(self, until: Optional[float] = None) -> None:
        env = self.deployment.env
        procs = [env.process(w.run(env), name=f"writer-{i}")
                 for i, w in enumerate(self.writers)]
        if until is not None:
            self.deployment.run(until=until)
        else:
            self.deployment.run(until=env.all_of(procs))

    # -- headline numbers ----------------------------------------------------------
    def completed_ops(self) -> int:
        return sum(len(w.results) for w in self.writers)

    def makespan_s(self) -> float:
        """First create to last publish, across all writers."""
        finishes = [op.finished_at for w in self.writers for op in w.results]
        return max(finishes) if finishes else 0.0

    def aggregate_write_throughput(self) -> float:
        """Published writes per second of simulated time."""
        makespan = self.makespan_s()
        return self.completed_ops() / makespan if makespan > 0 else 0.0

    def control_plane_stats(self) -> dict:
        return self.deployment.control_plane_stats()

    # -- observables (the determinism contract) ------------------------------------
    def observables(self) -> str:
        """Every client-visible observable plus the control-plane
        counters, as one canonical JSON string (byte-identical per
        seed)."""
        env = self.deployment.env
        payload = {
            "end": env.now,
            "events": env.events_processed,
            "completions": [
                [w.client.client_id, w.blob_id,
                 [[op.op, op.blob_id, round(op.size_mb, 6),
                   round(op.started_at, 9), round(op.finished_at, 9),
                   op.ok, op.version]
                  for op in w.client.history]]
                for w in self.writers
            ],
            "control_plane": self.deployment.control_plane_stats(),
            "pool": self.deployment.storage_stats(),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def build_fanout_scenario(
    writers: int,
    ops_per_writer: int = 1,
    op_mb: float = 1.0,
    chunk_size_mb: float = 1.0,
    data_providers: int = 64,
    metadata_providers: int = 4,
    vm_shards: int = 1,
    pm_shards: int = 1,
    vm_batch: bool = False,
    client_pipelining: bool = False,
    per_chunk_allocation: bool = False,
    allocation: str = "round_robin",
    vm_replicas: int = 1,
    ramp_s: float = 1.0,
    seed: int = 0,
) -> FanoutScenario:
    """BENCH-META: *writers* concurrent clients, each creating one BLOB
    and appending ``ops_per_writer`` small writes, start times spread
    uniformly over ``ramp_s`` so arrivals are not a single thundering
    instant (deterministic spacing, not random)."""
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=data_providers,
        metadata_providers=metadata_providers,
        chunk_size_mb=chunk_size_mb,
        allocation=allocation,
        vm_shards=vm_shards,
        pm_shards=pm_shards,
        vm_batch=vm_batch,
        vm_replicas=vm_replicas,
        client_pipelining=client_pipelining,
        per_chunk_allocation=per_chunk_allocation,
        testbed=TestbedConfig(seed=seed),
    ))
    step = ramp_s / writers if writers else 0.0
    scenario_writers = []
    for i in range(writers):
        client = deployment.new_client(f"client-{i}")
        scenario_writers.append(CorrectWriter(
            client, op_mb=op_mb, chunk_size_mb=chunk_size_mb,
            start_at=i * step, max_ops=ops_per_writer,
        ))
    return FanoutScenario(deployment, scenario_writers)


@dataclass
class DosScenario:
    """Handles for a §IV-C style attack run."""

    deployment: BlobSeerDeployment
    monitoring: MonitoringStack
    security: Optional[PolicyManagement]
    access: AccessTable
    correct: List[CorrectWriter]
    attackers: List[DosAttacker]
    attack_start: float

    __test__ = False

    def start(self) -> None:
        env = self.deployment.env
        for i, writer in enumerate(self.correct):
            env.process(writer.run(env), name=f"writer-{i}")
        for i, attacker in enumerate(self.attackers):
            env.process(attacker.run(env), name=f"attacker-{i}")
        if self.security is not None:
            self.security.start()

    def run(self, until: float) -> None:
        self.start()
        self.deployment.run(until=until)

    # -- metrics -------------------------------------------------------------------
    def correct_mean_throughput(self) -> float:
        values = [w.mean_throughput() for w in self.correct if w.results]
        return sum(values) / len(values) if values else 0.0

    def correct_mean_duration(self) -> float:
        values = [w.mean_duration() for w in self.correct if w.results]
        return sum(values) / len(values) if values else 0.0

    def detection_delays(self) -> List[float]:
        """Per detected attacker: seconds from its attack start to block."""
        if self.security is None:
            return []
        delays = []
        for attacker in self.attackers:
            detected = self.security.engine.first_detection(
                attacker.client.client_id
            )
            if detected is not None:
                delays.append(detected - max(attacker.start_at, self.attack_start))
        return delays

    def detection_times(self) -> List[float]:
        """Absolute detection times of attackers (for first/last-vs-
        attack-start reporting, the paper's EXP-C3 metric)."""
        if self.security is None:
            return []
        times = []
        for attacker in self.attackers:
            detected = self.security.engine.first_detection(
                attacker.client.client_id
            )
            if detected is not None:
                times.append(detected)
        return times


def build_dos_scenario(
    n_clients: int,
    malicious_fraction: float,
    security_enabled: bool = True,
    data_providers: int = 60,
    metadata_providers: int = 8,
    monitoring_services: int = 8,
    op_mb: float = 1024.0,
    chunk_size_mb: float = 64.0,
    attack_start: float = 20.0,
    attack_stagger_s: float = 15.0,
    attack_parallel: int = 128,
    seed: int = 0,
    policies: Optional[List[Policy]] = None,
    scan_interval_s: float = 10.0,
    history_pull_interval_s: float = 5.0,
    flush_interval_s: float = 2.0,
    confirmations: int = 2,
    rate_threshold: float = 1.0,
    policy_window_s: float = 30.0,
    rate_granularity_s: float = 0.02,
) -> DosScenario:
    """The §IV-C deployment: 70 BlobSeer nodes (60 data + 8 metadata
    providers + version & provider managers), 8 monitoring services."""
    access = AccessTable()
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            chunk_size_mb=chunk_size_mb,
            testbed=TestbedConfig(seed=seed, rate_granularity_s=rate_granularity_s),
        ),
        access=access,
    )
    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=monitoring_services,
        storage_servers=max(2, monitoring_services // 2),
        flush_interval_s=flush_interval_s,
    ))
    monitoring.attach(deployment)

    n_malicious = int(round(n_clients * malicious_fraction))
    n_correct = n_clients - n_malicious
    rng = deployment.rng.stream("scenario")

    correct = []
    for i in range(n_correct):
        client = deployment.new_client(f"good-{i}")
        correct.append(CorrectWriter(client, op_mb=op_mb, chunk_size_mb=chunk_size_mb))

    attackers = []
    for i in range(n_malicious):
        client = deployment.new_client(f"evil-{i}")
        start = attack_start + float(rng.uniform(0.0, attack_stagger_s))
        attackers.append(DosAttacker(
            client,
            start_at=start,
            chunk_size_mb=1.0,  # tiny chunks: a request flood, not bulk data
            parallel=attack_parallel,
        ))

    security: Optional[PolicyManagement] = None
    if security_enabled:
        if policies is None:
            policies = [dos_flood_policy(
                max_rate_per_s=rate_threshold, window_s=policy_window_s
            )]
        security = PolicyManagement(
            deployment,
            monitoring,
            policies=policies,
            access_table=access,
            config=SecurityConfig(
                scan_interval_s=scan_interval_s,
                history_pull_interval_s=history_pull_interval_s,
                confirmations=confirmations,
            ),
        )
    return DosScenario(
        deployment=deployment,
        monitoring=monitoring,
        security=security,
        access=access,
        correct=correct,
        attackers=attackers,
        attack_start=attack_start,
    )


@dataclass(kw_only=True)
class ZipfReadScenario:
    """What the Zipf-read scenarios share: one writer preloads a dataset
    BLOB that *readers* then hammer with Zipf-skewed chunk reads."""

    deployment: BlobSeerDeployment
    writer: CorrectWriter
    readers: List[ZipfReader]
    dataset_chunks: int
    chunk_size_mb: float
    blob_id: Optional[int] = None
    read_start: float = 0.0

    #: Prefix of this scenario's process names (``<prefix>-preload``,
    #: ``<prefix>-reader-<i>``).
    process_prefix: ClassVar[str]
    __test__ = False

    def preload(self) -> int:
        """Write the shared dataset BLOB; returns its blob id."""
        env = self.deployment.env
        proc = env.process(self.writer.run(env),
                           name=f"{self.process_prefix}-preload")
        self.deployment.run(until=proc)
        if self.writer.blob_id is None:
            raise RuntimeError("dataset preload failed")
        self.blob_id = self.writer.blob_id
        for reader in self.readers:
            reader.blob_id = self.blob_id
        return self.blob_id

    def _start_readers(self, stop_at: Optional[float] = None) -> list:
        """Preload (if needed) and launch every reader; returns the
        reader processes."""
        if self.blob_id is None:
            self.preload()
        env = self.deployment.env
        self.read_start = env.now
        procs = []
        for i, reader in enumerate(self.readers):
            if stop_at is not None:
                reader.stop_at = stop_at
            procs.append(env.process(
                reader.run(env), name=f"{self.process_prefix}-reader-{i}"))
        return procs

    def _hot_set_shift(self, env):
        """Process: at ``shift_at`` every reader's hot set jumps."""
        delay = self.shift_at - env.now
        if delay > 0:
            yield env.timeout(delay)
        for reader in self.readers:
            reader.reshuffle()

    def total_read_mb(self) -> float:
        return sum(r.total_read_mb() for r in self.readers)

    def _observables(self, **extra: Any) -> str:
        """The read-side observables plus *extra*, as one canonical JSON
        string (byte-identical per seed)."""
        env = self.deployment.env
        payload = {
            "end": env.now,
            "events": env.events_processed,
            "completions": [
                [r.client.client_id,
                 [[op.op, op.blob_id, round(op.size_mb, 6),
                   round(op.started_at, 9), round(op.finished_at, 9), op.ok]
                  for op in r.client.history]]
                for r in self.readers
            ],
            "delivered_mb": round(self.total_read_mb(), 6),
            "metrics": (env.metrics.to_dict()
                        if env.metrics is not None else None),
            **extra,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(kw_only=True)
class HotspotScenario(ZipfReadScenario):
    """Handles for a Zipf-skewed hot-spot read run (cache stress case)."""

    tuner: Optional["CacheTuner"]
    read_end: float = 0.0

    process_prefix = "hotspot"

    def run(self, until: Optional[float] = None) -> None:
        """Preload (if needed), then run every reader to completion."""
        procs = self._start_readers()
        env = self.deployment.env
        if self.tuner is not None:
            env.process(self.tuner.run(env), name="cache-tuner")
        self.deployment.run(until=until if until is not None else env.all_of(procs))
        self.read_end = env.now

    # -- metrics -------------------------------------------------------------------
    def aggregate_read_throughput(self) -> float:
        """Fleet-wide MB/s over the read phase (the headline number)."""
        elapsed = self.read_end - self.read_start
        return self.total_read_mb() / elapsed if elapsed > 0 else 0.0

    def cache_report(self) -> dict:
        """Per-cache stats snapshot keyed by cache name."""
        return {c.name: c.to_dict() for c in self.deployment.caches}


def build_hotspot_scenario(
    readers: int = 8,
    dataset_chunks: int = 64,
    chunk_size_mb: float = 8.0,
    reads_per_client: int = 50,
    skew: float = 1.1,
    data_providers: int = 12,
    metadata_providers: int = 2,
    replication: int = 1,
    with_caches: bool = False,
    chunk_cache_mb: float = 64.0,
    metadata_cache_mb: float = 8.0,
    provider_cache_mb: float = 64.0,
    cache_policy: str = "lru",
    with_tuner: bool = False,
    tuner_interval_s: float = 5.0,
    tuner_total_budget_mb: Optional[float] = None,
    with_metrics: bool = False,
    seed: int = 0,
) -> HotspotScenario:
    """Hot-spot read workload: one writer preloads a shared dataset BLOB,
    then *readers* clients hammer Zipf-skewed chunks of it.

    With *with_caches* the client chunk/metadata tiers and the provider
    memory tier are enabled; *with_tuner* additionally runs a
    :class:`~repro.adaptation.CacheTuner` over every cache the
    deployment built (this implies metrics, which the tuner needs).
    Defaults keep every cache off, so the scenario doubles as the
    cache-less baseline under the same RNG streams.
    """
    testbed = Testbed(TestbedConfig(seed=seed))
    if with_metrics or with_tuner:
        from ..telemetry.metrics import MetricsRegistry

        testbed.env.metrics = MetricsRegistry(testbed.env)
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            replication=replication,
            chunk_size_mb=chunk_size_mb,
            client_chunk_cache_mb=chunk_cache_mb if with_caches else 0.0,
            client_metadata_cache_mb=metadata_cache_mb if with_caches else 0.0,
            provider_cache_mb=provider_cache_mb if with_caches else 0.0,
            cache_policy=cache_policy,
        ),
        testbed=testbed,
    )
    writer_client = deployment.new_client("hotspot-writer")
    writer = CorrectWriter(
        writer_client,
        op_mb=dataset_chunks * chunk_size_mb,
        chunk_size_mb=chunk_size_mb,
        max_ops=1,
    )
    zipf_readers = []
    for i in range(readers):
        client = deployment.new_client(f"hotspot-reader-{i}")
        zipf_readers.append(ZipfReader(
            client,
            blob_id=-1,  # patched by preload()
            total_chunks=dataset_chunks,
            chunk_size_mb=chunk_size_mb,
            rng=deployment.rng.stream(f"zipf:{i}"),
            skew=skew,
            max_ops=reads_per_client,
        ))
    tuner = None
    if with_tuner:
        from ..adaptation.cache_tuner import CacheTuner
        from ..introspection.query import QueryEngine

        query = QueryEngine.for_deployment(deployment, window_s=3 * tuner_interval_s)
        tuner = CacheTuner(
            query,
            caches=deployment.caches,
            interval_s=tuner_interval_s,
            total_budget_mb=tuner_total_budget_mb,
        )
    return HotspotScenario(
        deployment=deployment,
        writer=writer,
        readers=zipf_readers,
        tuner=tuner,
        dataset_chunks=dataset_chunks,
        chunk_size_mb=chunk_size_mb,
    )


@dataclass(kw_only=True)
class DisturbanceScenario(ZipfReadScenario):
    """Handles for a BENCH-ADAPT quality-of-adaptation run.

    A sustained Zipf hot-spot read load is hit by two seeded
    disturbances: at ``shift_at`` every reader's hot set jumps to a
    fresh permutation (the caches' working set moves), and over
    ``[churn_at, churn_at + churn_heal_s)`` a batch of data providers
    crashes and later recovers (capacity and replica availability dip).
    The cache tuner (when on) must chase both; the decision journal and
    the adaptation scorecard measure how well it did.
    """

    tuner: Optional["CacheTuner"]
    journal: Optional["DecisionJournal"]
    query: Optional["QueryEngine"]
    shift_at: float
    churn_at: float
    churn_heal_s: float
    churn_providers: int
    duration: float
    slo_mbps: float
    injector: Optional["FaultInjector"] = None
    #: Planner driving the tuner (a ``repro.decision.planners`` name).
    planner_name: str = "marginal-utility"

    process_prefix = "disturb"

    def run(self) -> None:
        """Preload, arm both disturbances, run readers to ``duration``."""
        self._start_readers(stop_at=self.duration)
        env = self.deployment.env
        if self.tuner is not None:
            env.process(self.tuner.run(env), name="cache-tuner")
        env.process(self._hot_set_shift(env), name="hot-set-shift")
        from ..cluster.faults import FaultInjector

        self.injector = FaultInjector(self.deployment.testbed)
        for k in range(self.churn_providers):
            self.injector.crash_at(
                self.deployment.testbed.node(f"provider-{k}-node"),
                at=self.churn_at,
                recover_after=self.churn_heal_s,
            )
        self.deployment.run(until=self.duration)
        if self.journal is not None:
            self.journal.resolve_effects()

    # -- scoring -------------------------------------------------------------------
    def disturbances(self) -> list:
        from ..introspection.quality import Disturbance

        return [
            Disturbance(self.shift_at, "hot_set_shift"),
            Disturbance(self.churn_at, "provider_churn"),
        ]

    def scorecard(self, hold_s: float = 3.0) -> dict:
        """The SEAMS quality-of-adaptation scorecard for this run."""
        from ..introspection.quality import AdaptationScorecard, SignalSpec

        return AdaptationScorecard(
            journal=self.journal,
            metrics=self.deployment.env.metrics,
            signals=[SignalSpec("client.throughput_mbps",
                                min_value=self.slo_mbps, hold_s=hold_s,
                                label="throughput")],
            disturbances=self.disturbances(),
        ).compute(t0=self.read_start, t1=self.deployment.env.now)

    # -- observables (the determinism contract) ------------------------------------
    def observables(self) -> str:
        """Every simulated observable of the run, as one canonical JSON
        string — byte-identical across repeats per seed, and between
        journal-on and journal-off runs (the journal is inert)."""
        return self._observables(
            reallocations=self.deployment.net.reallocations)


def _planned_tuner(deployment, query, planner: str, step_fraction: float,
                   **tuner_kwargs):
    """A :class:`CacheTuner` over every deployment cache, driven by the
    named planner and rewarded by client throughput."""
    from ..adaptation.cache_tuner import CacheTuner
    from ..decision.planners import make_planner
    from ..decision.signals import SignalRef

    rng = (deployment.rng.stream("decision:bandit")
           if planner == "epsilon-greedy" else None)
    return CacheTuner(
        query,
        caches=deployment.caches,
        planner=make_planner(planner, rng=rng, step_fraction=step_fraction),
        reward_signal=SignalRef("client.throughput_mbps"),
        **tuner_kwargs,
    )


def build_disturbance_scenario(
    readers: int = 6,
    dataset_chunks: int = 48,
    chunk_size_mb: float = 4.0,
    skew: float = 1.2,
    think_s: float = 0.2,
    data_providers: int = 12,
    metadata_providers: int = 2,
    replication: int = 2,
    chunk_cache_mb: float = 32.0,
    metadata_cache_mb: float = 8.0,
    provider_cache_mb: float = 32.0,
    cache_policy: str = "lru",
    with_tuner: bool = True,
    tuner_interval_s: float = 5.0,
    tuner_step_fraction: float = 0.25,
    tuner_total_budget_mb: Optional[float] = None,
    with_journal: bool = False,
    journal_effect_window_s: float = 15.0,
    shift_at: float = 60.0,
    churn_at: float = 110.0,
    churn_providers: int = 2,
    churn_heal_s: float = 25.0,
    duration: float = 170.0,
    slo_mbps: float = 120.0,
    seed: int = 0,
    planner: str = "marginal-utility",
) -> DisturbanceScenario:
    """The BENCH-ADAPT scenario: hot-spot load + two disturbances.

    Metrics are always on (the scorecard needs the
    ``client.throughput_mbps`` series even in the tuner-off baseline);
    *with_journal* additionally wires a
    :class:`~repro.introspection.provenance.DecisionJournal` into the
    tuner with effect attribution against the throughput signal.  The
    journal is observably inert, so for any fixed configuration the
    :meth:`DisturbanceScenario.observables` string is byte-identical
    with the journal on or off.

    *planner* names the decision technique driving the
    :class:`~repro.adaptation.CacheTuner` (BENCH-DECIDE): any
    :data:`~repro.decision.planners.PLANNERS` name — same interval,
    budget, and step fraction, same seeded streams.  The bandit draws
    from the dedicated ``decision:bandit`` stream only, so every other
    stream is untouched.
    """
    from ..telemetry.metrics import MetricsRegistry

    testbed = Testbed(TestbedConfig(seed=seed))
    testbed.env.metrics = MetricsRegistry(testbed.env)
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            replication=replication,
            chunk_size_mb=chunk_size_mb,
            client_chunk_cache_mb=chunk_cache_mb,
            client_metadata_cache_mb=metadata_cache_mb,
            provider_cache_mb=provider_cache_mb,
            cache_policy=cache_policy,
        ),
        testbed=testbed,
    )
    writer_client = deployment.new_client("disturb-writer")
    writer = CorrectWriter(
        writer_client,
        op_mb=dataset_chunks * chunk_size_mb,
        chunk_size_mb=chunk_size_mb,
        max_ops=1,
    )
    zipf_readers = []
    for i in range(readers):
        client = deployment.new_client(f"disturb-reader-{i}")
        zipf_readers.append(ZipfReader(
            client,
            blob_id=-1,  # patched by preload()
            total_chunks=dataset_chunks,
            chunk_size_mb=chunk_size_mb,
            rng=deployment.rng.stream(f"zipf:{i}"),
            skew=skew,
            think_s=think_s,
        ))
    tuner = None
    query = None
    if with_tuner:
        from ..introspection.query import QueryEngine

        query = QueryEngine.for_deployment(deployment,
                                           window_s=3 * tuner_interval_s)
        tuner = _planned_tuner(
            deployment, query, planner, tuner_step_fraction,
            interval_s=tuner_interval_s,
            total_budget_mb=tuner_total_budget_mb,
        )
    journal = None
    if with_journal:
        from ..introspection.provenance import DecisionJournal

        journal = DecisionJournal(testbed.env,
                                  effect_window_s=journal_effect_window_s)
        journal.watch("cache-tuner", ["client.throughput_mbps"])
        if tuner is not None:
            tuner.attach_journal(journal)
    return DisturbanceScenario(
        deployment=deployment,
        writer=writer,
        readers=zipf_readers,
        tuner=tuner,
        journal=journal,
        query=query,
        dataset_chunks=dataset_chunks,
        chunk_size_mb=chunk_size_mb,
        shift_at=shift_at,
        churn_at=churn_at,
        churn_heal_s=churn_heal_s,
        churn_providers=churn_providers,
        duration=duration,
        slo_mbps=slo_mbps,
        planner_name=planner,
    )


@dataclass(kw_only=True)
class ContentionScenario(ZipfReadScenario):
    """Handles for a BENCH-DECIDE two-loop contention run.

    The cache tuner (self-optimization) and the elasticity controller
    (self-configuration) adapt the same deployment while an
    :class:`~repro.decision.arbiter.Arbiter` referees one conserved
    ``memory_mb`` ledger: cache capacity and provider-pool footprint are
    charged against the same budget.  Elasticity sits in the
    higher-priority band, so a scale-up that does not fit preempts
    cache capacity (physically shrinking caches through the tuner's
    reclaim hook); a scale-down credits budget back that the tuner can
    reclaim for caches.  The ledger invariant ``used <= capacity`` is
    asserted on every settlement.
    """

    #: Background bulk writers: the provider-pool load elasticity sees
    #: (client caches absorb the Zipf reads, so reads alone load nothing).
    load_writers: List[CorrectWriter]
    tuner: "CacheTuner"
    elasticity: "ElasticityController"
    arbiter: "Arbiter"
    journal: Optional["DecisionJournal"]
    query: "QueryEngine"
    shift_at: float
    duration: float
    slo_mbps: float
    memory_budget_mb: float
    planner_name: str = "marginal-utility"

    process_prefix = "contend"

    def run(self) -> None:
        """Preload, start both engines, run readers to ``duration``."""
        self._start_readers(stop_at=self.duration)
        env = self.deployment.env
        for i, writer in enumerate(self.load_writers):
            writer.stop_at = self.duration
            env.process(writer.run(env), name=f"contend-writer-{i}")
        env.process(self.tuner.run(env), name="cache-tuner")
        env.process(self.elasticity.run(env), name="elasticity")
        env.process(self._hot_set_shift(env), name="hot-set-shift")
        self.deployment.run(until=self.duration)
        for ledger in self.arbiter.ledgers.values():
            ledger.assert_conserved()
        if self.journal is not None:
            self.journal.resolve_effects()

    # -- scoring -------------------------------------------------------------------
    def scorecard(self, hold_s: float = 3.0) -> dict:
        from ..introspection.quality import (
            AdaptationScorecard, Disturbance, SignalSpec,
        )

        return AdaptationScorecard(
            journal=self.journal,
            metrics=self.deployment.env.metrics,
            signals=[SignalSpec("client.throughput_mbps",
                                min_value=self.slo_mbps, hold_s=hold_s,
                                label="throughput")],
            disturbances=[Disturbance(self.shift_at, "hot_set_shift")],
        ).compute(t0=self.read_start, t1=self.deployment.env.now)

    # -- observables (the determinism contract) ------------------------------------
    def observables(self) -> str:
        """Every simulated observable plus the arbiter's final ledger
        state, as one canonical JSON string (byte-identical per seed)."""
        return self._observables(
            write_ops=[len(w.results) for w in self.load_writers],
            pool_size=self.deployment.pmanager.pool_size(),
            capacities={name: round(c.capacity_mb, 6)
                        for name, c in self.tuner.caches.items()},
            arbiter=self.arbiter.to_dict(),
        )


def build_contention_scenario(
    readers: int = 6,
    dataset_chunks: int = 48,
    chunk_size_mb: float = 4.0,
    skew: float = 1.2,
    think_s: float = 0.2,
    data_providers: int = 8,
    metadata_providers: int = 2,
    replication: int = 2,
    chunk_cache_mb: float = 32.0,
    metadata_cache_mb: float = 8.0,
    provider_cache_mb: float = 32.0,
    cache_policy: str = "lru",
    load_writers: int = 4,
    writer_op_mb: float = 128.0,
    writer_chunk_mb: float = 4.0,
    planner: str = "marginal-utility",
    tuner_interval_s: float = 5.0,
    tuner_step_fraction: float = 0.25,
    elasticity_interval_s: float = 5.0,
    elasticity_cooldown_s: float = 10.0,
    high_load: float = 0.2,
    low_load: float = 0.02,
    high_fill: float = 0.85,
    scale_up_step: int = 2,
    max_extra_providers: int = 4,
    provider_cost_mb: float = 48.0,
    memory_budget_mb: Optional[float] = None,
    slack_mb: Optional[float] = None,
    with_journal: bool = False,
    journal_effect_window_s: float = 15.0,
    shift_at: float = 40.0,
    duration: float = 120.0,
    slo_mbps: float = 120.0,
    seed: int = 0,
) -> ContentionScenario:
    """The BENCH-DECIDE contention case: two engines, one budget.

    ``memory_budget_mb`` defaults to the initial allocation (cache
    capacities + pool footprint) plus ``slack_mb`` of headroom — which
    itself defaults to 1.5 provider footprints, deliberately **less**
    than one ``scale_up_step`` worth, so the first scale-up under load
    must preempt cache capacity through the arbiter.
    """
    from ..adaptation.elasticity import ElasticityController
    from ..decision.arbiter import Arbiter
    from ..introspection.query import QueryEngine
    from ..telemetry.metrics import MetricsRegistry

    testbed = Testbed(TestbedConfig(seed=seed))
    testbed.env.metrics = MetricsRegistry(testbed.env)
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            replication=replication,
            chunk_size_mb=chunk_size_mb,
            client_chunk_cache_mb=chunk_cache_mb,
            client_metadata_cache_mb=metadata_cache_mb,
            provider_cache_mb=provider_cache_mb,
            cache_policy=cache_policy,
        ),
        testbed=testbed,
    )
    writer_client = deployment.new_client("contend-writer")
    writer = CorrectWriter(
        writer_client,
        op_mb=dataset_chunks * chunk_size_mb,
        chunk_size_mb=chunk_size_mb,
        max_ops=1,
    )
    zipf_readers = []
    for i in range(readers):
        client = deployment.new_client(f"contend-reader-{i}")
        zipf_readers.append(ZipfReader(
            client,
            blob_id=-1,  # patched by preload()
            total_chunks=dataset_chunks,
            chunk_size_mb=chunk_size_mb,
            rng=deployment.rng.stream(f"zipf:{i}"),
            skew=skew,
            think_s=think_s,
        ))
    bulk_writers = []
    for i in range(load_writers):
        client = deployment.new_client(f"contend-load-{i}")
        bulk_writers.append(CorrectWriter(
            client,
            op_mb=writer_op_mb,
            chunk_size_mb=writer_chunk_mb,
        ))

    query = QueryEngine.for_deployment(deployment,
                                       window_s=3 * tuner_interval_s)
    journal = None
    if with_journal:
        from ..introspection.provenance import DecisionJournal

        journal = DecisionJournal(testbed.env,
                                  effect_window_s=journal_effect_window_s)
        journal.watch("cache-tuner", ["client.throughput_mbps"])
        journal.watch("elasticity", ["elasticity.pool_size"])

    arbiter = Arbiter(env=testbed.env, journal=journal)
    tuner = _planned_tuner(
        deployment, query, planner, tuner_step_fraction,
        arbiter=arbiter, interval_s=tuner_interval_s,
    )
    elasticity = ElasticityController(
        deployment,
        min_providers=2,
        max_providers=data_providers + max_extra_providers,
        high_load=high_load,
        low_load=low_load,
        high_fill=high_fill,
        scale_up_step=scale_up_step,
        interval_s=elasticity_interval_s,
        cooldown_s=elasticity_cooldown_s,
        query=query,
        arbiter=arbiter,
        provider_cost_mb=provider_cost_mb,
    )
    held_caches = tuner.held()
    pool_cost = deployment.pmanager.pool_size() * provider_cost_mb
    if memory_budget_mb is None:
        if slack_mb is None:
            slack_mb = 1.5 * provider_cost_mb
        memory_budget_mb = held_caches + pool_cost + slack_mb
    arbiter.ledger("memory_mb", capacity=memory_budget_mb)
    arbiter.register("elasticity", band=0)
    arbiter.register("cache-tuner", band=1, reclaim=tuner.reclaim)
    arbiter.assume("cache-tuner", "memory_mb", held_caches)
    arbiter.assume("elasticity", "memory_mb", pool_cost)
    if journal is not None:
        tuner.attach_journal(journal)
        elasticity.attach_journal(journal)
    return ContentionScenario(
        deployment=deployment,
        writer=writer,
        readers=zipf_readers,
        load_writers=bulk_writers,
        tuner=tuner,
        elasticity=elasticity,
        arbiter=arbiter,
        journal=journal,
        query=query,
        dataset_chunks=dataset_chunks,
        chunk_size_mb=chunk_size_mb,
        shift_at=shift_at,
        duration=duration,
        slo_mbps=slo_mbps,
        memory_budget_mb=memory_budget_mb,
        planner_name=planner,
    )
