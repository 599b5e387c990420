"""Canned experiment scenarios matching the paper's deployments.

Every scenario is a :class:`Scenario`: handles on a built deployment
plus the one ``run()`` (start the load processes, start background
engines and disturbances, run to the horizon, settle) and the one
``observables()`` serializer.  A subclass declares only what differs —
which load processes, which background activity, which settlement, which
observables — and keeps its own metric methods.  Builder parameters are
the ones some bench, test or example varies; everything else is a
literal at its use site.

- :func:`build_write_scenario` — §IV-B: N clients each writing 1 GB,
  with or without the introspection stack.
- :func:`build_fanout_scenario` — BENCH-META: many small concurrent
  writers, so the control plane, not the disks, bounds throughput.
- :func:`build_dos_scenario` — §IV-C: correct writers among flooding
  attackers, with or without the security framework.
- :func:`build_hotspot_scenario` — Zipf-skewed reads of one shared
  dataset BLOB: the stress case for the cache tiers and their tuner.
- :func:`build_disturbance_scenario` — BENCH-ADAPT: that read load hit
  by a hot-set shift and a provider-churn window, with the tuner, the
  decision journal and the scorecard wired in; ``planner=`` is the
  BENCH-DECIDE matrix axis.
- :func:`build_contention_scenario` — BENCH-DECIDE: the cache tuner and
  the elasticity controller compete for one conserved memory ledger
  under an :class:`~repro.decision.arbiter.Arbiter`.

The three Zipf-read scenarios (hot-spot, disturbance, contention) share
:class:`ZipfReadScenario` — dataset preload, hot-set shift, scorecard,
the read-side observables — and three factories: the deployment with
its cache tiers, the preload writer plus reader fleet, and the decision
journal.

A builder imports the engines it builds (monitoring, security, tuner,
journal, arbiter) where it builds them, so a run compiles only the
engines it runs; nothing the measured phase calls imports anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..blobseer.access import AccessTable
from ..blobseer.deployment import BlobSeerConfig, BlobSeerDeployment
from ..cluster.faults import FaultInjector
from ..cluster.testbed import Testbed, TestbedConfig
from .clients import CorrectWriter, DosAttacker, ZipfReader

if TYPE_CHECKING:  # pragma: no cover
    from ..adaptation.cache_tuner import CacheTuner
    from ..adaptation.elasticity import ElasticityController
    from ..decision.arbiter import Arbiter
    from ..introspection.provenance import DecisionJournal
    from ..monitoring.pipeline import MonitoringStack
    from ..security.framework import PolicyManagement

__all__ = [
    "Scenario",
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


def _history(client, version: bool = True) -> list:
    """A client's op history as canonical JSON rows."""
    return [
        [op.op, op.blob_id, round(op.size_mb, 6), round(op.started_at, 9),
         round(op.finished_at, 9), op.ok] + ([op.version] if version else [])
        for op in client.history
    ]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _monitored(deployment, services: int, **config) -> MonitoringStack:
    """Attach the introspection stack: *services* monitoring services
    over half as many storage servers."""
    from ..monitoring.pipeline import MonitoringConfig, MonitoringStack

    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=services, storage_servers=max(2, services // 2), **config))
    monitoring.attach(deployment)
    return monitoring


def _writer_fleet(deployment, prefix: str, count: int, ramp_s: float = 0.0,
                  **writer_kwargs) -> List[CorrectWriter]:
    """*count* writers on clients ``<prefix>-<i>`` of their own, their
    start times spread evenly over *ramp_s*."""
    step = ramp_s / count if count else 0.0
    fleet = []
    for i in range(count):
        client = deployment.new_client(f"{prefix}-{i}")
        fleet.append(CorrectWriter(client, start_at=i * step, **writer_kwargs))
    return fleet


@dataclass(kw_only=True)
class Scenario:
    """Handles on a built experiment, and the one way to run it."""

    deployment: BlobSeerDeployment
    #: Where :meth:`run` stops when called without ``until``; ``None``
    #: runs until every load process has finished.
    duration: Optional[float] = None

    # -- what a subclass declares --------------------------------------------------
    def _load(self) -> list:
        """``(process name, workload client)`` pairs, in start order."""
        raise NotImplementedError

    def _prepare(self) -> None:
        """Simulated work that must finish before the load starts."""

    def _start_background(self, env) -> None:
        """Start engines and arm disturbances (after the load)."""

    def _settle(self) -> None:
        """Post-run settlement (journal effects, ledger conservation)."""

    def _observed(self) -> dict:
        """The scenario's part of :meth:`observables`: by default every
        load client's op history and the provider pool."""
        return {
            "completions": [[actor.client.client_id, _history(actor.client)]
                            for _name, actor in self._load()],
            "pool": self.deployment.storage_stats(),
        }

    # -- the skeleton --------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Start the load, then the background activity; run to *until*
        (default: ``duration``, else until the load finishes); settle."""
        self._prepare()
        env = self.deployment.env
        procs = [env.process(actor.run(env), name=name)
                 for name, actor in self._load()]
        self._start_background(env)
        if until is None:
            until = (self.duration if self.duration is not None
                     else env.all_of(procs))
        self.deployment.run(until=until)
        self._settle()

    def observables(self) -> str:
        """Every simulated observable of the run as one canonical JSON
        string — the determinism contract: byte-identical per seed."""
        env = self.deployment.env
        payload = {"end": env.now, "events": env.events_processed,
                   **self._observed()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(kw_only=True)
class WriteScenario(Scenario):
    """Handles for a §IV-B style concurrent-write run."""

    writers: List[CorrectWriter]
    monitoring: Optional[MonitoringStack] = None

    def _load(self) -> list:
        return [(f"writer-{i}", w) for i, w in enumerate(self.writers)]

    def mean_client_throughput(self) -> float:
        return _mean(w.mean_throughput() for w in self.writers if w.results)


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
        monitoring = _monitored(
            deployment, monitoring_services, flush_interval_s=1.0,
            physical_sample_interval_s=5.0, sensor_stop_at=600.0)
    writers = _writer_fleet(
        deployment, "client", clients, op_mb=op_mb,
        chunk_size_mb=chunk_size_mb, max_ops=ops_per_client)
    return WriteScenario(deployment=deployment, monitoring=monitoring,
                         writers=writers)


@dataclass(kw_only=True)
class FanoutScenario(WriteScenario):
    """Handles for a BENCH-META control-plane fan-out run.

    Many small concurrent writers, each appending to its own BLOB: the
    data plane is nearly idle while every write still crosses the
    allocate → ticket → publish control path, so aggregate throughput
    measures the control plane's serialization point, not the disks.
    """

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

    def _observed(self) -> dict:
        """Adds each writer's BLOB id and the control-plane counters."""
        return {
            "completions": [[w.client.client_id, w.blob_id, _history(w.client)]
                            for w in self.writers],
            "control_plane": self.control_plane_stats(),
            "pool": self.deployment.storage_stats(),
        }


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
    allocation: str = "round_robin",
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
        testbed=TestbedConfig(seed=seed),
    ))
    return FanoutScenario(deployment=deployment, writers=_writer_fleet(
        deployment, "client", writers, ramp_s=ramp_s, op_mb=op_mb,
        chunk_size_mb=chunk_size_mb, max_ops=ops_per_writer))


@dataclass(kw_only=True)
class DosScenario(Scenario):
    """Handles for a §IV-C style attack run."""

    monitoring: MonitoringStack
    security: Optional[PolicyManagement]
    access: AccessTable
    correct: List[CorrectWriter]
    attackers: List[DosAttacker]
    attack_start: float

    def _load(self) -> list:
        return ([(f"writer-{i}", w) for i, w in enumerate(self.correct)]
                + [(f"attacker-{i}", a) for i, a in enumerate(self.attackers)])

    def _start_background(self, env) -> None:
        if self.security is not None:
            self.security.start()

    # -- metrics -------------------------------------------------------------------
    def _detections(self) -> list:
        """``(attacker, first detection time)`` per detected attacker."""
        if self.security is None:
            return []
        detections = []
        for attacker in self.attackers:
            detected = self.security.engine.first_detection(
                attacker.client.client_id
            )
            if detected is not None:
                detections.append((attacker, detected))
        return detections

    def detection_delays(self) -> List[float]:
        """Per detected attacker: seconds from its attack start to block."""
        return [detected - max(attacker.start_at, self.attack_start)
                for attacker, detected in self._detections()]

    def detection_times(self) -> List[float]:
        """Absolute detection times of attackers (for first/last-vs-
        attack-start reporting, the paper's EXP-C3 metric)."""
        return [detected for _attacker, detected in self._detections()]


def build_dos_scenario(
    n_clients: int,
    malicious_fraction: float,
    security_enabled: bool = True,
    data_providers: int = 60,
    metadata_providers: int = 8,
    monitoring_services: int = 8,
    op_mb: float = 1024.0,
    attack_start: float = 20.0,
    attack_stagger_s: float = 15.0,
    attack_parallel: int = 128,
    seed: int = 0,
    scan_interval_s: float = 10.0,
    history_pull_interval_s: float = 5.0,
    flush_interval_s: float = 2.0,
    confirmations: int = 2,
) -> DosScenario:
    """The §IV-C deployment: 70 BlobSeer nodes (60 data + 8 metadata
    providers + version & provider managers), 8 monitoring services."""
    access = AccessTable()
    chunk_size_mb = 64.0
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            chunk_size_mb=chunk_size_mb,
            testbed=TestbedConfig(seed=seed, rate_granularity_s=0.02),
        ),
        access=access,
    )
    monitoring = _monitored(deployment, monitoring_services,
                            flush_interval_s=flush_interval_s)

    n_malicious = int(round(n_clients * malicious_fraction))
    n_correct = n_clients - n_malicious
    rng = deployment.rng.stream("scenario")

    correct = _writer_fleet(deployment, "good", n_correct, op_mb=op_mb,
                            chunk_size_mb=chunk_size_mb)
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
        from ..security.framework import PolicyManagement, SecurityConfig
        from ..security.policy import dos_flood_policy

        security = PolicyManagement(
            deployment,
            monitoring,
            policies=[dos_flood_policy(max_rate_per_s=1.0, window_s=30.0)],
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
class ZipfReadScenario(Scenario):
    """What the Zipf-read scenarios share: one writer preloads a dataset
    BLOB that *readers* then hammer with Zipf-skewed chunk reads, while
    the cache tuner (when on) chases the heat."""

    writer: CorrectWriter
    readers: List[ZipfReader]
    #: Prefix of this scenario's client ids and process names
    #: (``<prefix>-preload``, ``<prefix>-reader-<i>``).
    process_prefix: str
    tuner: Optional[CacheTuner] = None
    journal: Optional[DecisionJournal] = None
    #: When every reader's hot set jumps to a fresh permutation (the
    #: caches' working set moves); ``None`` = never.
    shift_at: Optional[float] = None
    blob_id: Optional[int] = None
    read_start: float = 0.0
    read_end: float = 0.0

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

    def _prepare(self) -> None:
        if self.blob_id is None:
            self.preload()
        self.read_start = self.deployment.env.now

    def _load(self) -> list:
        return [(f"{self.process_prefix}-reader-{i}", reader)
                for i, reader in enumerate(self.readers)]

    def _engines(self) -> list:
        """The decision loops adapting this run, in start order."""
        return [self.tuner] if self.tuner is not None else []

    def _start_background(self, env) -> None:
        for engine in self._engines():
            env.process(engine.run(env), name=engine.name)
        if self.shift_at is not None:
            env.process(self._hot_set_shift(env), name="hot-set-shift")

    def _hot_set_shift(self, env):
        """Process: at ``shift_at`` every reader's hot set jumps."""
        delay = self.shift_at - env.now
        if delay > 0:
            yield env.timeout(delay)
        for reader in self.readers:
            reader.reshuffle()

    def _settle(self) -> None:
        self.read_end = self.deployment.env.now
        if self.journal is not None:
            self.journal.resolve_effects()

    # -- scoring -------------------------------------------------------------------
    def total_read_mb(self) -> float:
        return sum(r.total_read_mb() for r in self.readers)

    def disturbances(self) -> list:
        from ..introspection.quality import Disturbance

        return [Disturbance(self.shift_at, "hot_set_shift")]

    def scorecard(self) -> dict:
        """The SEAMS quality-of-adaptation scorecard for this run: client
        throughput against a 120 MB/s SLO, around each disturbance."""
        from ..introspection.quality import AdaptationScorecard, SignalSpec

        return AdaptationScorecard(
            journal=self.journal,
            metrics=self.deployment.env.metrics,
            signals=[SignalSpec("client.throughput_mbps", min_value=120.0,
                                hold_s=3.0, label="throughput")],
            disturbances=self.disturbances(),
        ).compute(t0=self.read_start, t1=self.deployment.env.now)

    def _observed(self) -> dict:
        env = self.deployment.env
        return {
            "completions": [[r.client.client_id, _history(r.client, version=False)]
                            for r in self.readers],
            "delivered_mb": round(self.total_read_mb(), 6),
            "metrics": (env.metrics.to_dict()
                        if env.metrics is not None else None),
        }


def _cached_deployment(
    seed: int,
    data_providers: int,
    metadata_providers: int = 2,
    replication: int = 2,
    chunk_size_mb: float = 4.0,
    chunk_cache_mb: float = 32.0,
    metadata_cache_mb: float = 8.0,
    provider_cache_mb: float = 32.0,
    metrics: bool = True,
) -> BlobSeerDeployment:
    """A deployment with all three cache tiers on (a budget of 0
    disables a tier) and, with *metrics*, a registry for the tuner and
    the scorecard to read."""
    testbed = Testbed(TestbedConfig(seed=seed))
    if metrics:
        from ..telemetry.metrics import MetricsRegistry

        testbed.env.metrics = MetricsRegistry(testbed.env)
    return BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=data_providers,
            metadata_providers=metadata_providers,
            replication=replication,
            chunk_size_mb=chunk_size_mb,
            client_chunk_cache_mb=chunk_cache_mb,
            client_metadata_cache_mb=metadata_cache_mb,
            provider_cache_mb=provider_cache_mb,
        ),
        testbed=testbed,
    )


def _zipf_fleet(deployment, prefix: str, readers: int, dataset_chunks: int,
                chunk_size_mb: float = 4.0, skew: float = 1.2,
                **reader_kwargs) -> dict:
    """The handles every Zipf scenario starts from: the deployment, the
    preload writer of one *dataset_chunks*-chunk BLOB and the *readers*
    Zipf readers of it, each on a client of its own."""
    writer = CorrectWriter(
        deployment.new_client(f"{prefix}-writer"),
        op_mb=dataset_chunks * chunk_size_mb,
        chunk_size_mb=chunk_size_mb,
        max_ops=1,
    )
    fleet = []
    for i in range(readers):
        fleet.append(ZipfReader(
            deployment.new_client(f"{prefix}-reader-{i}"),
            blob_id=-1,  # patched by preload()
            total_chunks=dataset_chunks,
            chunk_size_mb=chunk_size_mb,
            rng=deployment.rng.stream(f"zipf:{i}"),
            skew=skew,
            **reader_kwargs,
        ))
    return dict(deployment=deployment, writer=writer, readers=fleet,
                process_prefix=prefix)


#: Series the decision journal attributes each engine's effects against.
_EFFECT_SERIES = {
    "cache-tuner": ["client.throughput_mbps"],
    "elasticity": ["elasticity.pool_size"],
}


def _decision_journal(env, *engines: str) -> DecisionJournal:
    """A journal that attributes effects to the named *engines* over a
    15 s window."""
    from ..introspection.provenance import DecisionJournal

    journal = DecisionJournal(env, effect_window_s=15.0)
    for engine in engines:
        journal.watch(engine, _EFFECT_SERIES[engine])
    return journal


def _cache_tuner(deployment, interval_s: float = 5.0,
                 **tuner_kwargs) -> CacheTuner:
    """A :class:`CacheTuner` over every deployment cache, reading query
    windows of three of its intervals."""
    from ..adaptation.cache_tuner import CacheTuner
    from ..introspection.query import QueryEngine

    query = QueryEngine.for_deployment(deployment, window_s=3 * interval_s)
    return CacheTuner(query, caches=deployment.caches, interval_s=interval_s,
                      **tuner_kwargs)


def _planned_tuner(deployment, planner: str, step_fraction: float = 0.25,
                   arbiter=None) -> CacheTuner:
    """A cache tuner driven by the named planner and rewarded by client
    throughput."""
    from ..decision.planners import make_planner
    from ..decision.signals import SignalRef

    rng = (deployment.rng.stream("decision:bandit")
           if planner == "epsilon-greedy" else None)
    return _cache_tuner(
        deployment,
        planner=make_planner(planner, rng=rng, step_fraction=step_fraction),
        reward_signal=SignalRef("client.throughput_mbps"),
        arbiter=arbiter,
    )


@dataclass(kw_only=True)
class HotspotScenario(ZipfReadScenario):
    """Handles for a Zipf-skewed hot-spot read run (cache stress case)."""

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
    data_providers: int = 12,
    metadata_providers: int = 2,
    with_caches: bool = False,
    chunk_cache_mb: float = 64.0,
    with_tuner: bool = False,
    tuner_interval_s: float = 5.0,
    with_metrics: bool = False,
    seed: int = 0,
) -> HotspotScenario:
    """Hot-spot read workload over one preloaded dataset BLOB.

    With *with_caches* the client chunk/metadata tiers and the provider
    memory tier are enabled; *with_tuner* additionally runs a
    :class:`~repro.adaptation.CacheTuner` over every cache the
    deployment built (this implies metrics, which the tuner needs).
    Defaults keep every cache off, so the scenario doubles as the
    cache-less baseline under the same RNG streams.
    """
    deployment = _cached_deployment(
        seed, data_providers, metadata_providers,
        replication=1,
        chunk_size_mb=chunk_size_mb,
        chunk_cache_mb=chunk_cache_mb if with_caches else 0.0,
        metadata_cache_mb=8.0 if with_caches else 0.0,
        provider_cache_mb=64.0 if with_caches else 0.0,
        metrics=with_metrics or with_tuner,
    )
    fleet = _zipf_fleet(
        deployment, "hotspot", readers, dataset_chunks, chunk_size_mb,
        skew=1.1, max_ops=reads_per_client)
    tuner = _cache_tuner(deployment, tuner_interval_s) if with_tuner else None
    return HotspotScenario(**fleet, tuner=tuner)


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

    churn_at: float
    churn_heal_s: float
    churn_providers: int
    injector: Optional[FaultInjector] = None

    def _start_background(self, env) -> None:
        super()._start_background(env)
        self.injector = FaultInjector(self.deployment.testbed)
        for k in range(self.churn_providers):
            self.injector.crash_at(
                self.deployment.testbed.node(f"provider-{k}-node"),
                at=self.churn_at,
                recover_after=self.churn_heal_s,
            )

    def disturbances(self) -> list:
        from ..introspection.quality import Disturbance

        return super().disturbances() + [
            Disturbance(self.churn_at, "provider_churn")]

    def _observed(self) -> dict:
        return {**super()._observed(),
                "reallocations": self.deployment.net.reallocations}


def build_disturbance_scenario(
    readers: int = 6,
    dataset_chunks: int = 48,
    think_s: float = 0.2,
    data_providers: int = 12,
    with_tuner: bool = True,
    tuner_step_fraction: float = 0.25,
    with_journal: bool = False,
    shift_at: float = 60.0,
    churn_at: float = 110.0,
    churn_providers: int = 2,
    churn_heal_s: float = 25.0,
    duration: float = 170.0,
    seed: int = 0,
    planner: str = "marginal-utility",
) -> DisturbanceScenario:
    """The BENCH-ADAPT scenario: hot-spot load + two disturbances.

    Metrics are always on (the scorecard needs the
    ``client.throughput_mbps`` series even in the tuner-off baseline);
    *with_journal* wires a
    :class:`~repro.introspection.provenance.DecisionJournal` into the
    tuner, which is observably inert: ``observables()`` is byte-identical
    with the journal on or off.  *planner* names the technique driving
    the tuner — any :data:`~repro.decision.planners.PLANNERS` name, the
    BENCH-DECIDE axis; the bandit draws from the dedicated
    ``decision:bandit`` stream only, so every other stream is untouched.
    """
    deployment = _cached_deployment(seed, data_providers)
    fleet = _zipf_fleet(deployment, "disturb", readers, dataset_chunks,
                        think_s=think_s, stop_at=duration)
    tuner = None
    if with_tuner:
        tuner = _planned_tuner(deployment, planner, tuner_step_fraction)
    journal = None
    if with_journal:
        journal = _decision_journal(deployment.env, "cache-tuner")
        if tuner is not None:
            tuner.attach_journal(journal)
    return DisturbanceScenario(
        **fleet,
        tuner=tuner,
        journal=journal,
        shift_at=shift_at,
        churn_at=churn_at,
        churn_heal_s=churn_heal_s,
        churn_providers=churn_providers,
        duration=duration,
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
    elasticity: ElasticityController
    arbiter: Arbiter

    def _load(self) -> list:
        return super()._load() + [
            (f"contend-writer-{i}", w) for i, w in enumerate(self.load_writers)]

    def _engines(self) -> list:
        return [self.tuner, self.elasticity]

    def _settle(self) -> None:
        for ledger in self.arbiter.ledgers.values():
            ledger.assert_conserved()
        super()._settle()

    def _observed(self) -> dict:
        """The read side plus the arbiter's final ledger state."""
        return {
            **super()._observed(),
            "write_ops": [len(w.results) for w in self.load_writers],
            "pool_size": self.deployment.active_pmanager().pool_size(),
            "capacities": {name: round(c.capacity_mb, 6)
                           for name, c in self.tuner.caches.items()},
            "arbiter": self.arbiter.to_dict(),
        }


def build_contention_scenario(
    readers: int = 6,
    dataset_chunks: int = 48,
    load_writers: int = 4,
    planner: str = "marginal-utility",
    with_journal: bool = False,
    shift_at: float = 40.0,
    duration: float = 120.0,
    seed: int = 0,
) -> ContentionScenario:
    """The BENCH-DECIDE contention case: two engines, one budget.

    The memory budget is the initial allocation (cache capacities + pool
    footprint) plus 1.5 provider footprints of headroom — deliberately
    **less** than one scale-up step (two providers), so the first
    scale-up under load must preempt cache capacity through the arbiter.
    """
    from ..adaptation.elasticity import ElasticityController
    from ..decision.arbiter import Arbiter

    data_providers = 8
    provider_cost_mb = 48.0
    deployment = _cached_deployment(seed, data_providers)
    fleet = _zipf_fleet(deployment, "contend", readers, dataset_chunks,
                        think_s=0.2, stop_at=duration)
    bulk_writers = _writer_fleet(
        deployment, "contend-load", load_writers, op_mb=128.0,
        chunk_size_mb=4.0, stop_at=duration)

    journal = None
    if with_journal:
        journal = _decision_journal(deployment.env, "cache-tuner", "elasticity")
    arbiter = Arbiter(env=deployment.env, journal=journal)
    tuner = _planned_tuner(deployment, planner, arbiter=arbiter)
    elasticity = ElasticityController(
        deployment,
        min_providers=2,
        max_providers=data_providers + 4,
        high_load=0.2,
        low_load=0.02,
        cooldown_s=10.0,
        query=tuner.query,
        arbiter=arbiter,
        provider_cost_mb=provider_cost_mb,
    )
    held_caches = tuner.held()
    pool_cost = deployment.active_pmanager().pool_size() * provider_cost_mb
    arbiter.ledger("memory_mb",
                   capacity=held_caches + pool_cost + 1.5 * provider_cost_mb)
    arbiter.register("elasticity", band=0)
    arbiter.register("cache-tuner", band=1, reclaim=tuner.reclaim)
    arbiter.assume("cache-tuner", "memory_mb", held_caches)
    arbiter.assume("elasticity", "memory_mb", pool_cost)
    if journal is not None:
        tuner.attach_journal(journal)
        elasticity.attach_journal(journal)
    return ContentionScenario(
        **fleet,
        load_writers=bulk_writers,
        tuner=tuner,
        elasticity=elasticity,
        arbiter=arbiter,
        journal=journal,
        shift_at=shift_at,
        duration=duration,
    )
