"""Robustness layer: retries, failure detection, replication, chaos.

Failure knowledge in the base substrate is an oracle (``node.alive`` is
readable instantly, for free).  This package turns detection into a
measurable, non-zero phenomenon — and then builds survival on top:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter,
  attempt caps and an overall deadline, for RPC call sites;
- :class:`HeartbeatFailureDetector` — a simulated process pinging nodes
  over the flow network, maintaining per-node alive/suspected/dead state
  and detection-latency statistics;
- :mod:`~repro.robustness.replication` — a replicated version manager
  (quorum-committed log, epoch-fenced failover) and a warm-standby
  provider manager, opt-in via ``BlobSeerConfig.vm_replicas`` /
  ``pm_standby``;
- :mod:`~repro.robustness.chaos` — a soak harness that runs declarative
  fault schedules against a deployment while checking safety invariants
  (durable acked writes, gap-free history, single active primary,
  read-your-writes, replica convergence).

Wire detection into a deployment with
:meth:`repro.blobseer.deployment.BlobSeerDeployment.attach_failure_detector`.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "retry": ["RetryPolicy"],
    "detector": ["HeartbeatFailureDetector", "NodeView", "ALIVE", "SUSPECTED",
                 "DEAD"],
    "replication": ["LogRecord", "FailoverEvent", "VMReplica",
                    "ReplicatedVersionManager", "PrimaryHandle",
                    "WarmStandbyProviderManager", "ProviderManagerHandle",
                    "FAILOVER_ERRORS"],
    "chaos": ["ChaosHarness", "InvariantViolation", "steady_append_load"],
})
