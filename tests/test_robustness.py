"""Tests for the robustness layer: RetryPolicy + heartbeat failure detection."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig
from repro.robustness import ALIVE, DEAD, SUSPECTED, HeartbeatFailureDetector, RetryPolicy
from repro.telemetry.metrics import MetricsRegistry


def make_deployment(seed=7, providers=6, **overrides):
    defaults = dict(
        data_providers=providers,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


# ------------------------------------------------------------------ RetryPolicy
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0.0)


def test_retry_policy_backoff_exponential_and_capped():
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.1,
                         max_delay_s=0.5, jitter=0.0)
    delays = [policy.backoff_s(n) for n in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_retry_policy_jitter_is_bounded_and_deterministic():
    import numpy as np

    def delays(seed):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.2,
                             rng=np.random.default_rng(seed))
        return [policy.backoff_s(1) for _ in range(20)]

    first, second = delays(13), delays(13)
    assert first == second  # same seed -> same jitter sequence
    assert any(d != 0.1 for d in first)  # jitter actually applied
    for delay in first:
        assert 0.08 - 1e-12 <= delay <= 0.12 + 1e-12
    assert delays(14) != first  # different seed -> different sequence


# ------------------------------------------------------------------ detector
def test_detector_state_machine_end_to_end():
    dep = make_deployment()
    metrics = MetricsRegistry(dep.env)
    dep.env.metrics = metrics
    detector = dep.attach_failure_detector(
        period_s=1.0, timeout_s=3.0, confirm_misses=2,
    )
    victim = dep.providers["provider-1"].node
    assert detector.view(victim.name) is not None
    assert detector.thinks_alive(victim.name)

    dep.run(until=5.0)
    assert detector.view(victim.name).state == ALIVE
    assert detector.pings_sent > 0

    crash_t = dep.now
    victim.fail()
    # First miss -> suspected (excluded from allocation, no repair yet).
    dep.run(until=crash_t + 3.5)
    assert detector.view(victim.name).state == SUSPECTED
    assert not detector.thinks_alive(victim.name)
    assert not detector.confirmed_dead(victim.name)
    # Second miss -> confirmed dead, with positive bounded latency.
    dep.run(until=crash_t + 7.0)
    view = detector.view(victim.name)
    assert view.state == DEAD
    assert detector.confirmed_dead(victim.name)
    latency = detector.detection_latencies[0]
    assert 0.0 < latency <= 3.0 + 2 * 1.0 + 1.0  # timeout + misses*period + phase
    assert metrics.counter("detector.suspicions").value == 1
    assert metrics.counter("detector.confirmations").value == 1
    assert metrics.histogram("detector.detection_latency").count == 1

    # Recovery: the node answers pings again -> back to ALIVE.
    victim.recover()
    dep.run(until=dep.now + 6.0)
    assert detector.view(victim.name).state == ALIVE
    assert detector.thinks_alive(victim.name)
    assert metrics.counter("detector.recoveries").value == 1
    assert detector.stats()["detections"] == 1


def test_detector_confirm_callback_fires_once():
    dep = make_deployment()
    detector = dep.attach_failure_detector(period_s=1.0, timeout_s=2.0)
    confirmed = []
    detector.on_confirm(lambda view: confirmed.append(view.node.name))
    dep.run(until=3.0)
    dep.providers["provider-0"].node.fail()
    dep.run(until=20.0)
    assert confirmed == ["provider-0-node"]


def test_detector_host_crash_freezes_detection():
    dep = make_deployment()
    detector = dep.attach_failure_detector(period_s=1.0, timeout_s=2.0)
    host = dep.actor_nodes["pm"]
    dep.run(until=3.0)

    host.fail()
    victim = dep.providers["provider-2"].node
    victim.fail()
    dep.run(until=20.0)
    # A dead detector host cannot observe anything: no confirmation.
    assert not detector.confirmed_dead(victim.name)
    assert detector.detection_latencies == []

    # Once the host restarts, probing resumes and the crash is found.
    host.recover()
    dep.run(until=dep.now + 10.0)
    assert detector.confirmed_dead(victim.name)
    assert len(detector.detection_latencies) == 1


def test_detector_double_attach_rejected():
    dep = make_deployment()
    dep.attach_failure_detector()
    with pytest.raises(RuntimeError):
        dep.attach_failure_detector()


def test_detector_watch_is_idempotent():
    dep = make_deployment()
    detector = dep.attach_failure_detector()
    node = dep.providers["provider-0"].node
    before = detector.view(node.name)
    assert detector.watch(node) is before
    assert len(detector.views()) == len(dep.providers)


def test_new_provider_is_watched_automatically():
    dep = make_deployment()
    detector = dep.attach_failure_detector()
    provider = dep.add_provider()
    assert detector.view(provider.node.name) is not None
    assert provider.lazy_failure_cleanup


# ------------------------------------------------------------------ determinism
def _churn_run(seed):
    dep = make_deployment(seed=seed, providers=8)
    detector = dep.attach_failure_detector(period_s=1.0, timeout_s=3.0)
    injector = FaultInjector(dep.testbed)
    nodes = [p.node for p in dep.providers.values()]
    injector.poisson_crashes(nodes, rate_per_second=0.05, stop_at=60.0,
                             recover_after=25.0, max_crashes=4)
    dep.run(until=100.0)
    return (
        [(e.time, e.node, e.kind) for e in injector.log],
        list(detector.detection_latencies),
    )


def test_fault_schedule_and_detection_are_seed_stable():
    log_a, lat_a = _churn_run(seed=21)
    log_b, lat_b = _churn_run(seed=21)
    assert log_a == log_b
    assert lat_a == lat_b
    assert len(log_a) > 0 and len(lat_a) > 0

    log_c, _lat_c = _churn_run(seed=22)
    assert log_c != log_a  # different seed -> different schedule


# ------------------------------------------------------------------ flapping
def test_flapping_provider_never_triggers_repair():
    """alive -> suspected -> alive oscillation must not start repairs.

    A short network glitch raises suspicion (one missed ping) but heals
    before ``confirm_misses`` lands; the ReplicationManager gates repair
    on *confirmed* deaths, so a flapping provider costs zero repair
    traffic — and the detector's latency stats stay finite (no
    confirmation, no latency sample).
    """
    import math

    from repro.adaptation import ReplicationManager

    dep = make_deployment(replication=2)
    metrics = MetricsRegistry(dep.env)
    dep.env.metrics = metrics
    detector = dep.attach_failure_detector(
        period_s=1.0, timeout_s=3.0, confirm_misses=3,
    )
    client = dep.new_client("c1")

    def setup():
        blob_id = yield from client.create_blob(8.0)
        yield from client.append(blob_id, 32.0)

    process = dep.env.process(setup())
    dep.run(until=process)

    manager = ReplicationManager(dep, target_replication=2, interval_s=2.0)
    dep.env.process(manager.run(dep.env))

    victim = next(p for p in dep.providers.values() if p.chunks)
    injector = FaultInjector(dep.testbed)
    # Two 4-second glitches: pings sent into the cut miss after their
    # 3s timeout (-> suspected), but the first post-heal pong lands
    # before the third miss, so the view snaps back to alive.
    for _ in range(2):
        injector.partition([victim.node], heal_after=4.0)
        dep.run(until=dep.now + 15.0)

    name = victim.node.name
    assert metrics.counter("detector.suspicions").value >= 2  # it flapped
    assert metrics.counter("detector.confirmations").value == 0
    assert detector.thinks_alive(name)
    assert not detector.confirmed_dead(name)
    # No confirmation -> no repair, no repair traffic.
    assert manager.repairs_done == 0
    assert manager.repair_traffic_mb == 0.0
    stats = detector.stats()
    assert stats["dead"] == 0 and stats["detections"] == 0
    for key in ("mean_detection_latency_s", "max_detection_latency_s"):
        assert stats[key] is None or math.isfinite(stats[key])


# ------------------------------------------------------------------ liveness belief
#: (what the detector thinks of the node — None: no detector, "unwatched":
#: a detector that does not watch it —, node crashed?)
#:   -> (belief, allocatable, counts as a replica, in the chunk directory);
#: a decommissioned provider is never allocatable and never counts, and
#: stays in the directory while it is not believed dead.
BELIEF_TABLE = [
    ((None, False), ("alive", True, True, True)),
    ((None, True), ("dead", False, False, False)),
    (("unwatched", False), ("alive", True, True, True)),
    (("unwatched", True), ("dead", False, False, False)),
    ((ALIVE, False), ("alive", True, True, True)),
    ((ALIVE, True), ("alive", True, True, True)),      # crashed, undetected
    ((SUSPECTED, True), ("suspected", False, True, True)),
    ((DEAD, True), ("dead", False, False, False)),
    ((DEAD, False), ("dead", False, False, False)),    # recovered, unheard
]


@pytest.mark.parametrize("decommissioned", [False, True])
@pytest.mark.parametrize("world, expected", BELIEF_TABLE)
def test_liveness_belief_truth_table(world, expected, decommissioned):
    """``ProviderManager.belief`` is the detector's view of a watched
    node, else the ``node.alive`` oracle; allocation, replica counting
    and the chunk-directory walk all derive from it."""
    from repro.adaptation import ReplicationManager
    from repro.blobseer.blob import ChunkDescriptor

    state, crashed = world
    dep = make_deployment(providers=3)
    pmanager = dep.pmanager
    provider = dep.providers["provider-1"]
    if state is not None:
        pmanager.detector = HeartbeatFailureDetector(dep.actor_nodes["pm"])
        if state != "unwatched":
            pmanager.detector.watch(provider.node).state = state
    if crashed:
        provider.node.fail()
    if decommissioned:
        provider.decommission()
    descriptor = ChunkDescriptor(blob_id=1, storage_key="k", size_mb=8.0,
                                 replicas=[provider.provider_id])
    provider.chunks["k"] = descriptor

    belief, allocatable, counts, listed = expected
    assert pmanager.belief(provider) == belief
    assert (provider in pmanager.active_providers()) == (
        allocatable and not decommissioned)
    # ... and what allocation places: round robin over the believed pool
    # puts one of three chunks on each member, a crashed provider the
    # detector has not noticed included.
    placed = {p for replicas in pmanager.allocate(3) for p in replicas}
    assert (provider in placed) == (allocatable and not decommissioned)
    manager = ReplicationManager(dep)
    assert (provider in manager.live_replicas(descriptor)) == (
        counts and not decommissioned)
    assert ("k" in pmanager.chunk_holders()) == listed
    assert ("k" in manager.chunk_directory()) == listed
