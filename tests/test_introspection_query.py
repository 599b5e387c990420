"""Introspection query engine, repository cursors, and health signals.

The windows over the repository's records are IntrospectionLayer's
(``tests/test_introspection.py``)."""

import pytest

from repro.blobseer.instrument import EV_CHUNK_WRITE, MonitoringEvent
from repro.cluster import Testbed
from repro.introspection import (
    EwmaZScore,
    HealthMonitor,
    QueryEngine,
    SLORule,
)
from repro.monitoring import StorageRepository, StorageServer
from repro.telemetry.metrics import Histogram, MetricsRegistry


def ev(t, actor_id="provider-0", etype=EV_CHUNK_WRITE, blob=1, chunk=None,
       size=0.0, count=1):
    fields = {"count": count, "size_mb": size}
    if chunk is not None:
        fields["chunk"] = chunk
    return MonitoringEvent(
        time=t, actor_type="provider", actor_id=actor_id, event_type=etype,
        client_id="c", blob_id=blob, fields=fields,
    )


def make_repo(n=2, rate=1e9):
    bed = Testbed()
    servers = [
        StorageServer(bed.add_node(f"s{i}"), f"s{i}", write_rate_eps=rate)
        for i in range(n)
    ]
    return bed, StorageRepository(servers)


# ------------------------------------------------------------------ repository
def test_records_since_matches_stable_sort_reference():
    bed, repo = make_repo(n=3)
    times = [7.0, 1.0, 5.0, 3.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.0]
    repo.store([
        ev(t, actor_id=f"provider-{i % 4}", chunk=f"b1:{i}")
        for i, t in enumerate(times)
    ])
    bed.run(until=1.0)
    assert repo.stored_count == len(times)

    # Historical semantics: stable sort of per-server records in server
    # order.
    reference = sorted(
        (e for server in repo.servers for e in server.records),
        key=lambda e: e.time,
    )
    assert repo.all_records() == reference
    assert repo.records_since(4.0) == [e for e in reference if e.time >= 4.0]
    # t0 landing exactly on a record time includes that record.
    assert repo.records_since(3.0)[0].time == 3.0
    assert repo.records_since(100.0) == []


def test_repository_cursor_is_incremental():
    bed, repo = make_repo(n=2)
    cursor = repo.cursor()
    assert cursor.pending() == 0
    assert cursor.advance() == []

    repo.store([ev(1.0, actor_id=f"provider-{i}", chunk=f"b1:{i}")
                for i in range(4)])
    bed.run(until=1.0)
    assert cursor.pending() == 4
    first = cursor.advance()
    assert len(first) == 4
    assert cursor.pending() == 0
    assert cursor.advance() == []

    repo.store([ev(3.0, chunk="b1:9"), ev(2.0, chunk="b1:8")])
    bed.run(until=2.0)
    second = cursor.advance()
    # Only the new records, time-ordered.
    assert [e.time for e in second] == [2.0, 3.0]


# ------------------------------------------------------------------ windows
def test_window_stats_over_metrics_series():
    registry = MetricsRegistry()
    for t in range(100):
        registry.sample("x", float(t), time=float(t))
    engine = QueryEngine(metrics=registry, window_s=10.0)

    # Half-open window: 89 < t <= 99 -> values 90..99.
    assert engine.window_stat("x", "mean", now=99.0) == pytest.approx(94.5)
    assert engine.window_stat("x", "min", now=99.0) == 90.0
    assert engine.window_stat("x", "max", now=99.0) == 99.0
    assert engine.window_stat("x", "sum", now=99.0) == pytest.approx(945.0)
    assert engine.window_stat("x", "latest", now=99.0) == 99.0
    assert engine.window_stat("x", "count", now=99.0) == 10.0
    assert engine.window_stat("x", "rate", now=99.0) == pytest.approx(1.0)
    assert engine.window_stat("x", "value_rate", now=99.0) == pytest.approx(94.5)
    assert engine.window_stat("x", "p90", now=99.0) == 98.0
    # Far past the data the window is empty.
    assert engine.window_stat("x", "mean", now=500.0) is None
    with pytest.raises(ValueError):
        engine.window_stat("x", "bogus", now=99.0)


# ------------------------------------------------------------------ histogram
def test_histogram_reservoir_keeps_unbiased_sample():
    h = Histogram("lat", max_samples=200)
    for v in range(2000):
        h.observe(float(v))
    assert h.count == 2000
    assert len(h._samples) == 200
    assert h.min == 0.0 and h.max == 1999.0
    assert h.mean == pytest.approx(999.5)
    # First-N retention would cap every percentile at 199; the reservoir
    # keeps late values too.
    assert h.percentile(99) > 500.0
    assert 500.0 < h.percentile(50) < 1500.0

    # Seeded by name: a replay yields the identical reservoir.
    h2 = Histogram("lat", max_samples=200)
    for v in range(2000):
        h2.observe(float(v))
    assert h2._samples == h._samples
    assert h2.to_dict() == h.to_dict()


def test_histogram_small_sample_exact_and_cache_refresh():
    h = Histogram("x")
    for v in (5.0, 1.0, 3.0):
        h.observe(v)
    assert h.percentile(50) == 3.0
    assert h.to_dict()["p50"] == 3.0
    # New observations invalidate the cached sorted view.
    h.observe(0.0)
    h.observe(0.5)
    assert h.percentile(0) == 0.0
    assert h.percentile(50) == 1.0
    assert h.percentile(100) == 5.0


# ------------------------------------------------------------------ health
def test_slo_rule_is_edge_triggered_with_recovery():
    bed = Testbed()
    registry = MetricsRegistry(bed.env)
    engine = QueryEngine(metrics=registry, env=bed.env, window_s=10.0)
    monitor = HealthMonitor(engine, rules=[
        SLORule("tput", statistic="mean", min_value=50.0, window_s=10.0,
                description="min throughput"),
    ])

    registry.sample("tput", 10.0, time=1.0)
    events = monitor.check(now=2.0)
    assert len(events) == 1
    violation = events[0]
    assert violation.kind == "slo"
    assert violation.severity == "critical"
    assert violation.signal == "tput"
    assert violation.reference == 50.0
    assert violation.value == 10.0

    # A sustained violation does not re-fire.
    assert monitor.check(now=3.0) == []

    # Healing emits exactly one recovery event.
    registry.sample("tput", 500.0, time=4.0)
    recoveries = monitor.check(now=5.0)
    assert len(recoveries) == 1
    assert recoveries[0].kind == "recovery"
    assert recoveries[0].severity == "info"

    # Events are mirrored into metrics for the dashboards.
    assert registry.counter("health.slo_total").value == 1
    assert registry.counter("health.recovery_total").value == 1
    assert len(registry.series("health.events")) == 2


def test_ewma_zscore_flags_spikes_not_noise():
    tracker = EwmaZScore()
    scores = [
        tracker.score_and_update(10.0 + (0.1 if i % 2 else -0.1))
        for i in range(20)
    ]
    assert all(z is None for z in scores[:8])  # warm-up
    assert all(abs(z) < 3.0 for z in scores[8:])
    spike = tracker.score_and_update(100.0)
    assert spike > 3.0


def test_health_monitor_detects_anomaly_in_series():
    bed = Testbed()
    registry = MetricsRegistry(bed.env)
    engine = QueryEngine(metrics=registry, env=bed.env, window_s=30.0)
    monitor = HealthMonitor(engine, anomaly_signals=["lat"], z_threshold=3.0)

    for i in range(20):
        registry.sample("lat", 10.0 + (0.1 if i % 2 else -0.1), time=float(i))
    registry.sample("lat", 200.0, time=20.0)

    events = monitor.check(now=25.0)
    anomalies = [e for e in events if e.kind == "anomaly"]
    assert len(anomalies) == 1
    anomaly = anomalies[0]
    assert anomaly.signal == "lat"
    assert anomaly.time == 20.0
    assert anomaly.detail["sample"] == 200.0
    assert abs(anomaly.value) >= 3.0
    assert registry.counter("health.anomaly_total").value == 1
    # The per-signal cursor means a re-check scores nothing twice.
    assert monitor.check(now=26.0) == []


def test_health_monitor_runs_as_sim_process():
    bed = Testbed()
    env = bed.env
    registry = MetricsRegistry(env)
    engine = QueryEngine(metrics=registry, env=env, window_s=5.0)
    monitor = HealthMonitor(engine, rules=[
        SLORule("queue", statistic="latest", max_value=5.0, window_s=5.0,
                severity="warning"),
    ], interval_s=1.0)
    monitor.start(env)

    def feeder(env):
        yield env.timeout(2.2)
        registry.sample("queue", 9.0)

    env.process(feeder(env))
    bed.run(until=6.0)
    assert any(e.kind == "slo" and e.severity == "warning"
               for e in monitor.events)
