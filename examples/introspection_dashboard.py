"""Visualization demo: the §IV-A dashboard over a mixed workload.

Runs writers and readers under the full monitoring stack, then renders
every panel the paper's visualization tool provided: physical
parameters, per-provider and system storage, BLOB access patterns,
BLOB distribution, and client throughput.

The run is *live*: a periodic refresh process prints a compact status
line from the two introspection readers — the :class:`QueryEngine`'s
windowed client throughput over the metrics series, and the
:class:`IntrospectionLayer`'s data-path MB/s and hottest blob over the
monitoring repository, both over ``now - 30 s < t <= now`` — while a
:class:`HealthMonitor` evaluates SLO rules and EWMA z-score anomaly
detection in simulation time and prints a health timeline at the end.

The run executes with cross-layer telemetry enabled and also writes a
Chrome trace-event file (``introspection_dashboard.trace.json`` by
default) — open it in https://ui.perfetto.dev or chrome://tracing to
see the span trees (with cross-process flow arrows) behind the
dashboard numbers.

Run:  python examples/introspection_dashboard.py
"""

from repro import telemetry
from repro.adaptation import CacheTuner
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.introspection import (
    AdaptationScorecard,
    Dashboard,
    DecisionJournal,
    HealthMonitor,
    IntrospectionLayer,
    QueryEngine,
    SignalSpec,
    SLORule,
    adaptation_scorecard,
    journal_tail,
)
from repro.monitoring import MonitoringConfig, MonitoringStack
from repro.workloads import CorrectReader, CorrectWriter

DEFAULT_TRACE_PATH = "introspection_dashboard.trace.json"


def main(trace_path: str = DEFAULT_TRACE_PATH, until: float = 150.0) -> None:
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=10,
        metadata_providers=2,
        chunk_size_mb=64.0,
        # Cache tiers on, so the dashboard has hit rates to show (a
        # 64 MB chunk needs 2x capacity: a cache refuses an entry over
        # ``repro.cache.core.MAX_ENTRY_FRACTION`` = half of it).
        client_chunk_cache_mb=256.0,
        client_metadata_cache_mb=8.0,
        provider_cache_mb=256.0,
        testbed=TestbedConfig(seed=3, rate_granularity_s=0.01),
    ))
    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=2,
        storage_servers=2,
        flush_interval_s=1.0,
        physical_sample_interval_s=5.0,
        sensor_stop_at=120.0,
    ))
    monitoring.attach(deployment)
    env = deployment.env
    tele = telemetry.enable(deployment)

    # Introspection readers + health monitor: the live side of the
    # observability loop (series windows, and the monitoring records).
    engine = QueryEngine.for_deployment(deployment, window_s=30.0)
    layer = IntrospectionLayer(monitoring.repository)
    health = HealthMonitor(
        engine,
        rules=[
            SLORule("client.throughput_mbps", statistic="mean",
                    min_value=20.0, window_s=30.0,
                    description="per-op client throughput SLO"),
        ],
        anomaly_signals=["client.throughput_mbps"],
        interval_s=5.0,
        z_threshold=3.0,
        warmup_s=10.0,
    )
    health.start(env)

    # Provenance journal: every decision any engine executes lands here
    # with its evidence, trace context, and a post-decision
    # effect-attribution window against the watched series.
    journal = DecisionJournal(env, metrics=tele.metrics, effect_window_s=20.0)
    journal.watch("cache-tuner", ["client.throughput_mbps"])

    # Cache tuner: publishes the cache.<name>.* series the query engine
    # rolls up, and moves capacity toward the caches that keep evicting;
    # each resize is a journaled decision.
    tuner = CacheTuner(engine, caches=deployment.caches, interval_s=10.0)
    tuner.attach_journal(journal)
    env.process(tuner.run(env), name="cache-tuner")

    writers = [
        CorrectWriter(deployment.new_client(f"w{i}"), op_mb=512.0,
                      max_ops=4, think_s=2.0)
        for i in range(3)
    ]
    for writer in writers:
        env.process(writer.run(env))

    # A reader hammers the first writer's blob once it exists.
    def reader_when_ready(env):
        while writers[0].blob_id is None or not writers[0].results:
            yield env.timeout(1.0)
        reader = CorrectReader(
            deployment.new_client("reader"), writers[0].blob_id,
            op_mb=512.0, max_ops=6,
        )
        yield env.process(reader.run(env))

    env.process(reader_when_ready(env))

    # Live terminal refresh: one compact status line per interval,
    # rendered from the sliding windows of both readers, plus any journal
    # entries recorded since the previous refresh (the live tail).
    def live_refresh(env, interval_s=15.0):
        seen = 0
        while True:
            yield env.timeout(interval_s)
            nonlocal_total = journal.total
            if nonlocal_total > seen:
                for entry in journal.tail(nonlocal_total - seen):
                    print(f"  journal> {entry}")
                seen = nonlocal_total
            tput = engine.window_stat("client.throughput_mbps", "mean")
            data_rate = layer.data_rate_mbps(30.0, env.now)
            hot = layer.hot_blobs(30.0, env.now, top=1)
            hot_txt = f"hot blob #{hot[0][0]} ({hot[0][1]} chunk ops)" if hot else "-"
            alerts = len(health.events)
            print(f"[{env.now:7.1f}s] tput(30s)="
                  f"{tput:6.1f} MB/s | data {data_rate:7.1f} MB/s | "
                  f"{hot_txt} | health events: {alerts}"
                  if tput is not None else
                  f"[{env.now:7.1f}s] warming up...")

    env.process(live_refresh(env))
    deployment.run(until=until)

    dashboard = Dashboard(layer)
    provider_nodes = [f"provider-{i}-node" for i in range(4)]
    print()
    print(dashboard.render(node_names=provider_nodes))
    print()
    print(f"monitoring: {monitoring.events_emitted} events emitted, "
          f"{monitoring.repository.stored_count} stored, "
          f"{monitoring.parameter_count()} distinct parameters")

    # Cache tiers: per-cache rollup from the published series (window =
    # whole run, so tiers that went quiet early still show up).
    print("\n== Cache tiers (windowed) ==")
    cache_rollup = engine.cache_stats(window_s=until)
    busy = {n: s for n, s in cache_rollup.items()
            if s.get("lookups_per_s", 0.0) > 0}
    if busy:
        for name in sorted(busy):
            s = busy[name]
            print(f"{name:24s} hit_rate={s.get('hit_rate', 0.0):5.2f}  "
                  f"lookups/s={s.get('lookups_per_s', 0.0):7.2f}  "
                  f"cached={s.get('bytes_mb', 0.0):7.1f}"
                  f"/{s.get('capacity_mb', 0.0):.0f} MB")
    else:
        print("(no cache activity in window)")

    # Health timeline: every SLO violation / recovery / anomaly.
    print("\n== Health timeline ==")
    if health.events:
        for event in health.events:
            print(str(event))
    else:
        print("(no SLO violations or anomalies)")

    # Provenance: the journal tail and the quality-of-adaptation scorecard.
    print()
    print(journal_tail(journal, n=10))
    score = AdaptationScorecard(
        journal=journal,
        metrics=tele.metrics,
        signals=[SignalSpec("client.throughput_mbps", min_value=20.0,
                            hold_s=10.0, label="throughput")],
    ).compute(t1=env.now)
    print()
    print(adaptation_scorecard(score))

    tele.write_chrome_trace(trace_path, journal=journal)
    print(f"\ntelemetry: {len(tele.tracer.spans)} spans on "
          f"{len(tele.tracer.tracks())} tracks -> {trace_path} "
          f"(open in https://ui.perfetto.dev; adaptation:* tracks carry "
          f"the journaled decisions and their effect arrows)")


if __name__ == "__main__":
    main()
