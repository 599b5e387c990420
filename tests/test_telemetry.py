"""Tests for the cross-layer telemetry subsystem (repro.telemetry)."""

import json
from math import fsum

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.introspection import QueryEngine
from repro.simulation import Environment, SimulationError
from repro.telemetry import (
    NULL_TRACER,
    KernelProfiler,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    chrome_trace_json,
)


# ---------------------------------------------------------------------------
# Tracer basics
# ---------------------------------------------------------------------------

def test_environment_defaults_to_null_tracer():
    env = Environment()
    assert env.tracer is NULL_TRACER
    assert not env.tracer.enabled
    assert env.metrics is None
    assert env.profiler is None
    # The disabled path records nothing and hands back the null span.
    span = env.tracer.begin("anything", track="x", size_mb=1.0)
    assert span.finish() is span
    with env.tracer.span("ctx"):
        pass
    env.tracer.instant("mark")
    assert len(env.tracer) == 0
    assert env.tracer.tracks() == []


def test_span_timing_and_attrs():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        span = tracer.begin("op", track="node-1", cat="test", size_mb=64.0)
        yield env.timeout(2.5)
        span.annotate(chunks=4)
        span.finish(ok=True)

    env.process(proc(env))
    env.run()
    (span,) = tracer.spans
    assert span.name == "op"
    assert span.track == "node-1"
    assert span.cat == "test"
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration_s == 2.5
    assert span.attrs == {"size_mb": 64.0, "chunks": 4, "ok": True}
    assert span.finished
    # finish() is idempotent: a second call must not re-record the span.
    span.finish(extra=True)
    assert len(tracer.spans) == 1
    assert "extra" not in span.attrs


def test_span_nesting_follows_the_active_process():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        with tracer.span("outer", track="client-0"):
            yield env.timeout(1.0)
            with tracer.span("inner") as inner:
                yield env.timeout(1.0)
                assert inner.track == "client-0"  # inherited from parent

    env.process(proc(env))
    env.run()
    outer = tracer.spans_named("outer")[0]
    inner = tracer.spans_named("inner")[0]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == 0
    assert tracer.children_of(outer) == [inner]
    assert tracer.open_spans() == []


def test_span_stacks_are_per_process():
    env = Environment()
    tracer = Tracer(env)

    def worker(env, name):
        with tracer.span("work", track=name):
            yield env.timeout(1.0)

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    spans = tracer.spans_named("work")
    assert len(spans) == 2
    # Concurrent processes never see each other's spans as parents.
    assert all(s.parent_id == 0 for s in spans)


def test_detached_span_does_not_join_the_stack():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        with tracer.span("op", track="client-0"):
            flow = tracer.begin("net.flow", detached=True)
            yield env.timeout(1.0)
            # A sibling begun after the detached span parents to "op",
            # not to the still-open flow span.
            with tracer.span("child"):
                yield env.timeout(1.0)
            flow.finish()

    env.process(proc(env))
    env.run()
    op = tracer.spans_named("op")[0]
    flow = tracer.spans_named("net.flow")[0]
    child = tracer.spans_named("child")[0]
    assert flow.parent_id == op.span_id  # still linked for the tree
    assert child.parent_id == op.span_id  # but not stacked under the flow


def test_span_context_manager_records_errors():
    env = Environment()
    tracer = Tracer(env)
    with pytest.raises(ValueError):
        with tracer.span("risky", track="main"):
            raise ValueError("boom")
    (span,) = tracer.spans
    assert span.attrs["error"] == "ValueError: boom"


def test_tracer_caps_spans_at_max_spans():
    env = Environment()
    tracer = Tracer(env, max_spans=3)
    for i in range(5):
        tracer.begin(f"s{i}", track="main").finish()
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2


def test_instants_are_recorded():
    env = Environment()
    tracer = Tracer(env)
    tracer.instant("adapt.replicate", track="loop", cat="adaptation", blob="b1")
    (mark,) = tracer.instants
    assert mark.name == "adapt.replicate"
    assert mark.attrs == {"blob": "b1"}
    assert tracer.tracks() == ["loop"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_metrics_counters_gauges_histograms():
    env = Environment()
    metrics = MetricsRegistry(env)
    metrics.counter("ops").inc()
    metrics.counter("ops").inc(2)
    assert metrics.counter("ops").value == 3
    with pytest.raises(ValueError):
        metrics.counter("ops").inc(-1)

    metrics.gauge("depth").set(7)
    metrics.gauge("depth").add(-2)
    assert metrics.gauge("depth").value == 5

    hist = metrics.histogram("latency_s")
    for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
        hist.observe(v)
    assert hist.count == 5
    assert hist.min == 1.0 and hist.max == 5.0
    assert hist.percentile(50) == 3.0
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 5.0


def test_metrics_series_stamp_env_now():
    env = Environment()
    metrics = MetricsRegistry(env)

    def proc(env):
        yield env.timeout(3.0)
        metrics.sample("throughput", 42.0)

    env.process(proc(env))
    env.run()
    assert metrics.series("throughput").points == [(3.0, 42.0)]
    dump = metrics.to_dict()
    assert dump["throughput"]["points"] == [[3.0, 42.0]]


def test_one_metric_name_is_one_instrument():
    """A name registered as one kind cannot come back as another: the
    exports are keyed by name and could only ever show one of the two
    (the cache gauges ``cache.<name>.bytes_mb`` used to vanish behind the
    tuner's same-named series)."""
    metrics = MetricsRegistry()
    metrics.gauge("cache.c.bytes_mb").set(1.0)
    with pytest.raises(ValueError, match="cache.c.bytes_mb"):
        metrics.series("cache.c.bytes_mb")
    with pytest.raises(ValueError):
        metrics.sample("cache.c.bytes_mb", 2.0)
    with pytest.raises(ValueError):
        metrics.counter("cache.c.bytes_mb")
    assert metrics.gauge("cache.c.bytes_mb").value == 1.0  # same kind: same one

    metrics.sample("z.series", 1.0)
    metrics.histogram("b.hist").observe(1.0)
    metrics.counter("y.count").inc()
    metrics.counter("a.count").inc()
    # Exports group by kind (counters, gauges, histograms, series) and
    # sort by name within a kind; every registered name is in them.
    assert list(metrics.to_dict()) == [
        "a.count", "y.count", "cache.c.bytes_mb", "b.hist", "z.series"]
    assert len(metrics) == len(metrics.to_dict()) == len(metrics.names()) == 5
    assert metrics.series_names() == ["z.series"]


# ---------------------------------------------------------------------------
# The one window cut and the one fold
# ---------------------------------------------------------------------------

#: Times on a half-unit grid, so duplicate timestamps and window edges
#: that fall exactly on a sample are the common case, not the rare one.
GRID = st.integers(min_value=0, max_value=24).map(lambda i: i / 2.0)
SAMPLES = st.lists(st.tuples(GRID, st.floats(-1e6, 1e6)), max_size=40).map(
    lambda samples: sorted(samples, key=lambda s: s[0]))
STATISTICS = ("mean", "min", "max", "sum", "latest", "count", "rate",
              "value_rate", "p50", "p90", "p95", "p99")


def reference_statistic(values, statistic, width):
    if statistic == "mean":
        return fsum(values) / len(values)
    if statistic == "sum":
        return fsum(values)
    if statistic == "min":
        return min(values)
    if statistic == "max":
        return max(values)
    if statistic == "latest":
        return values[-1]
    if statistic == "count":
        return float(len(values))
    if statistic == "rate":
        return len(values) / width
    if statistic == "value_rate":
        return fsum(values) / width
    ordered = sorted(values)
    return ordered[int(round(float(statistic[1:]) / 100.0 * (len(ordered) - 1)))]


@settings(max_examples=300, deadline=None)
@given(samples=SAMPLES, lo=GRID, hi=GRID)
def test_a_window_is_cut_and_folded_like_the_brute_force_filter(samples, lo, hi):
    metrics = MetricsRegistry()
    for time, value in samples:
        metrics.sample("s", value, time=time)
    series = metrics.series("s")
    expected = [(t, v) for t, v in series.points if lo < t <= hi]
    assert series.window(lo, hi) == expected

    engine = QueryEngine(metrics=metrics)
    width = hi - lo
    assert engine.window_points("s", window_s=width, now=hi) == expected
    values = [v for _t, v in expected]
    for statistic in STATISTICS:
        answer = engine.window_stat("s", statistic, window_s=width, now=hi)
        if not values:
            assert answer is None
        else:
            assert answer == reference_statistic(values, statistic, width)
    assert engine.window_stat("s", "p95", window_s=width, now=hi) == (
        reference_statistic(values, "p95", width) if values else None)


# ---------------------------------------------------------------------------
# Kernel profiler + max_events guard
# ---------------------------------------------------------------------------

def test_profiler_counts_every_engine_event():
    env = Environment()
    profiler = KernelProfiler()
    env.profiler = profiler

    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker(env), name="ticker")
    env.timeout(0.5)  # nothing waits on it
    env.run()
    assert profiler.events_popped == env.events_processed > 0
    assert profiler.process_steps["ticker"] > 0
    assert profiler.hottest_processes(1)[0][0] == "ticker"
    snap = profiler.snapshot()
    assert snap["events_popped"] == env.events_processed
    # Pops that ran no callback: the stray timeout and the completion of
    # the ticker, a process nobody waits for.
    assert snap["dead_events"] == profiler.dead_events == 2
    assert snap["process_steps_total"] >= profiler.process_steps["ticker"]


def test_profiler_max_heap_depth_is_a_high_water_mark():
    """The depth is read on every pop, not on a sample of them: five
    timeouts leave four entries behind the first pop."""
    env = Environment()
    env.profiler = KernelProfiler()
    for t in range(1, 6):
        env.timeout(float(t)).callbacks.append(lambda _event: None)
    env.run()
    assert env.profiler.max_heap_depth == 4


def test_max_events_guard_raises_with_kernel_stats():
    env = Environment()
    telemetry.enable(env)

    def runaway(env):
        while True:
            yield env.timeout(0.001)

    env.process(runaway(env), name="runaway")
    with pytest.raises(SimulationError) as excinfo:
        env.run(max_events=50)
    err = excinfo.value
    assert "50 events" in str(err)
    assert err.kernel_stats["events_processed"] == 50
    assert err.kernel_stats["heap_depth"] >= 0
    assert "events_popped" in err.kernel_stats


def test_max_events_guard_allows_finite_runs():
    env = Environment()

    def short(env):
        yield env.timeout(1.0)

    env.process(short(env))
    env.run(max_events=10_000)  # must not raise
    assert env.now == 1.0


# ---------------------------------------------------------------------------
# Full-stack traces from a real deployment
# ---------------------------------------------------------------------------

def make_deployment(seed=11):
    return BlobSeerDeployment(BlobSeerConfig(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=seed),
    ))


def run_write_read(deployment, op_mb=256.0):
    tele = telemetry.enable(deployment)
    client = deployment.new_client("c0")

    def workload(env):
        blob_id = yield from client.create_blob(chunk_size_mb=64.0)
        yield from client.append(blob_id, op_mb)
        yield from client.read(blob_id, size_mb=op_mb, offset_mb=0.0)

    deployment.env.process(workload(deployment.env))
    deployment.run()
    return tele


def test_deployment_trace_covers_every_layer():
    tele = run_write_read(make_deployment())
    names = {s.name for s in tele.tracer.spans}
    for expected in [
        "client.create", "client.append", "client.read",
        "client.allocate", "client.chunk_transfer", "client.ticket",
        "client.metadata_write", "client.publish", "client.fetch",
        "pm.allocate", "vm.create_blob", "vm.ticket", "vm.publish",
        "provider.ingest", "provider.serve", "net.flow",
    ]:
        assert expected in names, f"missing span {expected}"
    assert tele.tracer.open_spans() == []

    # The span tree is navigable: the append root owns the phase spans.
    (append,) = tele.tracer.spans_named("client.append")
    child_names = {s.name for s in tele.tracer.children_of(append)}
    assert {"client.allocate", "client.chunk_transfer",
            "client.ticket", "client.metadata_write",
            "client.publish"} <= child_names

    # Cross-layer metrics landed too.
    metrics = tele.metrics
    assert metrics.counter("client.append_ops").value == 1
    assert metrics.counter("net.flows_completed").value > 0
    assert metrics.counter("vm.versions_published").value >= 1


def test_same_seed_produces_byte_identical_trace():
    json_a = chrome_trace_json(run_write_read(make_deployment(seed=5)).tracer)
    json_b = chrome_trace_json(run_write_read(make_deployment(seed=5)).tracer)
    assert json_a == json_b
    # Negative control: a different workload changes the trace.
    json_c = chrome_trace_json(
        run_write_read(make_deployment(seed=5), op_mb=320.0).tracer)
    assert json_a != json_c


def test_chrome_trace_is_well_formed():
    tele = run_write_read(make_deployment())
    trace = chrome_trace(tele.tracer)
    events = trace["traceEvents"]
    assert events, "trace must not be empty"

    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(tele.tracer.spans)
    # One thread_name per track plus one process_name.
    thread_names = {e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert thread_names == set(tele.tracer.tracks())

    last_ts = {}
    for event in complete:
        assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        assert event["dur"] >= 0
        key = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(key, -1.0), "ts must be monotonic per track"
        last_ts[key] = event["ts"]

    # Round-trips through json.
    json.loads(chrome_trace_json(tele.tracer))


def test_trace_includes_instant_events():
    env = Environment()
    tele = telemetry.enable(env)
    env.tracer.instant("security.violation", track="detection-engine",
                       cat="security", client="evil")
    trace = chrome_trace(tele.tracer)
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == "security.violation"
    assert instants[0]["s"] == "t"


# ---------------------------------------------------------------------------
# Export + uninstall
# ---------------------------------------------------------------------------

def test_write_chrome_trace_and_uninstall(tmp_path):
    tele = run_write_read(make_deployment())
    path = tmp_path / "trace.json"
    tele.write_chrome_trace(str(path))
    data = json.loads(path.read_text())
    assert data["traceEvents"]

    tele.uninstall()
    assert tele.env.tracer is NULL_TRACER
    assert tele.env.metrics is None
    assert tele.env.profiler is None


def test_null_tracer_is_shared_and_stateless():
    a, b = Environment(), Environment()
    assert a.tracer is b.tracer is NULL_TRACER
    assert isinstance(NULL_TRACER, NullTracer)
    NULL_TRACER.begin("x").annotate(y=1).finish()
    assert NULL_TRACER.spans == ()
