"""Tests for the introspection layer: aggregation + visualization."""

import pytest

from repro.blobseer.instrument import (
    EV_CHUNK_READ,
    EV_CHUNK_WRITE,
    EV_NODE_PHYSICAL,
    EV_OP_END,
    EV_STORAGE_LEVEL,
    MonitoringEvent,
)
from repro.cluster import Testbed
from repro.introspection import (
    Dashboard,
    IntrospectionLayer,
    bar_chart,
    sparkline,
    table,
)
from repro.monitoring import StorageRepository, StorageServer


def make_repo():
    bed = Testbed()
    server = StorageServer(bed.add_node("s0"), "s0", write_rate_eps=1e9)
    return bed, StorageRepository([server])


def ev(t, actor_type, actor_id, etype, client=None, blob=None, **fields):
    return MonitoringEvent(
        time=t, actor_type=actor_type, actor_id=actor_id, event_type=etype,
        client_id=client, blob_id=blob, fields=fields,
    )


def fill(bed, repo, events):
    repo.store(events)
    bed.run(until=bed.now + 1.0)


def test_storage_timeline_per_provider():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "provider", "p0", EV_STORAGE_LEVEL, used_mb=64.0, free_mb=100.0),
        ev(2.0, "provider", "p0", EV_STORAGE_LEVEL, used_mb=128.0, free_mb=36.0),
        ev(2.0, "provider", "p1", EV_STORAGE_LEVEL, used_mb=10.0, free_mb=90.0),
    ])
    layer = IntrospectionLayer(repo)
    latest = layer.provider_storage_latest()
    assert latest == {"p0": 128.0, "p1": 10.0}


def test_system_storage_timeline_sums_last_known():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "provider", "p0", EV_STORAGE_LEVEL, used_mb=50.0),
        ev(6.0, "provider", "p1", EV_STORAGE_LEVEL, used_mb=20.0),
    ])
    layer = IntrospectionLayer(repo)
    series = layer.system_storage_timeline(bucket_s=5.0)
    # First bucket: only p0 known (50); second: p0 + p1 (70).
    assert series[0] == (5.0, 50.0)
    assert series[1] == (10.0, 70.0)


def test_node_physical_timeline():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "node", "n0", EV_NODE_PHYSICAL, cpu_util=0.2),
        ev(2.0, "node", "n0", EV_NODE_PHYSICAL, cpu_util=0.9),
        ev(1.0, "node", "n1", EV_NODE_PHYSICAL, cpu_util=0.4),
    ])
    layer = IntrospectionLayer(repo)
    assert layer.node_physical_timeline("n0", "cpu_util") == [(1.0, 0.2), (2.0, 0.9)]


def test_blob_access_stats_aggregates():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "provider", "p0", EV_CHUNK_WRITE, client="c1", blob=1, size_mb=64.0),
        ev(2.0, "provider", "p1", EV_CHUNK_WRITE, client="c1", blob=1, size_mb=64.0),
        ev(3.0, "provider", "p0", EV_CHUNK_READ, client="c2", blob=1, size_mb=64.0),
        ev(3.0, "provider", "p0", EV_CHUNK_WRITE, client="c3", blob=2, size_mb=32.0),
    ])
    layer = IntrospectionLayer(repo)
    stats = layer.blob_access_stats()
    assert stats[1].chunk_writes == 2
    assert stats[1].chunk_reads == 1
    assert stats[1].bytes_written_mb == pytest.approx(128.0)
    assert stats[1].writers == {"c1"}
    assert stats[1].readers == {"c2"}
    assert stats[2].chunk_writes == 1


def test_blob_distribution_counts_deletes():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "provider", "p0", EV_CHUNK_WRITE, blob=1, size_mb=64.0),
        ev(1.5, "provider", "p0", EV_CHUNK_WRITE, blob=1, size_mb=64.0),
        ev(2.0, "provider", "p0", "chunk_delete", blob=1, size_mb=64.0),
    ])
    layer = IntrospectionLayer(repo)
    assert layer.blob_distribution() == {1: {"p0": 1}}


def test_throughput_timeline_average_per_client():
    bed, repo = make_repo()
    # Two clients, each one op of 100 MB over 10 s (rate 10 MB/s each).
    fill(bed, repo, [
        ev(10.0, "client", "c1", EV_OP_END, client="c1", op="append",
           size_mb=100.0, ok=True, duration_s=10.0),
        ev(10.0, "client", "c2", EV_OP_END, client="c2", op="append",
           size_mb=100.0, ok=True, duration_s=10.0),
    ])
    layer = IntrospectionLayer(repo)
    series = layer.throughput_timeline(bucket_s=5.0)
    # Average per client is 10 MB/s in both buckets.
    assert [round(v, 3) for _t, v in series] == [10.0, 10.0]


def test_throughput_timeline_filters_failed_ops():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(10.0, "client", "c1", EV_OP_END, client="c1", op="append",
           size_mb=100.0, ok=False, duration_s=10.0),
    ])
    layer = IntrospectionLayer(repo)
    assert layer.throughput_timeline(bucket_s=5.0) == []


# ------------------------------------------------------------------ windows
def test_window_data_rate_and_hot_blobs():
    """The live view over ``now - w < t <= now``: provider chunk MB per
    second, and blobs ranked by chunk accesses of any actor.  An event
    at exactly ``now - w`` is out, one at ``now`` is in."""
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(10.0, "provider", "p0", EV_CHUNK_WRITE, blob=3, size_mb=999.0),
        ev(11.0, "provider", "p0", EV_CHUNK_WRITE, blob=1, size_mb=32.0),
        ev(12.0, "provider", "p0", EV_CHUNK_READ, blob=1, size_mb=32.0),
        ev(13.0, "provider", "p1", EV_CHUNK_WRITE, blob=2, size_mb=64.0),
        ev(14.0, "client", "c0", EV_CHUNK_READ, blob=1, size_mb=32.0),
        ev(15.0, "provider", "p1", EV_CHUNK_READ, blob=1, size_mb=32.0,
           count=2),
        ev(15.0, "provider", "p1", EV_STORAGE_LEVEL, used_mb=512.0),
    ])
    layer = IntrospectionLayer(repo)
    assert [e.time for e in layer.window(5.0, now=15.0)] == [
        11.0, 12.0, 13.0, 14.0, 15.0, 15.0]
    # Providers moved 32 + 32 + 64 + 32 MB in the 5 s window; the
    # client's read and the storage level are no data-path traffic.
    assert layer.data_rate_mbps(5.0, now=15.0) == pytest.approx(160.0 / 5.0)
    assert layer.hot_blobs(5.0, now=15.0) == [(1, 5, 128.0), (2, 1, 64.0)]
    assert layer.hot_blobs(5.0, now=15.0, top=1) == [(1, 5, 128.0)]
    # Widened to include t = 10: blob 3's one write ties blob 2 on
    # accesses and ranks after it by id, whatever its volume.
    assert layer.hot_blobs(6.0, now=15.0)[-1] == (3, 1, 999.0)
    assert layer.window(5.0, now=100.0) == []
    assert layer.data_rate_mbps(5.0, now=100.0) == 0.0


def test_window_sees_records_as_they_arrive():
    bed, repo = make_repo()
    layer = IntrospectionLayer(repo)
    fill(bed, repo, [ev(1.0, "provider", "p0", EV_CHUNK_WRITE, blob=1)])
    assert len(layer.window(100.0, now=50.0)) == 1
    fill(bed, repo, [ev(2.0, "provider", "p0", EV_CHUNK_WRITE, blob=1),
                     ev(3.0, "provider", "p0", EV_CHUNK_WRITE, blob=1)])
    assert len(layer.window(100.0, now=50.0)) == 3
    assert layer.hot_blobs(100.0, now=50.0) == [(1, 3, 0.0)]


# ------------------------------------------------------------------ visualization
def test_sparkline_shapes():
    assert sparkline([]) == "(no data)"
    assert len(sparkline([1, 2, 3])) == 3
    flat = sparkline([5, 5, 5])
    assert len(set(flat)) == 1
    rising = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert rising[0] != rising[-1]


def test_sparkline_downsamples_long_series():
    assert len(sparkline(list(range(1000)), width=50)) == 50


def test_bar_chart_renders_labels_and_values():
    chart = bar_chart([("p0", 100.0), ("p1", 50.0)], unit=" MB")
    lines = chart.splitlines()
    assert "p0" in lines[0] and "100.0 MB" in lines[0]
    assert lines[0].count("#") > lines[1].count("#")


def test_table_renders_rows():
    text = table(["a", "bb"], [[1, 2], [3, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]


def test_dashboard_renders_all_panels():
    bed, repo = make_repo()
    fill(bed, repo, [
        ev(1.0, "provider", "p0", EV_STORAGE_LEVEL, used_mb=64.0),
        ev(1.0, "provider", "p0", EV_CHUNK_WRITE, client="c1", blob=1, size_mb=64.0),
        ev(2.0, "node", "n0", EV_NODE_PHYSICAL, cpu_util=0.5),
        ev(9.0, "client", "c1", EV_OP_END, client="c1", op="append",
           size_mb=64.0, ok=True, duration_s=4.0),
    ])
    dashboard = Dashboard(IntrospectionLayer(repo))
    text = dashboard.render(node_names=["n0"])
    for heading in (
        "Storage space per provider",
        "System storage over time",
        "BLOB access patterns",
        "BLOB distribution",
        "Average client throughput",
        "Physical parameter",
    ):
        assert heading in text
