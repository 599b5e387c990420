"""End-to-end causal tracing: one client op = one connected trace.

Covers the trace-context propagation added for the observability loop:
spans created in other simulated processes (provider ingest/serve, chunk
pushes) must join the originating client operation's trace, the
critical-path analyzer must account for every sim-second of the
operation, and fault paths must close — not orphan — their spans.
"""

import pytest

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.telemetry import critical_path
from repro.telemetry.export import chrome_trace


def make_deployment(seed=13, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=32.0,
        replication=2,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def run_write_read(deployment, size_mb=128.0, chunk_size_mb=32.0):
    env = deployment.env
    client = deployment.new_client("alice")
    results = {}

    def scenario(env):
        blob_id = yield env.process(client.create_blob(chunk_size_mb))
        results["blob"] = blob_id
        results["write"] = yield env.process(
            client.write(blob_id, 0.0, size_mb)
        )
        results["read"] = yield env.process(client.read(blob_id, 0.0, size_mb))

    env.process(scenario(env))
    deployment.run(until=300.0)
    return results


def parent_index(spans):
    return {s.span_id: s for s in spans}


# ------------------------------------------------------------- connectivity
def test_write_trace_is_connected_across_all_actors():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    results = run_write_read(deployment)
    assert results["write"].ok

    root = tele.tracer.spans_named("client.write")[0]
    trace = [s for s in tele.tracer.spans if s.trace_id == root.trace_id]
    by_id = parent_index(trace)

    # Every span in the trace reaches the root through parent links.
    for span in trace:
        cursor = span
        hops = 0
        while cursor.span_id != root.span_id:
            assert cursor.parent_id in by_id, (
                f"{cursor.name} is orphaned from the write trace"
            )
            cursor = by_id[cursor.parent_id]
            hops += 1
            assert hops < 50
    assert root.parent_id == 0

    # The one trace spans client, provider manager, version manager and
    # at least one data provider node: client -> PM -> providers -> VM.
    tracks = {s.track for s in trace}
    assert "client-alice" in tracks or any("alice" in t for t in tracks)
    assert "pm-node" in tracks
    assert "vm-node" in tracks
    assert any(t.startswith("provider-") for t in tracks)

    # >= 4 protocol phases directly under the root.
    phase_names = {s.name for s in trace if s.parent_id == root.span_id}
    assert {"client.allocate", "client.chunk_transfer",
            "client.ticket", "client.metadata_write",
            "client.publish"} <= phase_names


def test_provider_ingest_spans_join_the_write_trace():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)

    root = tele.tracer.spans_named("client.write")[0]
    transfer = [s for s in tele.tracer.spans_named("client.chunk_transfer")
                if s.trace_id == root.trace_id][0]
    ingests = [s for s in tele.tracer.spans_named("provider.ingest")
               if s.trace_id == root.trace_id]
    # 4 chunks x replication 2.
    assert len(ingests) == 8
    for span in ingests:
        assert span.parent_id == transfer.span_id
        assert span.track.startswith("provider-")


def test_read_trace_links_provider_serve():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)

    root = tele.tracer.spans_named("client.read")[0]
    fetch = [s for s in tele.tracer.spans_named("client.fetch")
             if s.trace_id == root.trace_id][0]
    serves = [s for s in tele.tracer.spans_named("provider.serve")
              if s.trace_id == root.trace_id]
    assert len(serves) == 4  # one replica served per chunk
    assert all(s.parent_id == fetch.span_id for s in serves)
    # The VM lookup leg also joins the read trace.
    assert any(s.name == "vm.get_latest" and s.track == "vm-node"
               for s in tele.tracer.spans if s.trace_id == root.trace_id)


def test_no_spans_left_open_after_clean_run():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)
    assert tele.tracer.open_spans() == []


# ------------------------------------------------------------- critical path
def test_phase_durations_sum_to_operation_latency():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    results = run_write_read(deployment)

    root = tele.tracer.spans_named("client.write")[0]
    report = critical_path.analyze(tele.tracer, root=root)
    assert report.duration_s == pytest.approx(results["write"].duration_s)
    total = sum(phase.duration_s for phase in report.phases)
    assert abs(total - report.duration_s) < 1e-9
    assert len(report.phases) >= 4
    for phase in report.phases:
        assert phase.duration_s >= 0.0


def test_analyze_autodetects_root_from_trace_spans():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)

    root = tele.tracer.spans_named("client.write")[0]
    trace = [span for span in tele.tracer.spans
             if span.finished and span.trace_id == root.trace_id]
    report = critical_path.analyze(trace)
    assert report.root is root


def test_critical_path_walk_and_contributors():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)

    root = tele.tracer.spans_named("client.write")[0]
    report = critical_path.analyze(tele.tracer, root=root)

    assert report.critical_path[0].span is root
    # Steps are nested within the root's interval.
    for step in report.critical_path:
        assert step.span.start >= root.start - 1e-9
        assert step.span.end <= root.end + 1e-9
        assert step.self_s >= 0.0
    # Self time across the path accounts for the whole latency.
    total_self = sum(step.self_s for step in report.critical_path)
    assert total_self == pytest.approx(report.duration_s, abs=1e-6)
    # Contributors aggregate the same self time by span name.
    assert sum(s for _n, s in report.contributors) == pytest.approx(
        total_self, abs=1e-6
    )
    # A 128 MB write is transfer-bound: chunk transfer dominates.
    assert report.contributors[0][0] in (
        "net.flow", "provider.ingest", "client.chunk_transfer"
    )
    # Replication means some pushes finish early -> positive slack somewhere.
    assert max(report.slack.values()) > 0.0
    payload = report.to_dict()
    assert payload["span_count"] == len(report.spans)
    assert report.render()


# ------------------------------------------------------------- export
def test_chrome_trace_emits_cross_process_flow_arrows():
    deployment = make_deployment()
    tele = telemetry.enable(deployment, profile=False)
    run_write_read(deployment)

    payload = chrome_trace(tele.tracer)
    events = payload["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)
    # Arrow pairs share ids; each corresponds to a cross-track edge.
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    spans_by_id = {s.span_id: s for s in tele.tracer.spans}
    for arrow in finishes:
        child = spans_by_id[arrow["id"]]
        parent = spans_by_id[child.parent_id]
        assert parent.track != child.track


# ------------------------------------------------------------- disabled path
def test_tracing_disabled_leaves_simulation_identical():
    def run(with_telemetry):
        deployment = make_deployment(seed=23)
        if with_telemetry:
            telemetry.enable(deployment, profile=False)
        results = run_write_read(deployment)
        return (
            deployment.env.now,
            deployment.env.events_processed,
            results["write"].started_at,
            results["write"].finished_at,
            results["read"].started_at,
            results["read"].finished_at,
        )

    assert run(False) == run(True)


# ------------------------------------------------------------- fault paths
def test_crashed_provider_closes_inflight_ingest_span_with_error():
    deployment = make_deployment(seed=31, replication=1)
    tele = telemetry.enable(deployment, profile=False)
    env = deployment.env
    client = deployment.new_client("alice")
    results = {}

    def scenario(env):
        blob_id = yield env.process(client.create_blob(32.0))
        results["write"] = yield env.process(client.write(blob_id, 0.0, 128.0))

    def killer(env):
        # Mid chunk-transfer: in-flight ingest flows get severed.
        yield env.timeout(0.5)
        deployment.actor_nodes["provider-0"].fail()

    env.process(scenario(env))
    env.process(killer(env))
    deployment.run(until=300.0)

    # The write survived via the client's re-placement retry.
    assert results["write"].ok
    ingests = tele.tracer.spans_named("provider.ingest")
    failed = [s for s in ingests if "error" in s.attrs]
    assert failed, "expected at least one ingest span closed with an error"
    assert all(s.finished for s in ingests)
    assert tele.tracer.open_spans() == []

    # The failed ingest still belongs to the write's trace.
    root = tele.tracer.spans_named("client.write")[0]
    assert all(s.trace_id == root.trace_id for s in failed)


# ------------------------------------------------- what a traced run records
def span_rows(tracer):
    """One row per span in begin order: the row of its parent, name,
    track and annotations — after checking it carries its root's id."""
    ordered = sorted(tracer.spans, key=lambda s: s.span_id)
    row_of = {s.span_id: i for i, s in enumerate(ordered)}
    rows = []
    for span in ordered:
        root = span
        while root.parent_id:
            root = ordered[row_of[root.parent_id]]
        assert span.trace_id == root.span_id
        rows.append((row_of.get(span.parent_id), span.name, span.track,
                     " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))))
    return rows


#: Captured at a802854, where every span below was an inline
#: ``with tracer.span(...)``; the explicit begin/finish pairs behind one
#: ``tracer.enabled`` read per operation must record the same trees.
GOLDEN_SPAN_ROWS = [
    (None, "client.create", "c0-node", "blob=1 client=c0"),
    (0, "vm.create_blob", "vm-node", "caller=c0-node"),
    (None, "client.append", "c0-node", "blob=1 client=c0 ok=True size_mb=2.0 version=1"),
    (2, "client.allocate", "c0-node", "chunks=2"),
    (3, "pm.allocate", "pm-node", "caller=c0-node chunks=2 pool=4 replication=1"),
    (2, "client.chunk_transfer", "c0-node", "chunks=2"),
    (5, "provider.ingest", "provider-0-node", "chunk=b1.c0.w1.c0 client=c0 size_mb=1.0"),
    (6, "net.flow", "c0-node", "dst=provider-0-node fid=1 size_mb=1.0 src=c0-node tag=c0"),
    (5, "provider.ingest", "provider-1-node", "chunk=b1.c0.w1.c1 client=c0 size_mb=1.0"),
    (8, "net.flow", "c0-node", "dst=provider-1-node fid=2 size_mb=1.0 src=c0-node tag=c0"),
    (2, "client.ticket", "c0-node", ""),
    (10, "vm.ticket", "vm-node", "blob=1 version=1 writer=c0"),
    (2, "client.metadata_write", "c0-node", "version=1"),
    (2, "client.publish", "c0-node", ""),
    (13, "vm.publish", "vm-node", "blob=1 version=1"),
    (None, "client.write", "c0-node", "blob=1 client=c0 ok=True size_mb=1.0 version=2"),
    (15, "client.allocate", "c0-node", "chunks=1"),
    (16, "pm.allocate", "pm-node", "caller=c0-node chunks=1 pool=4 replication=1"),
    (15, "client.chunk_transfer", "c0-node", "chunks=1"),
    (18, "provider.ingest", "provider-2-node", "chunk=b1.c0.w2.c0 client=c0 size_mb=1.0"),
    (19, "net.flow", "c0-node", "dst=provider-2-node fid=3 size_mb=1.0 src=c0-node tag=c0"),
    (15, "client.ticket", "c0-node", ""),
    (21, "vm.ticket", "vm-node", "blob=1 version=2 writer=c0"),
    (15, "client.metadata_write", "c0-node", "version=2"),
    (15, "client.publish", "c0-node", ""),
    (24, "vm.publish", "vm-node", "blob=1 version=2"),
    (None, "client.read", "c0-node", "blob=1 client=c0 ok=True size_mb=2.0 version=2"),
    (26, "client.lookup", "c0-node", ""),
    (27, "vm.get_latest", "vm-node", "blob=1 caller=c0-node"),
    (26, "client.metadata_read", "c0-node", "chunks=2 version=2"),
    (26, "client.fetch", "c0-node", "cached=0 chunks=2"),
    (30, "provider.serve", "provider-0-node", "chunk=b1.c0.w1.c0 client=c0 size_mb=1.0"),
    (30, "provider.serve", "provider-2-node", "chunk=b1.c0.w2.c0 client=c0 size_mb=1.0"),
    (31, "net.flow", "provider-0-node", "dst=c0-node fid=4 size_mb=1.0 src=provider-0-node tag=c0"),
    (32, "net.flow", "provider-2-node", "dst=c0-node fid=5 size_mb=1.0 src=provider-2-node tag=c0"),
    (None, "client.read", "c0-node", "blob=1 client=c0 ok=True size_mb=2.0 version=2"),
    (35, "client.lookup", "c0-node", ""),
    (36, "vm.get_latest", "vm-node", "blob=1 caller=c0-node"),
    (35, "client.metadata_read", "c0-node", "chunks=2 version=2"),
    (35, "client.fetch", "c0-node", "cached=2 chunks=0"),
]


def cached_deployment(**overrides):
    return make_deployment(
        seed=3, data_providers=4, chunk_size_mb=1.0, replication=1,
        client_chunk_cache_mb=8.0, client_metadata_cache_mb=1.0, **overrides)


def test_traced_operations_record_the_span_trees_they_always_did():
    deployment = cached_deployment()
    tele = telemetry.enable(deployment, profile=False)
    client = deployment.new_client("c0")

    def actor():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 2.0)
        yield from client.write(blob, 1.0, 1.0)
        yield from client.read(blob, 0.0, 2.0)  # cold: both chunks fetched
        yield from client.read(blob, 0.0, 2.0)  # warm: both from the cache

    deployment.run(until=deployment.env.process(actor()))
    assert tele.tracer.open_spans() == []
    assert span_rows(tele.tracer) == GOLDEN_SPAN_ROWS
    for op in ("client.append", "client.write", "client.read"):
        for root in tele.tracer.spans_named(op):
            report = telemetry.analyze(tele.tracer, root=root)
            assert abs(sum(p.duration_s for p in report.phases)
                       - report.duration_s) < 1e-9


def failed_read_spans(deployment, client, **read):
    """Spans of one failing ``client.read`` and the error it raised."""
    tele = telemetry.enable(deployment, profile=False)
    caught = {}

    def actor():
        try:
            yield from client.read(**read)
        except Exception as exc:  # noqa: BLE001 - whatever the read raises
            caught["error"] = exc

    deployment.env.process(actor())
    deployment.run(until=deployment.env.now + 30.0)
    assert tele.tracer.open_spans() == []
    return ({s.name: s for s in tele.tracer.spans}, caught["error"])


def one_chunk_blob(deployment, client):
    def write():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 1.0)
        return blob

    return deployment.run(until=deployment.env.process(write()))


def test_read_failing_in_its_lookup_closes_every_span_with_the_error():
    """The phases of a read are explicit begin/finish pairs: the one an
    error escapes from is closed by the root, with the error on it."""
    from repro.blobseer.errors import RangeError, RpcTimeout, VersionNotFound

    # The version manager refuses inside the handler: three spans end.
    deployment = cached_deployment()
    client = deployment.new_client("c0")
    blob = one_chunk_blob(deployment, client)
    spans, error = failed_read_spans(
        deployment, client, blob_id=blob, offset_mb=0.0, size_mb=1.0, version=9)
    assert isinstance(error, VersionNotFound)
    assert list(spans) == ["vm.get_latest", "client.lookup", "client.read"]
    for name in ("vm.get_latest", "client.lookup"):
        assert spans[name].attrs["error"] == f"VersionNotFound: {error}"
    root = spans["client.read"]
    assert (root.attrs["ok"], root.attrs["error"]) == (False, str(error))
    assert all(s.end == root.end for s in spans.values())

    # The range check fails between two phases: only the root carries it.
    deployment = cached_deployment()
    client = deployment.new_client("c0")
    blob = one_chunk_blob(deployment, client)
    spans, error = failed_read_spans(
        deployment, client, blob_id=blob, offset_mb=0.0, size_mb=2.0)
    assert isinstance(error, RangeError)
    assert list(spans) == ["vm.get_latest", "client.lookup", "client.read"]
    assert "error" not in spans["client.lookup"].attrs
    assert spans["client.read"].attrs["error"] == str(error)
    assert spans["client.read"].attrs["ok"] is False

    # The version manager is gone: the deadline expires mid-lookup.
    deployment = cached_deployment()
    deployment.net.blackhole_missing = True
    client = deployment.new_client("c0", rpc_timeout_s=2.0)
    blob = one_chunk_blob(deployment, client)
    deployment.actor_nodes["vm"].fail()
    spans, error = failed_read_spans(
        deployment, client, blob_id=blob, offset_mb=0.0, size_mb=1.0)
    assert isinstance(error, RpcTimeout)
    assert list(spans) == ["vm.get_latest", "client.lookup", "client.read"]
    for name in ("vm.get_latest", "client.lookup"):
        assert spans[name].attrs["error"] == f"RpcTimeout: {error}"
    root = spans["client.read"]
    assert (root.attrs["ok"], root.attrs["error"]) == (False, str(error))
    assert root.duration_s == pytest.approx(2.0)
    assert client.history[-1].ok is False
