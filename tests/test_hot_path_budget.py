"""Budgets of the hot path: work that takes no simulated time allocates
nothing in the kernel, and nothing runs on the op path unless it can
change the simulated outcome or feeds an observer that is switched on
(DESIGN.md, "Architectural notes").

Deterministic counts, no timing: kernel events per warm read and per
uncontended ``compute``, heap entries per release, dead pops per write,
generators per metadata-cache hit, records per
emit into an empty sink, function calls per warm read, tracer calls per
untraced operation, hashes per placed monitoring parameter, component
walks and capacity reads of the flow solver — plus an AST
gate that keeps the actor loops driving client operations inline.  Each
budget is exact, so the two-event tax of a process wrapped around an
operation (or a dead heap entry per release, or one more null span per
read) cannot creep back unnoticed.
"""

import ast
import collections
import hashlib
import sys
from pathlib import Path

import repro.blobseer.client as client_module
import repro.blobseer.segment_tree as segment_tree
import repro.simulation.network as network_module
from repro.blobseer import (
    BlobSeerConfig,
    BlobSeerDeployment,
    MonitoringEvent,
    RecordingSink,
)
from repro.blobseer.metadata import MetadataStore
from repro.blobseer.segment_tree import capacity_for, tree_query
from repro.cluster import TestbedConfig
from repro.cluster.node import PhysicalNode
from repro.monitoring import MonitoringConfig, MonitoringStack
from repro.simulation import Environment, FlowNetwork, NetNode, Process, Resource
from repro.telemetry import KernelProfiler, MetricsRegistry
from repro.workloads import build_write_scenario

ROOT = Path(__file__).resolve().parents[1]


def cached_deployment():
    return BlobSeerDeployment(BlobSeerConfig(
        data_providers=4, metadata_providers=2, chunk_size_mb=1.0,
        client_chunk_cache_mb=8.0, client_metadata_cache_mb=1.0,
        testbed=TestbedConfig(seed=3)))


def count_constructions(monkeypatch, cls):
    """Count every ``cls(...)`` from here on; returns the one-item tally."""
    tally = [0]
    original = cls.__init__

    def counting_init(self, *args, **kwargs):
        tally[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return tally


def test_warm_read_costs_its_round_trip_and_no_process(monkeypatch):
    """Metadata and chunk both cached: what is left of a read is the
    get-latest round trip — request leg, CPU timeout, reply leg.  The
    free core is held from the request (no grant event), and there is no
    init/completion pair of a wrapping process, no release."""
    dep = cached_deployment()
    env = dep.env
    client = dep.new_client("c0")
    seen = {}

    def actor():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 2.0)
        yield from client.read(blob, 0.0, 1.0)  # fills both caches
        processes = count_constructions(monkeypatch, Process)
        before = env.events_processed
        yield from client.read(blob, 0.0, 1.0)
        seen["events"] = env.events_processed - before
        seen["processes"] = processes[0]

    env.process(actor())
    dep.run()
    assert seen == {"events": 3, "processes": 0}
    assert client.history[-1].ok and client.history[-1].op == "read"


def count_calls(monkeypatch, module, name):
    """Count every call of ``module.name`` from here on (for a generator
    function: every generator created)."""
    tally = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        tally[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return tally


def test_warm_read_of_a_tall_tree_is_one_lookup_per_cache(monkeypatch):
    """A 48-chunk blob's tree is 7 levels tall, but what a range of a
    published version resolved to is held beside the nodes: the second
    read of a chunk asks the metadata cache once and the chunk cache
    once, walks nothing and builds no node key."""
    dep = cached_deployment()
    env = dep.env
    client = dep.new_client("c0")
    seen = {}

    def readings():
        meta, chunks = client.meta.cache.stats, client.chunk_cache.stats
        return {"events": env.events_processed,
                "meta_lookups": meta.lookups, "meta_hits": meta.hits,
                "chunk_lookups": chunks.lookups, "chunk_hits": chunks.hits}

    def actor():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 48.0)
        yield from client.read(blob, 17.0, 1.0)  # resolves, fills both caches
        counts = {
            "tree_queries": count_calls(monkeypatch, client_module, "tree_query"),
            "node_keys": count_calls(monkeypatch, segment_tree, "node_key"),
            "processes": count_constructions(monkeypatch, Process),
        }
        before = readings()
        yield from client.read(blob, 17.0, 1.0)
        seen.update({name: after - before[name]
                     for name, after in readings().items()})
        seen.update({name: tally[0] for name, tally in counts.items()})

    env.process(actor())
    dep.run()
    assert seen == {"tree_queries": 0, "node_keys": 0, "processes": 0,
                    "events": 3, "meta_lookups": 1, "meta_hits": 1,
                    "chunk_lookups": 1, "chunk_hits": 1}


class CallCount:
    """Calls of functions defined under ``src/repro`` while profiling is
    on, by source file.  A generator counts once per resume, like under
    cProfile; comprehensions, lambdas and C functions are left out, so
    the numbers do not depend on how an interpreter version runs those."""

    PACKAGE = str(ROOT / "src" / "repro") + "/"

    def __init__(self) -> None:
        self.by_file = collections.Counter()

    def _profile(self, frame, event, _arg) -> None:
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(self.PACKAGE)
                and not code.co_name.startswith("<")):
            self.by_file[code.co_filename[len(self.PACKAGE):]] += 1

    def __enter__(self) -> "CallCount":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)

    @property
    def total(self) -> int:
        return sum(self.by_file.values())


def test_warm_read_call_budget():
    """Both caches hit, a metrics registry installed, the default
    ``NullTracer``, an empty sink: what a warm read still calls is its
    get-latest round trip, two cache lookups, three instruments and the
    kernel steps in between.  117 at the parent of this budget (a802854),
    where the same read entered 17 null spans, hopped through ``env``
    properties, resolved both message routes from scratch and looked its
    throughput series up by name; 75 until the cache kept its own
    recency order instead of telling a policy object about each of the
    two hits; 73 until a free core was held from the request instead of
    granted through the heap (one event, one process step and the
    request's queue round trip fewer).  The count may fall, never
    rise."""
    dep = cached_deployment()
    env = dep.env
    env.metrics = MetricsRegistry(env)
    client = dep.new_client("c0")
    assert not env.tracer.enabled and not dep.sink.enabled
    counted = CallCount()

    def actor():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 2.0)
        yield from client.read(blob, 0.0, 1.0)  # fills both caches
        with counted:
            yield from client.read(blob, 0.0, 1.0)

    env.process(actor())
    dep.run()
    assert client.history[-1].ok
    assert env.metrics.series("client.throughput_mbps").points[-1][0] == env.now
    assert counted.total == 61, sorted(counted.by_file.items())


def test_untraced_operations_never_enter_the_tracer():
    """Off is absent: with the ``NullTracer`` a read and an append make
    no call into ``repro.telemetry.tracer`` — one ``tracer.enabled``
    read per operation or handler decides.  (Re-adding a single
    ``with tracer.span(...)`` to ``client.py`` fails this.)"""
    dep = cached_deployment()
    client = dep.new_client("c0")
    blob = dep.run(until=dep.env.process(client.create_blob(1.0)))
    counted = CallCount()

    def actor():
        with counted:
            yield from client.append(blob, 2.0)
            yield from client.read(blob, 0.0, 2.0)  # cold: fetches both chunks
            yield from client.read(blob, 0.0, 2.0)  # warm

    dep.run(until=dep.env.process(actor()))
    assert [op.ok for op in client.history[-3:]] == [True] * 3
    assert counted.by_file["blobseer/client.py"] > 0
    assert counted.by_file["telemetry/tracer.py"] == 0


def test_a_placed_parameter_or_actor_is_not_hashed_again(monkeypatch):
    """Monitoring placement is fixed per parameter and per actor id: the
    md5 that picks a storage server or a monitoring service runs once
    for each, not once per event per hop (at a802854: three name formats
    and two hashes per event, and one hash per actor per flush)."""
    dep = cached_deployment()
    stack = MonitoringStack(dep.testbed, MonitoringConfig(
        services=2, storage_servers=2, flush_interval_s=0.5))
    stack.attach(dep)
    recorder = RecordingSink()
    dep.sink.add(recorder)
    client = dep.new_client("c0")

    def write():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 2.0)

    dep.run(until=dep.env.process(write()))
    dep.run(until=dep.env.now + 2.0)  # flushed, routed, stored: all placed
    stored = stack.repository.stored_count
    assert stored == len(recorder.events) > 0

    hashed = []
    md5 = hashlib.md5
    monkeypatch.setattr(hashlib, "md5",
                        lambda data: hashed.append(data) or md5(data))
    formats = count_calls(monkeypatch, MonitoringEvent, "parameter_name")
    for event in recorder.events:  # the same parameters, the same actors
        stack.emit(event)
    dep.run(until=dep.env.now + 2.0)
    assert stack.repository.stored_count == 2 * stored
    assert stack.parameter_count() == len(
        {event.parameter_name() for event in recorder.events[:stored]})
    assert hashed == [] and formats[0] == stored  # the line above, only


def test_release_schedules_nothing():
    env = Environment()
    resource = Resource(env, capacity=1)
    holder, waiter = resource.request(), resource.request()
    env.run()
    assert holder.processed and not waiter.triggered
    assert resource.release(holder) is None
    # The one heap entry is the waiter's grant — the release has none.
    assert len(env._queue) == 1 and waiter.triggered
    env.run()
    depth = len(env._queue)
    resource.release(waiter)
    assert len(env._queue) == depth == 0


def test_uncontended_compute_is_one_kernel_event():
    """A free core is held from the request: ``compute(d)`` is its
    timeout and nothing else.  With every core busy the grant is one
    more event, at the release that frees the core."""
    env = Environment()
    node = PhysicalNode(env, FlowNetwork(env), "n0", cores=1)
    finished = []

    def work(name):
        yield from node.compute(0.5)
        finished.append((name, env.now))

    def actor():
        before = env.events_processed
        yield from work("alone")
        finished.append(("events", env.events_processed - before))
        env.process(work("queued"))
        before = env.events_processed
        yield from work("first")
        yield env.timeout(1.0)
        finished.append(("events", env.events_processed - before))

    env.run(until=env.process(actor()))
    # first: its timeout; queued: init, grant, timeout, completion; the
    # actor's own timeout.
    assert finished == [("alone", 0.5), ("events", 1), ("first", 1.0),
                        ("queued", 1.5), ("events", 6)]
    assert node.cpu.count == 0 and node.cpu_seconds_used == 1.5


def solver_spies(monkeypatch):
    """Count the flow solver's component walks, scalar water-fills,
    capacity reads and minted resource ids from here on."""
    return {
        "walks": count_calls(monkeypatch, FlowNetwork, "_dirty_component_slots"),
        "waterfills": count_calls(monkeypatch, network_module, "_waterfill_scalar"),
        "capacity_reads": count_calls(monkeypatch, FlowNetwork, "_capacity_of"),
        "minted": count_calls(monkeypatch, FlowNetwork, "_new_resource"),
    }


def test_a_lone_transfer_is_rated_in_closed_form(monkeypatch):
    """A flow alone on its links is solved without a component walk or
    a water-fill, and costs the kernel what it always did: admission,
    the recompute event, the completion timer and the waiter's event
    (4, as at the parent of the closed form).  Each capacity is read
    once, when its resource id is minted."""
    spies = solver_spies(monkeypatch)
    env = Environment()
    net = FlowNetwork(env, latency=0.01)
    net.add_node(NetNode("a", capacity_out=100.0, capacity_in=100.0))
    net.add_node(NetNode("b", capacity_out=100.0, capacity_in=40.0))
    done = net.transfer("a", "b", 10.0)
    env.run()
    assert done.value.finished_at == 0.01 + 10.0 / 40.0
    assert env.events_processed == 4 and net.reallocations == 2
    assert {name: tally[0] for name, tally in spies.items()} == {
        "walks": 0, "waterfills": 0, "capacity_reads": 2, "minted": 2}


def test_a_flow_joining_a_lone_flow_takes_the_general_path(monkeypatch):
    """A second flow on the first one's uplink makes a component of two:
    its admission and the first flow's completion are walked and
    water-filled; the survivor, alone again, is not.  A ``refresh()``
    re-reads the capacity of each of the three live resources."""
    spies = solver_spies(monkeypatch)
    env = Environment()
    net = FlowNetwork(env, latency=0.0)
    for name in "abc":
        net.add_node(NetNode(name, capacity_out=100.0, capacity_in=100.0))
    first = net.transfer("a", "b", 100.0)

    def joiner():
        yield env.timeout(0.5)
        second = net.transfer("a", "c", 100.0)
        yield env.timeout(0.5)
        net.refresh()
        yield second

    env.process(joiner())
    env.run()
    # Alone at 100 MB/s to t=0.5, shared at 50 to t=1.5; the second
    # flow's last 50 MB alone again at 100.
    assert first.value.finished_at == 1.5
    assert env.now == 2.0
    # Passes: first admitted (lone), second admitted (walk), the
    # refresh (global), first done (walk), second done (lone).
    assert net.reallocations == 5
    assert {name: tally[0] for name, tally in spies.items()} == {
        "walks": 2, "waterfills": 3, "capacity_reads": 3 + 3, "minted": 3}


def test_a_write_leaves_no_dead_event_but_fire_and_forget_completions():
    """Pops that run no callback are only processes nobody waits for
    (here the monitoring repository's store flushes): the disk-space put
    of an ingested chunk is booked when it is made, not pushed as an
    event nobody yields (28 such pops before it was)."""
    scenario = build_write_scenario(clients=3, data_providers=6,
                                    metadata_providers=2, op_mb=64.0,
                                    ops_per_client=2, chunk_size_mb=16.0,
                                    seed=4)
    env = scenario.deployment.env
    env.profiler = KernelProfiler()
    dead = collections.Counter()
    step = env.step

    def spying_step():
        event = env._queue[0][3]
        if not event.callbacks:
            dead[type(event).__name__] += 1
        step()

    env.step = spying_step
    scenario.run()
    providers = scenario.deployment.providers.values()
    assert sum(p.chunks_written for p in providers) == 3 * 2 * 4
    assert all(op.ok for w in scenario.writers for op in w.client.history)
    assert dead == {"Process": env.profiler.dead_events}
    assert env.profiler.dead_events > 0


def _append_and_read(dep, client, blob):
    def actor():
        yield from client.append(blob, 1.0)
        yield from client.read(blob, 0.0, 1.0)

    dep.run(until=dep.env.process(actor()))


def test_empty_sink_builds_no_monitoring_event(monkeypatch):
    dep = cached_deployment()
    client = dep.new_client("c0")
    blob = dep.run(until=dep.env.process(client.create_blob(1.0)))
    assert not dep.sink.enabled
    built = count_constructions(monkeypatch, MonitoringEvent)
    _append_and_read(dep, client, blob)
    assert built[0] == 0

    recorder = RecordingSink()
    dep.sink.add(recorder)
    assert dep.sink.enabled
    _append_and_read(dep, client, blob)
    assert [(e.actor_type, e.event_type) for e in recorder.events] == [
        ("client", "op_start"), ("pmanager", "allocation"),
        ("provider", "chunk_write"), ("provider", "storage_level"),
        ("vmanager", "ticket"), ("vmanager", "publish"),
        ("client", "op_end"), ("client", "op_start"), ("client", "op_end"),
    ]
    assert built[0] == len(recorder.events)
    # The client's records carry what they always did, in the same order,
    # with the duration and throughput of the op as its history has them.
    expected = []
    for op in client.history[-2:]:
        took = op.finished_at - op.started_at
        expected += [
            (op.started_at, [("op", op.op), ("size_mb", 1.0)]),
            (op.finished_at, [("op", op.op), ("size_mb", 1.0), ("ok", True),
                              ("duration_s", took),
                              ("throughput_mbps", 1.0 / took)]),
        ]
    assert [op.op for op in client.history[-2:]] == ["append", "read"]
    assert [(e.time, list(e.fields.items())) for e in recorder.events
            if e.actor_type == "client"] == expected


def test_fully_cached_tree_query_creates_no_fetch_generator(monkeypatch):
    """A 48-chunk blob's tree has 64 leaves: a one-chunk query walks 7
    nodes.  The writer's cache holds every one (write-through), so each
    is one ``Cache.lookup`` hit inside ``peek`` and ``fetch`` — the only
    generator on that path — is never created."""
    dep = cached_deployment()
    client = dep.new_client("c0")

    def write():
        blob = yield from client.create_blob(1.0)
        yield from client.append(blob, 48.0)
        return blob

    blob = dep.run(until=dep.env.process(write()))
    fetches = []
    original = MetadataStore.fetch
    monkeypatch.setattr(
        MetadataStore, "fetch",
        lambda self, key: fetches.append(key) or original(self, key))
    stats = client.meta.cache.stats
    hits, misses = stats.hits, stats.misses
    walk = tree_query(client.meta, blob, 1, 17, 18, capacity=capacity_for(48))
    try:
        next(walk)
    except StopIteration as done:
        assert list(done.value) == [17]
    else:
        raise AssertionError("a fully cached walk must not yield")
    assert fetches == []
    assert (stats.hits - hits, stats.misses - misses) == (7, 0)


#: Client operations (and ``PhysicalNode.compute``) an actor waits for in
#: line: driven with ``yield from``, never wrapped in a process.
INLINE_OPS = {"create_blob", "write", "append", "read", "compute"}


def _wrapped_ops(tree):
    """``yield env.process(<x>.<op>(...))`` expressions in *tree*."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if (isinstance(call.func, ast.Attribute) and call.func.attr == "process"
                and call.args and isinstance(call.args[0], ast.Call)
                and isinstance(call.args[0].func, ast.Attribute)
                and call.args[0].func.attr in INLINE_OPS):
            yield node.lineno, call.args[0].func.attr


def test_gate_recognizes_a_wrapped_operation():
    tree = ast.parse(
        "def run(env, client):\n"
        "    r = yield env.process(client.read(1, 0.0, 1.0))\n"
        "    yield env.process(client.node.compute(0.1))\n"
        "    yield from client.append(1, 1.0)\n"
        "    yield env.all_of([env.process(client.read(1, 0.0, 1.0))])\n")
    assert list(_wrapped_ops(tree)) == [(2, "read"), (3, "compute")]


def test_actor_loops_drive_client_operations_inline():
    offenders = []
    for package in ("workloads", "robustness"):
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            offenders += [f"{path.relative_to(ROOT)}:{line} wraps {op}() in a "
                          "process only to wait for it: use `yield from`"
                          for line, op in _wrapped_ops(tree)]
    assert not offenders, "\n".join(offenders)
