"""Unit tests for the flow-level max-min fair network model."""

import numpy as np
import pytest

from repro.cluster import FaultInjector, Testbed, TestbedConfig
from repro.simulation import Environment, FlowNetwork, NetNode, TransferAborted


def make_net(env, latency=0.0, **kwargs):
    net = FlowNetwork(env, latency=latency, **kwargs)
    return net


def assert_ids_owned(net):
    """Every live resource id is owned: one of a live node's two NIC
    ids, or a live flow's backbone or cap id.  The reserved id 0 is
    never a key, a member map or a free id, and every other id is free."""
    owned = {}
    for name in net.nodes:
        uplink, downlink = net._nic[name]
        owned[uplink], owned[downlink] = ("out", name), ("in", name)
    for flow in net._flows.values():
        backbone, cap = flow._rids[2:]
        if backbone:
            owned[backbone] = ("bb",) + tuple(sorted((flow.src.site, flow.dst.site)))
        if cap:
            owned[cap] = ("cap", flow.fid)
    live = {rid: key for rid, key in enumerate(net._res_key) if key is not None}
    assert live == owned
    assert net._res_id == {key: rid for rid, key in live.items()}
    assert set(net._res_members) == set(live)
    assert sorted(net._free_res) == sorted(set(range(1, len(net._res_key))) - set(live))


def test_single_flow_runs_at_bottleneck():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0, capacity_in=100.0))
    net.add_node(NetNode("b", capacity_out=50.0, capacity_in=50.0))
    done = net.transfer("a", "b", size=100.0)
    flow = env.run(until=done)
    # Bottleneck is b's 50 MB/s downlink: 100 MB takes 2 s.
    assert env.now == pytest.approx(2.0)
    assert flow.finished_at == pytest.approx(2.0)


def test_two_flows_share_receiver_fairly():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_out=100.0))
    net.add_node(NetNode("sink", capacity_in=100.0))
    d1 = net.transfer("a", "sink", 100.0)
    d2 = net.transfer("b", "sink", 100.0)
    env.run(until=env.all_of([d1, d2]))
    # Each gets 50 MB/s; both finish at t=2.
    assert env.now == pytest.approx(2.0)


def test_flow_speeds_up_when_competitor_finishes():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_out=100.0))
    net.add_node(NetNode("sink", capacity_in=100.0))
    small = net.transfer("a", "sink", 50.0)
    large = net.transfer("b", "sink", 150.0)
    env.run(until=small)
    t_small = env.now
    env.run(until=large)
    t_large = env.now
    # Phase 1: both at 50 MB/s; small done at t=1 (50MB).
    assert t_small == pytest.approx(1.0)
    # Large has 100 MB left, now at full 100 MB/s: finishes at t=2.
    assert t_large == pytest.approx(2.0)


def test_max_min_fairness_with_capped_flow():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_out=100.0))
    net.add_node(NetNode("sink", capacity_in=90.0))
    # One flow capped at 10 MB/s; the other should get the remaining 80.
    slow = net.transfer("a", "sink", 10.0, rate_cap=10.0)
    fast = net.transfer("b", "sink", 80.0)
    env.run(until=env.all_of([slow, fast]))
    assert env.now == pytest.approx(1.0)


def test_latency_delays_message():
    env = Environment()
    net = make_net(env, latency=0.25)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    done = net.message("a", "b")
    env.run(until=done)
    assert env.now == pytest.approx(0.25)


def test_latency_callable_per_pair():
    env = Environment()

    def latency(src, dst):
        return 1.0 if src.site != dst.site else 0.1

    net = make_net(env, latency=latency)
    net.add_node(NetNode("a", site="s1"))
    net.add_node(NetNode("b", site="s2"))
    net.add_node(NetNode("c", site="s1"))
    cross = net.message("a", "b")
    env.run(until=cross)
    assert env.now == pytest.approx(1.0)
    local = net.message("a", "c")
    env.run(until=local)
    assert env.now == pytest.approx(1.1)


def test_kept_message_delay_is_forgotten_when_the_topology_changes():
    """A pair's delay is kept only while that answer is fixed: under
    ``blackhole_missing`` a node that crashed and came back has a fresh
    ``NetNode``, and a message through the one captured before the crash
    vanishes — however often that pair was resolved before."""
    env = Environment()
    net = make_net(env, latency=0.25)
    net.blackhole_missing = True
    a = net.add_node(NetNode("a"))
    b = net.add_node(NetNode("b"))
    for src, dst in (("a", "b"), (a, b), ("a", "b"), (a, b)):
        env.run(until=net.message(src, dst))
    assert env.now == pytest.approx(1.0)

    net.remove_node("b")
    lost = net.message("a", "b")  # nobody there
    fresh = net.add_node(NetNode("b"))
    stale = net.message(a, b)  # the NetNode of the dead incarnation
    by_name, by_node = net.message("a", "b"), net.message(a, fresh)
    env.run(until=env.now + 1.0)
    assert by_name.processed and by_node.processed
    assert not lost.triggered and not stale.triggered
    assert net.blackholed_transfers == 2
    # ... and a stale reference is never kept, whichever mode resolved it.
    net.blackhole_missing = False
    env.run(until=net.message(a, b))
    net.blackhole_missing = True
    assert not net.message(a, b).triggered
    assert net.blackholed_transfers == 3


def test_unknown_endpoint_raises_even_after_the_pair_was_resolved():
    env = Environment()
    net = make_net(env, latency=0.25)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    env.run(until=net.message("a", "b"))
    net.remove_node("b")
    with pytest.raises(KeyError):
        net.message("a", "b")
    with pytest.raises(KeyError):
        net.transfer("a", "b", 0.0)


def test_backbone_constrains_cross_site_flows():
    env = Environment()
    net = make_net(env, backbone_capacity=10.0)
    net.add_node(NetNode("a", capacity_out=100.0, site="s1"))
    net.add_node(NetNode("b", capacity_in=100.0, site="s2"))
    done = net.transfer("a", "b", 10.0)
    env.run(until=done)
    # Backbone 10 MB/s is the bottleneck: 10 MB takes 1 s.
    assert env.now == pytest.approx(1.0)


def test_same_site_ignores_backbone():
    env = Environment()
    net = make_net(env, backbone_capacity=1.0)
    net.add_node(NetNode("a", capacity_out=100.0, site="s1"))
    net.add_node(NetNode("b", capacity_in=100.0, site="s1"))
    done = net.transfer("a", "b", 100.0)
    env.run(until=done)
    assert env.now == pytest.approx(1.0)


def test_abort_fails_waiter():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=10.0))
    net.add_node(NetNode("b", capacity_in=10.0))

    def proc(env):
        done = net.transfer("a", "b", 100.0, tag="victim")
        try:
            yield done
        except TransferAborted as exc:
            return ("aborted", exc.reason, env.now)
        return "finished"

    def killer(env):
        yield env.timeout(2.0)
        net.abort_matching(lambda f: f.tag == "victim", reason="blocked")

    process = env.process(proc(env))
    env.process(killer(env))
    result = env.run(until=process)
    assert result == ("aborted", "blocked", 2.0)
    assert not net._flows


def test_remove_node_aborts_its_flows():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=10.0))
    net.add_node(NetNode("b", capacity_in=10.0))

    def proc(env):
        done = net.transfer("a", "b", 1000.0)
        try:
            yield done
        except TransferAborted:
            return "aborted"
        return "finished"

    def failer(env):
        yield env.timeout(1.0)
        net.remove_node("b")

    process = env.process(proc(env))
    env.process(failer(env))
    assert env.run(until=process) == "aborted"
    assert "b" not in net.nodes


def test_progress_accounting_total_delivered():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_in=100.0))
    done = net.transfer("a", "b", 42.0)
    env.run(until=done)
    env.run(until=env.now + 0.001)
    assert net.total_delivered == pytest.approx(42.0, abs=1e-6)


def test_node_load_reports_rates():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_in=60.0))
    net.transfer("a", "b", 1000.0)

    def probe(env):
        yield env.timeout(0.5)
        out_rate, _ = net.node_load("a")
        _, in_rate = net.node_load("b")
        return out_rate, in_rate

    process = env.process(probe(env))
    out_rate, in_rate = env.run(until=process)
    assert out_rate == pytest.approx(60.0)
    assert in_rate == pytest.approx(60.0)


def test_many_flows_saturate_shared_sink():
    env = Environment()
    net = make_net(env)
    for i in range(10):
        net.add_node(NetNode(f"src{i}", capacity_out=100.0))
    net.add_node(NetNode("sink", capacity_in=100.0))
    events = [net.transfer(f"src{i}", "sink", 10.0) for i in range(10)]
    env.run(until=env.all_of(events))
    # 100 MB total through a 100 MB/s sink: 1 s.
    assert env.now == pytest.approx(1.0)


def test_duplicate_node_rejected():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    with pytest.raises(ValueError):
        net.add_node(NetNode("a"))


def test_negative_size_rejected():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    with pytest.raises(ValueError):
        net.transfer("a", "b", -1.0)


def test_staggered_flows_exact_completion_times():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a", capacity_out=100.0))
    net.add_node(NetNode("b", capacity_out=100.0))
    net.add_node(NetNode("sink", capacity_in=100.0))
    first = net.transfer("a", "sink", 100.0)

    finish_times = {}

    def second_starter(env):
        yield env.timeout(0.5)
        second = net.transfer("b", "sink", 100.0)
        yield second
        finish_times["second"] = env.now

    def first_waiter(env):
        yield first
        finish_times["first"] = env.now

    env.process(second_starter(env))
    env.process(first_waiter(env))
    env.run()
    # t<0.5: first alone at 100 MB/s -> 50 MB moved.
    # t in [0.5, 1.5]: both at 50 MB/s -> first done at 1.5 (50MB left).
    # second then has 50 MB left at 100 MB/s -> done at 2.0.
    assert finish_times["first"] == pytest.approx(1.5)
    assert finish_times["second"] == pytest.approx(2.0)


# -- rate_cap validation (bugfix) ---------------------------------------------

def test_transfer_rejects_zero_rate_cap():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    with pytest.raises(ValueError):
        net.transfer("a", "b", size=10.0, rate_cap=0.0)


def test_transfer_rejects_negative_rate_cap():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    with pytest.raises(ValueError):
        net.transfer("a", "b", size=10.0, rate_cap=-5.0)


def test_transfer_accepts_positive_rate_cap():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    done = net.transfer("a", "b", size=10.0, rate_cap=10.0)
    env.run(until=done)
    assert env.now == pytest.approx(1.0)


# -- remove_node abort coalescing (bugfix) ------------------------------------

def test_remove_node_coalesces_aborts_into_one_pass():
    env = Environment()
    net = make_net(env)
    for i in range(6):
        net.add_node(NetNode(f"src-{i}"))
    net.add_node(NetNode("sink"))
    dones = []
    for i in range(6):
        done = net.transfer(f"src-{i}", "sink", size=1000.0)
        done.defused()  # we expect the aborts; don't crash the run
        dones.append(done)
    env.run(until=0.1)
    before = net.reallocations
    net.remove_node("sink")
    env.run(until=0.2)
    # All six aborts coalesced into exactly one water-filling pass.
    assert net.reallocations == before + 1
    for done in dones:
        assert isinstance(done.value, TransferAborted)
    assert not net._flows
    assert net.node_load("sink") == (0.0, 0.0)


# -- incremental vs full recomputation equivalence ----------------------------

def _run_random_mesh(incremental, scalar_max=None, seed=1234, sparse=False):
    """A churny multi-component scenario; returns exact observables.

    *scalar_max* replaces ``_SCALAR_WATERFILL_MAX``, the component size
    up to which a pass (reap, build, solve, diff, aggregates) runs as
    plain loops: ``0`` sends every pass down the array pass, a huge
    value every pass down the scalar one.  *sparse* spreads the flows
    over 40 nodes on 20 sites and spaces every arrival, so that most
    components are one flow alone on its links."""
    import random as _random

    from repro.simulation import network as network_module

    rng = _random.Random(seed)
    env = Environment()
    net = make_net(env, latency=0.0005, backbone_capacity=400.0,
                   incremental=incremental)
    node_count, site_count = (40, 20) if sparse else (10, 3)
    if scalar_max is not None:
        old_max = network_module._SCALAR_WATERFILL_MAX
        network_module._SCALAR_WATERFILL_MAX = scalar_max
    try:
        nodes = []
        for i in range(node_count):
            name = f"n{i}"
            net.add_node(NetNode(name, capacity_out=rng.choice([50.0, 125.0]),
                                 capacity_in=rng.choice([50.0, 125.0]),
                                 site=f"site-{i % site_count}"))
            nodes.append(name)
        net.completion_log = []
        dones = []
        loads = []

        def starter(env):
            for k in range(120):
                src, dst = rng.sample(nodes, 2)
                cap = rng.choice([None, None, 30.0])
                done = net.transfer(src, dst, size=rng.uniform(5.0, 80.0),
                                    rate_cap=cap)
                dones.append(done)
                if sparse or k % 3 == 0:
                    yield env.timeout(rng.uniform(0.0, 0.3))
                    loads.append([net.node_load(name) for name in nodes])
                if k % 40 == 39 and net.flows:
                    victim = rng.choice(net.flows)
                    victim.done.defused()
                    net.abort(victim, reason="churn")

        env.process(starter(env))
        env.run()
        return (env.now, net.total_delivered, net.reallocations,
                net.realloc_flow_slots,
                env.events_processed, loads, list(net.completion_log))
    finally:
        if scalar_max is not None:
            network_module._SCALAR_WATERFILL_MAX = old_max


def _without_slots(observables):
    """Full and incremental passes consider different slot counts."""
    return observables[:3] + observables[4:]


@pytest.mark.parametrize("scalar_max", [None, 0])
def test_incremental_matches_full_bit_identical(scalar_max):
    # Same seed, both recomputation modes: every completion instant, the
    # pass count, the kernel event count, the sampled node loads and the
    # delivered bytes must match *exactly* (==, not approx) — the
    # optimization is invisible.  Once with the usual dispatch and once
    # with every pass forced down the array pass.
    for seed in (7, 99):
        incremental = _run_random_mesh(True, scalar_max, seed=seed)
        full = _run_random_mesh(False, scalar_max, seed=seed)
        assert _without_slots(incremental) == _without_slots(full)


def test_sparse_mesh_rates_lone_flows_in_closed_form_bit_identically(monkeypatch):
    # Most passes of a sparse mesh solve one flow alone on its links in
    # closed form; the always-global pass water-fills every one of them.
    # Events, pass count, node loads and the completion log agree bit
    # for bit.
    lone = []
    pass_lone = FlowNetwork._pass_lone

    def spying(self, now):
        solved = pass_lone(self, now)
        lone.append(solved)
        return solved

    monkeypatch.setattr(FlowNetwork, "_pass_lone", spying)
    for seed in (5, 11):
        lone.clear()
        incremental = _run_random_mesh(True, seed=seed, sparse=True)
        reallocations = incremental[2]
        assert sum(lone) >= reallocations / 2 > 0
        full = _run_random_mesh(False, seed=seed, sparse=True)
        assert _without_slots(incremental) == _without_slots(full)
        assert len(incremental[-1]) == 120


def test_scalar_and_array_pass_bit_identical():
    # Force every pass down the scalar pass vs. every pass down the
    # array pass: simulated results must agree bit-for-bit, and so must
    # the solver workload (same components, same flows).
    for seed in (3, 42):
        scalar = _run_random_mesh(True, scalar_max=10**9, seed=seed)
        array = _run_random_mesh(True, scalar_max=0, seed=seed)
        assert scalar == array
        assert len(scalar[-1]) == 120


# -- the remembered component equals the walk ----------------------------------

def _component_of(net, rid):
    """The shareable resources connected to *rid*: a walk of its own."""
    seen, stack = {rid}, [rid]
    while stack:
        for other in net._res_adj[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def _run_marked_mesh(seed, grid):
    """Two groups on two sites, each of 6 writers, 4 sinks and a
    collector: bulk flows mostly within a group and now and then across
    (over the backbone, bridging the groups), monitoring-sized batches
    to the group's collector, and churn: aborts, a sink removed and
    re-added, and a NIC degraded with ``refresh()``.  With *grid* the
    writers act on a 0.1 s grid, so one pass often starts from both
    groups.  Returns exact observables."""
    import random as _random

    rng = _random.Random(seed)
    env = Environment()
    net = make_net(env, latency=0.0005, backbone_capacity=300.0)
    net.blackhole_missing = True  # writers keep sending to the removed sink
    writers = [f"w{i}" for i in range(12)]
    sinks = [f"s{i}" for i in range(8)]
    for i, name in enumerate(writers + sinks + ["mon0", "mon1"]):
        net.add_node(NetNode(name, capacity_out=rng.choice([50.0, 125.0]),
                             capacity_in=rng.choice([50.0, 125.0]),
                             site=f"site-{i % 2}"))
    net.completion_log = []
    loads = []

    def writer(env, i):
        name, group = writers[i], i % 2
        for _ in range(12):
            if grid:
                yield env.timeout(rng.choice([0.1, 0.2, 0.3]))
            else:
                yield env.timeout(rng.uniform(0.0, 0.4))
            for _ in range(rng.choice([1, 1, 2, 3])):
                side = group if rng.random() < 0.95 else 1 - group
                net.transfer(name, rng.choice(sinks[side::2]),
                             rng.uniform(5.0, 60.0)).defused()
            if rng.random() < 0.6:
                net.transfer(name, f"mon{group}", 0.0004).defused()

    def churn(env):
        for k in range(16):
            yield env.timeout(0.35)
            loads.append([net.node_load(name) for name in writers + sinks])
            flows = net.flows
            if flows and k % 2 == 0:
                net.abort(rng.choice(flows), reason="churn")
            if k == 5:
                net.remove_node("s3")
            if k == 7:
                net.add_node(NetNode("s3", capacity_in=80.0, capacity_out=80.0,
                                     site="site-1"))
            if k == 9:
                net.nodes["s1"].capacity_in /= 2
                net.refresh()

    for i in range(len(writers)):
        env.process(writer(env, i))
    env.process(churn(env))
    env.run()
    return (env.now, net.total_delivered, net.reallocations,
            net.realloc_flow_slots, env.events_processed, loads,
            list(net.completion_log))


@pytest.mark.parametrize("scalar_max", [None, 4])
def test_the_remembered_component_is_what_a_walk_finds(monkeypatch, scalar_max):
    # Joins (bulk and monitoring-sized), leaf departures (a batch leaving
    # a writer's uplink), bridge departures (the last flow between two
    # busy NICs), aborts, a removed node and a refresh(): at every pass
    # the mark is exactly one component, and whenever a pass takes its
    # slots from the mark they are the ones a fresh walk collects.
    from repro.simulation import network as network_module

    if scalar_max is not None:
        monkeypatch.setattr(network_module, "_SCALAR_WATERFILL_MAX", scalar_max)
    taken, dropped = [], {"join": 0, "split": 0}
    marked_slots = FlowNetwork._marked_slots
    join_mark, split_mark = FlowNetwork._join_mark, FlowNetwork._split_mark

    def checking(self):
        marked = set(np.flatnonzero(self._marked).tolist())
        if marked:
            assert _component_of(self, min(marked)) == marked
        slots = marked_slots(self)
        if slots is not None:
            walked, component = self._dirty_component_slots()
            assert sorted(slots.tolist()) == sorted(walked)
            assert component == marked
            taken.append(len(walked))
        return slots

    def counting(method, kind):
        def wrapped(self, rids):
            before = self._marked.any()
            method(self, rids)
            dropped[kind] += bool(before and not self._marked.any())
        return wrapped

    monkeypatch.setattr(FlowNetwork, "_marked_slots", checking)
    monkeypatch.setattr(FlowNetwork, "_join_mark", counting(join_mark, "join"))
    monkeypatch.setattr(FlowNetwork, "_split_mark", counting(split_mark, "split"))
    for seed, grid in ((1, False), (2, False), (2, True), (4, True)):
        taken.clear()
        marked = _run_marked_mesh(seed, grid)
        assert len(taken) >= 20, taken
        # The same run with the mark switched off walks every pass.
        with monkeypatch.context() as off:
            off.setattr(FlowNetwork, "_marked_slots", lambda self: None)
            walked = _run_marked_mesh(seed, grid)
        assert marked == walked
    assert dropped["join"] > 0 and dropped["split"] > 0, dropped


def test_a_leaf_leaving_the_mark_idles_its_nic_and_keeps_the_mark(monkeypatch):
    # A batch from a bulk writer's uplink to a collector leaves the
    # marked 20-flow component: the collector's downlink goes idle but
    # keeps its id (it is its node's), and the rest stays connected
    # through the writer's uplink.  The no-split test counts resources
    # that still have members, not resources that have an id, so the
    # mark stays, and the next batch's passes take their slots from it.
    env = Environment()
    net = make_net(env)
    for name in ["a", "m", "n"] + [f"b{i}" for i in range(20)]:
        net.add_node(NetNode(name, capacity_out=100.0, capacity_in=100.0))
    for i in range(20):
        net.transfer("a", f"b{i}", 1000.0)
    bulk = {net._nic["a"][0]} | {net._nic[f"b{i}"][1] for i in range(20)}
    seen = {}

    def batches():
        yield env.timeout(1.0)
        yield net.transfer("a", "m", 0.0004)
        collector = net._nic["m"][1]
        seen["collector"] = (len(net._res_members[collector]),
                             collector in net._res_adj,
                             net._marked.item(collector))
        seen["mark"] = set(np.flatnonzero(net._marked).tolist())
        walks, taken = [], []
        walk = FlowNetwork._dirty_component_slots
        marked_slots = FlowNetwork._marked_slots
        monkeypatch.setattr(FlowNetwork, "_dirty_component_slots",
                            lambda self: walks.append(1) or walk(self))
        monkeypatch.setattr(FlowNetwork, "_marked_slots",
                            lambda self: taken.append(marked_slots(self)) or taken[-1])
        yield net.transfer("a", "n", 0.0004)
        seen["walks"] = len(walks)
        seen["taken"] = [None if slots is None else slots.size for slots in taken]

    env.process(batches())
    env.run(until=2.0)
    assert seen == {"collector": (0, True, False), "mark": bulk, "walks": 0,
                    "taken": [21, 21]}


# -- an endpoint that dies during the propagation delay (bugfix) --------------

def _send_then_remove(blackhole, readd=False):
    env = Environment()
    net = make_net(env, latency=0.25)
    net.blackhole_missing = blackhole
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    net.completion_log = []
    done = net.transfer("a", "b", 100.0)
    done.defused()

    def crash(env):
        yield env.timeout(0.1)
        net.remove_node("b")
        if readd:
            net.add_node(NetNode("b"))  # "recovered" with a fresh NIC

    env.process(crash(env))
    env.run()
    return env, net, done


@pytest.mark.parametrize("readd", [False, True])
def test_flow_is_not_admitted_onto_a_node_that_died_while_it_propagated(readd):
    # The payload used to "arrive" at the dead host, limited only by the
    # sender's uplink, and resurrect the node's aggregate entry.
    env, net, done = _send_then_remove(blackhole=False, readd=readd)
    assert done.triggered and not done.ok
    assert isinstance(done.value, TransferAborted)
    assert "node b removed" in done.value.reason
    assert net.completion_log == [("abort", 1, 0.25)]
    assert net.reallocations == 0 and net.total_delivered == 0.0
    # The live nodes' NIC ids, none with a member: b's old pair was
    # recycled (and the recovered b minted its own).
    assert_ids_owned(net)
    assert not any(net._res_members.values())
    assert len(net._free_res) == (0 if readd else 2)
    assert not net._load.any()
    assert net.node_load("a") == net.node_load("b") == (0.0, 0.0)


def test_flow_to_a_node_that_died_while_it_propagated_is_blackholed_when_enabled():
    env, net, done = _send_then_remove(blackhole=True)
    assert not done.triggered
    assert net.blackholed_transfers == 1
    assert net.completion_log == [] and not net._flows and not net._pending
    # a's two NIC ids, no member; b's pair recycled.
    assert_ids_owned(net)
    assert not any(net._res_members.values())
    assert len(net._free_res) == 2
    assert not net._load.any()
    assert net.node_load("a") == (0.0, 0.0)


def test_abort_reaches_a_flow_still_in_its_propagation_delay():
    # A payload sent just before a cut used to escape it: a flow in its
    # propagation delay was in no table an abort looked at.
    env = Environment()
    net = make_net(env, latency=0.01)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    net.completion_log = []
    done = net.transfer("a", "b", 10.0)
    aborted = []

    def cut(env):
        yield env.timeout(0.005)
        aborted.append(net.abort_matching(lambda f: True, reason="cut"))

    def waiter(env):
        try:
            yield done
        except TransferAborted as exc:
            return exc.reason
        return "delivered"

    env.process(cut(env))
    outcome = env.process(waiter(env))
    env.run()
    assert aborted == [1] and outcome.value == "cut"
    assert net.completion_log == [("abort", 1, 0.005)]
    assert net.reallocations == 0 and net.total_delivered == 0.0
    assert not net._flows and not net._pending
    # Only a's and b's NIC ids, minted when they joined; no member.
    assert_ids_owned(net)
    assert not any(net._res_members.values())
    assert len(net._res_key) == 1 + 4 and not net._free_res


# -- the capacity column: read at mint and by refresh() -----------------------

def _degrade_a_mid_flow(destinations):
    """125 MB from a to each destination on 125 MB/s NICs; a's NIC is
    halved by a gray failure at t=0.5.  Returns the completion times."""
    testbed = Testbed(TestbedConfig(latency_local_s=0.0))
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    for name in destinations:
        testbed.add_node(name)
    env, net = testbed.env, testbed.net
    dones = [net.transfer("a", name, 125.0) for name in destinations]

    def degrade(env):
        yield env.timeout(0.5)
        injector.degrade_nic(a, bandwidth_factor=0.5)

    env.process(degrade(env))
    env.run()
    return [done.value.finished_at for done in dones]


def test_a_degraded_nic_rates_a_lone_flow_at_the_new_capacity():
    # 62.5 MB at 125 MB/s, then the other 62.5 at 62.5 MB/s.
    assert _degrade_a_mid_flow(["b"]) == [1.5]


def test_a_degraded_nic_rates_a_shared_component_at_the_new_capacity():
    # Two flows share a's uplink: 31.25 MB each at 62.5, then 93.75
    # each at 31.25.
    assert _degrade_a_mid_flow(["b", "c"]) == [3.5, 3.5]


def test_a_node_readded_with_another_nic_mints_its_new_capacity():
    env = Environment()
    net = make_net(env)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    first = net.transfer("a", "b", 1000.0)
    first.defused()
    seen = {}

    def churn(env):
        yield env.timeout(0.5)
        net.remove_node("b")
        net.add_node(NetNode("b", capacity_in=25.0))
        second = net.transfer("a", "b", 50.0)
        yield env.timeout(0.0)
        seen["cap"] = net._cap.item(net._res_id["in", "b"])
        flow = yield second
        seen["finished_at"] = flow.finished_at

    env.process(churn(env))
    env.run()
    assert isinstance(first.value, TransferAborted)
    assert seen == {"cap": 25.0, "finished_at": 0.5 + 50.0 / 25.0}


def test_an_idle_nic_degraded_and_restored_rates_its_next_flow_at_each():
    # Capacity is read when a node joins and by refresh(), nowhere else:
    # a NIC degraded while idle keeps its id, so only the refresh that
    # degrade_nic / restore_nic make lets its next flow see the change.
    testbed = Testbed(TestbedConfig(latency_local_s=0.0))
    injector = FaultInjector(testbed)
    a = testbed.add_node("a")
    testbed.add_node("b")
    env, net = testbed.env, testbed.net
    durations = []

    def flows():
        for step in (lambda: injector.degrade_nic(a, bandwidth_factor=0.5),
                     lambda: injector.restore_nic(a)):
            step()
            start = env.now
            yield net.transfer("a", "b", 125.0)
            durations.append((net._cap.item(net._nic["a"][0]), env.now - start))

    env.process(flows())
    env.run()
    assert durations == [(62.5, 2.0), (125.0, 1.0)]


# -- a NIC's resource ids are its node's ---------------------------------------

def test_a_node_owns_its_nic_ids_from_join_to_removal():
    env = Environment()
    net = make_net(env, latency=0.1)
    net.add_node(NetNode("a"))
    stale = net.add_node(NetNode("b", capacity_out=80.0, capacity_in=50.0))
    net.add_node(NetNode("c"))
    old = net._nic["b"]
    assert net._cap[list(old)].tolist() == [80.0, 50.0]
    seen = {}

    def run():
        to_b = net.transfer("a", "b", 1000.0)
        net.transfer("a", "c", 1000.0).defused()
        yield env.timeout(0.5)
        # a's uplink is shared, 50 to b (its downlink's capacity) and 75
        # to c; an abort's rate leaves the aggregates at once, before the
        # pass it schedules.
        seen["shared"] = net.node_load("a"), net.node_load("b")
        net.abort(net.flows[1], "churn")
        seen["aborted"] = net.node_load("a"), net.node_load("c")
        yield env.timeout(0.5)
        to_b.defused()
        net.remove_node("b")  # aborts to_b; b's two ids are recycled
        seen["removed"] = (net.node_load("b"), "b" in net._nic,
                           [net._res_key[rid] for rid in old],
                           set(old) <= set(net._free_res))
        assert isinstance(to_b.value, TransferAborted)
        # A stale NetNode is black-holed, or aborted at admission.
        net.blackhole_missing = True
        lost = net.transfer("a", stale, 10.0)
        net.blackhole_missing = False
        with pytest.raises(KeyError):
            net.transfer("a", "b", 10.0)
        try:
            yield net.transfer("a", stale, 10.0)
        except TransferAborted as exc:
            seen["stale"] = (exc.reason, lost.triggered, net.blackholed_transfers)
        # Recovered with another NIC: fresh ids carrying its capacities.
        net.add_node(NetNode("b", capacity_out=30.0, capacity_in=20.0))
        new = net._nic["b"]
        seen["recovered"] = net._cap[list(new)].tolist()
        flow = yield net.transfer("a", "b", 20.0)
        seen["duration"] = flow.finished_at - flow.started_at

    env.process(run())
    env.run()
    assert seen == {
        "shared": ((125.0, 0.0), (0.0, 50.0)),
        "aborted": ((50.0, 0.0), (0.0, 0.0)),
        "removed": ((0.0, 0.0), False, [None, None], True),
        "stale": ("node b removed", False, 1),
        "recovered": [30.0, 20.0],
        "duration": 0.1 + 20.0 / 20.0,
    }
    assert_ids_owned(net)
    assert not any(net._res_members.values())


# -- bounded tables: slots and resource ids are recycled ----------------------

def test_slot_and_resource_tables_stay_bounded_by_peak_concurrency():
    env = Environment()
    net = make_net(env, latency=0.0005, backbone_capacity=500.0)
    lanes = 8
    for i in range(lanes):
        net.add_node(NetNode(f"s{i}", site=f"site-{i % 2}"))
        net.add_node(NetNode(f"d{i}", site=f"site-{(i + 1) % 2}"))
    high_water = {"slots": 0, "columns": 0, "resources": 0}

    def lane(env, i):
        for k in range(10_000 // lanes):
            yield net.transfer(f"s{i}", f"d{(i + k) % lanes}", size=1.0 + k % 3,
                               rate_cap=40.0)
            high_water["slots"] = max(high_water["slots"], len(net._slot_flow))
            high_water["columns"] = max(high_water["columns"], len(net._rate))
            # Id 0 ("no such resource") is reserved, not minted.
            high_water["resources"] = max(high_water["resources"],
                                          len(net._res_key) - 1)
            assert_ids_owned(net)

    for i in range(lanes):
        env.process(lane(env, i))
    env.run()
    assert not net._flows and net.total_delivered > 10_000
    # Each flow holds one slot; ids are each node's uplink and downlink,
    # one private cap per concurrent flow and the one backbone.
    assert high_water["slots"] <= lanes
    assert high_water["columns"] <= 4 * lanes
    assert high_water["resources"] <= 2 * len(net.nodes) + lanes + 1
    assert len(net._free_slots) == len(net._slot_flow)
    # Drained: only the nodes' NIC ids are left, with no member, no
    # neighbour and no aggregate; every other id but 0 is free.
    assert_ids_owned(net)
    assert len(net._free_res) == len(net._res_key) - 1 - 2 * len(net.nodes)
    assert not any(net._res_members.values()) and not any(net._res_adj.values())
    for table in (net._dirty, net._flows, net._pending):
        assert not table
    assert not any(net._slot_flow)
    assert not net._load.any()
    assert all(net.node_load(name) == (0.0, 0.0) for name in net.nodes)


# -- zero-payload control messages: one kernel event, every fault still applies -
def two_nodes(latency=0.25):
    env = Environment()
    net = make_net(env, latency=latency)
    net.add_node(NetNode("a"))
    net.add_node(NetNode("b"))
    return env, net


def test_zero_payload_transfer_is_exactly_one_kernel_event():
    env, net = two_nodes()
    done = net.transfer("a", "b", 0.0)
    assert env.events_processed == 0
    env.run()
    assert env.events_processed == 1
    assert done.processed and done.value is None
    assert env.now == pytest.approx(0.25)
    assert not net._flows and net.reallocations == 0


def test_message_sent_before_a_same_instant_timeout_is_delivered_first():
    """The ordering rule of the single-event path: a message keeps its
    heap sequence number from send time, so it beats anything scheduled
    after the send that lands on the same instant."""
    env, net = two_nodes(latency=0.25)
    order = []
    net.message("a", "b").callbacks.append(lambda _e: order.append("first message"))
    env.timeout(0.25).callbacks.append(lambda _e: order.append("timeout"))
    net.message("a", "b").callbacks.append(lambda _e: order.append("second message"))
    env.run()
    assert order == ["first message", "timeout", "second message"]


def test_zero_payload_to_missing_node_raises_keyerror_by_default():
    _env, net = two_nodes()
    with pytest.raises(KeyError):
        net.transfer("a", "ghost", 0.0)
    with pytest.raises(KeyError):
        net.message("ghost", "b")


def test_zero_payload_to_missing_or_stale_node_blackholes_when_enabled():
    env, net = two_nodes()
    net.blackhole_missing = True
    stale = net.node("b")
    net.remove_node("b")
    net.add_node(NetNode("b"))  # "recovered" with a fresh NIC
    missing = net.transfer("a", "ghost", 0.0)
    to_stale = net.transfer("a", stale, 0.0)
    live = net.transfer("a", "b", 0.0)
    env.run()
    assert not missing.triggered and not to_stale.triggered
    assert live.processed
    assert net.blackholed_transfers == 2
    assert env.events_processed == 1


@pytest.mark.parametrize("kwargs", [{"size": -1.0}, {"size": 1.0, "rate_cap": 0.0},
                                    {"size": 0.0, "rate_cap": -5.0}])
def test_bad_arguments_raise_even_when_the_transfer_would_be_lost(kwargs):
    """Regression: validation used to run after the black-hole /
    partition / loss early returns, so a bad call to an unreachable node
    silently returned a never-firing event."""

    class LoseEverything:
        def on_transfer(self, src, dst):
            return None

    env, net = two_nodes()
    with pytest.raises(ValueError):
        net.transfer("a", "b", **kwargs)
    net.fault_model = LoseEverything()
    with pytest.raises(ValueError):
        net.transfer("a", "b", **kwargs)
    net.fault_model = None
    net.blackhole_missing = True
    with pytest.raises(ValueError):
        net.transfer("a", "ghost", **kwargs)
    assert net.blackholed_transfers == 0
