"""Property-based tests for the max-min fair bandwidth allocator.

Invariants checked over randomized topologies and flow sets:

1. **Capacity**: no node's aggregate in/out rate exceeds its NIC.
2. **Per-flow cap**: no flow exceeds its rate cap.
3. **Work conservation / max-min**: every flow is bottlenecked somewhere
   (its rate cannot be increased without violating a constraint).
4. **Conservation of bytes**: total delivered equals total injected once
   all flows finish.
5. **Determinism**: same inputs, same completion times.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import Environment, FlowNetwork, NetNode

from .test_network import assert_ids_owned


def build(env, node_caps):
    net = FlowNetwork(env, latency=0.0)
    for i, (cin, cout) in enumerate(node_caps):
        net.add_node(NetNode(f"n{i}", capacity_out=cout, capacity_in=cin))
    return net


@st.composite
def topologies(draw):
    node_count = draw(st.integers(2, 6))
    caps = [
        (draw(st.sampled_from([50.0, 100.0, 125.0, 200.0])),
         draw(st.sampled_from([50.0, 100.0, 125.0, 200.0])))
        for _ in range(node_count)
    ]
    flow_count = draw(st.integers(1, 12))
    flows = []
    for _ in range(flow_count):
        src = draw(st.integers(0, node_count - 1))
        dst = draw(st.integers(0, node_count - 1).filter(lambda d: d != src))
        size = draw(st.sampled_from([10.0, 64.0, 128.0, 500.0]))
        cap = draw(st.sampled_from([None, None, 5.0, 40.0]))
        flows.append((src, dst, size, cap))
    return caps, flows


@settings(max_examples=60, deadline=None)
@given(topology=topologies())
def test_rates_respect_all_capacities(topology):
    caps, flows = topology
    env = Environment()
    net = build(env, caps)
    for src, dst, size, cap in flows:
        net.transfer(f"n{src}", f"n{dst}", size, rate_cap=cap)
    # Let flows be admitted and rates assigned, then inspect mid-flight.
    env.run(until=0.001)
    active = net.flows
    for i, (cin, cout) in enumerate(caps):
        out_rate, in_rate = net.node_load(f"n{i}")
        assert out_rate <= cout * (1 + 1e-6)
        assert in_rate <= cin * (1 + 1e-6)
    for flow in active:
        if flow.rate_cap is not None:
            assert flow.rate <= flow.rate_cap * (1 + 1e-6)


@settings(max_examples=60, deadline=None)
@given(topology=topologies())
def test_allocation_is_maximal(topology):
    """No flow can be sped up: each has a saturated constraint."""
    caps, flows = topology
    env = Environment()
    net = build(env, caps)
    for src, dst, size, cap in flows:
        net.transfer(f"n{src}", f"n{dst}", size, rate_cap=cap)
    env.run(until=0.001)
    for flow in net.flows:
        saturated = False
        if flow.rate_cap is not None and flow.rate >= flow.rate_cap * (1 - 1e-6):
            saturated = True
        out_rate, _ = net.node_load(flow.src.name)
        if out_rate >= flow.src.capacity_out * (1 - 1e-6):
            saturated = True
        _, in_rate = net.node_load(flow.dst.name)
        if in_rate >= flow.dst.capacity_in * (1 - 1e-6):
            saturated = True
        assert saturated, flow


@settings(max_examples=40, deadline=None)
@given(topology=topologies())
def test_bytes_conserved_at_completion(topology):
    caps, flows = topology
    env = Environment()
    net = build(env, caps)
    events = [
        net.transfer(f"n{src}", f"n{dst}", size, rate_cap=cap)
        for src, dst, size, cap in flows
    ]
    env.run(until=env.all_of(events))
    env.run(until=env.now + 0.01)
    total = sum(size for _s, _d, size, _c in flows)
    assert net.total_delivered == pytest.approx(total, rel=1e-6)
    assert not net._flows


@settings(max_examples=30, deadline=None)
@given(topology=topologies())
def test_completion_times_deterministic(topology):
    caps, flows = topology

    def run_once():
        env = Environment()
        net = build(env, caps)
        events = [
            net.transfer(f"n{src}", f"n{dst}", size, rate_cap=cap)
            for src, dst, size, cap in flows
        ]
        env.run(until=env.all_of(events))
        return env.now

    assert run_once() == run_once()


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=10),
    capacity=st.sampled_from([50.0, 125.0]),
)
def test_single_bottleneck_equal_split(sizes, capacity):
    """N flows into one sink: the sink is perfectly shared, and total
    completion time equals total bytes / capacity (work conservation)."""
    env = Environment()
    net = FlowNetwork(env, latency=0.0)
    for i in range(len(sizes)):
        net.add_node(NetNode(f"src{i}", capacity_out=1e6))
    net.add_node(NetNode("sink", capacity_in=capacity))
    events = [
        net.transfer(f"src{i}", "sink", size) for i, size in enumerate(sizes)
    ]
    env.run(until=env.all_of(events))
    assert env.now == pytest.approx(sum(sizes) / capacity, rel=1e-6)


def test_granularity_preserves_totals():
    """Coalesced recomputation may defer rate updates but must not lose
    bytes or change totals materially."""
    def run(granularity):
        env = Environment()
        net = FlowNetwork(env, latency=0.0, recompute_granularity_s=granularity)
        net.add_node(NetNode("a", capacity_out=100.0))
        net.add_node(NetNode("b", capacity_out=100.0))
        net.add_node(NetNode("sink", capacity_in=100.0))
        events = [
            net.transfer("a", "sink", 200.0),
            net.transfer("b", "sink", 200.0),
        ]
        env.run(until=env.all_of(events))
        return env.now

    exact = run(0.0)
    coarse = run(0.05)
    assert coarse == pytest.approx(exact, abs=0.2)


# -- rates after every pass equal a textbook water-filling reference ----------

def reference_rates(paths, capacity):
    """Textbook progressive filling.  *paths*: flow -> its resources;
    *capacity*: resource -> MB/s.  Saturate the resource with the
    smallest fair share, fix its flows at that share, repeat."""
    remaining = dict(capacity)
    users = {resource: set() for resource in capacity}
    for flow, path in paths.items():
        for resource in path:
            users[resource].add(flow)
    rates = {}
    while any(users.values()):
        bottleneck = min((r for r in users if users[r]),
                         key=lambda r: remaining[r] / len(users[r]))
        share = remaining[bottleneck] / len(users[bottleneck])
        for flow in list(users[bottleneck]):
            rates[flow] = share
            for resource in paths[flow]:
                remaining[resource] -= share
                users[resource].discard(flow)
    return rates


def _paths_and_capacities(net):
    paths, capacity = {}, {}
    for flow in net.flows:
        path = [("out", flow.src.name), ("in", flow.dst.name)]
        capacity[path[0]] = flow.src.capacity_out
        capacity[path[1]] = flow.dst.capacity_in
        if flow.src.site != flow.dst.site:
            path.append(("bb",))
            capacity[path[-1]] = net.backbone_capacity
        if flow.rate_cap is not None:
            path.append(("cap", flow.fid))
            capacity[path[-1]] = flow.rate_cap
        paths[flow.fid] = path
    return paths, capacity


@st.composite
def churny_worlds(draw):
    node_count = draw(st.integers(3, 12))
    nodes = [
        (draw(st.sampled_from([50.0, 100.0, 125.0, 200.0])),
         draw(st.sampled_from([50.0, 100.0, 125.0, 200.0])),
         draw(st.integers(0, 1)))
        for _ in range(node_count)
    ]
    flow_count = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**16))
    incremental = draw(st.booleans())
    return nodes, flow_count, seed, incremental


@settings(max_examples=25, deadline=None)
@given(world=churny_worlds())
def test_rates_after_every_pass_match_textbook_waterfilling(world):
    """Up to 200 flows with caps and a backbone, aborts and node removals
    mid-run: after each pass every active flow has its max-min rate, and
    the node aggregates are the sums of those rates."""
    nodes, flow_count, seed, incremental = world
    rng = random.Random(seed)
    env = Environment()
    net = FlowNetwork(env, latency=0.001, backbone_capacity=300.0,
                      incremental=incremental)
    for i, (cin, cout, site) in enumerate(nodes):
        net.add_node(NetNode(f"n{i}", capacity_out=cout, capacity_in=cin,
                             site=f"site-{site}"))
    checked = []
    solve = net._reallocate

    def solve_and_check():
        solve()
        paths, capacity = _paths_and_capacities(net)
        expected = reference_rates(paths, capacity)
        for flow in net.flows:
            assert flow.rate == pytest.approx(expected[flow.fid], rel=1e-9)
        for name in net.nodes:
            out_rate = sum(f.rate for f in net.flows if f.src.name == name)
            in_rate = sum(f.rate for f in net.flows if f.dst.name == name)
            assert net.node_load(name) == pytest.approx((out_rate, in_rate))
        checked.append(len(paths))

    net._reallocate = solve_and_check

    def driver(env):
        for k in range(flow_count):
            alive = sorted(net.nodes)
            src, dst = rng.sample(alive, 2)
            net.transfer(src, dst, size=rng.choice([5.0, 20.0, 60.0]),
                         rate_cap=rng.choice([None, None, 7.0, 40.0])).defused()
            if rng.random() < 0.3:
                yield env.timeout(rng.choice([0.0005, 0.05, 0.4]))
            if rng.random() < 0.04 and net.flows:
                net.abort(rng.choice(net.flows), reason="churn")
            if rng.random() < 0.02 and len(net.nodes) > 3:
                net.remove_node(rng.choice(alive))

    env.process(driver(env))
    env.run()
    # Drained: the live nodes' NIC ids are all that is left, none with a
    # member (a removed node's pair was recycled).
    assert not net._flows and not any(net._res_members.values())
    assert_ids_owned(net)
    assert checked
