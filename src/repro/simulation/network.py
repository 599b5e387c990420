"""Flow-level network simulation with max-min fair bandwidth sharing.

Real testbeds (the paper used Grid'5000) share NIC and backbone bandwidth
among concurrent transfers.  This module reproduces that behaviour at the
*flow* level: each transfer is a flow constrained by the sender's uplink,
the receiver's downlink, an optional inter-site backbone, and an optional
per-flow rate cap.  Rates follow the classic max-min fair (water-filling)
allocation and are recomputed on every flow arrival/departure — the
standard approximation used by storage-system simulators, accurate for
long-lived bulk transfers like BlobSeer chunk writes.

Performance notes (this is the simulator's hot path):

- rate recomputations are *batched per timestamp*: any number of flow
  arrivals/departures at the same simulated instant trigger exactly one
  water-filling pass;
- recomputation is **incremental**: the flow×resource incidence is kept
  persistently (per-resource member sets updated on admit/finish/abort),
  changed resources go into a dirty-set, and a pass only re-solves the
  connected component(s) of the resource–flow bipartite graph touched by
  a change.  This is *exact*, not approximate: flows in disjoint
  components never share a bottleneck, and the water-filling rounds of
  one component perform arithmetic only on that component's resources,
  so recomputing a component in isolation yields bit-identical rates to
  a global pass.  (The one theoretical caveat: the round-batching
  tolerance of ``1e-9`` relative could merge *near*-tied — not exactly
  tied — bottleneck values across components in a global pass; exact
  ties, the overwhelmingly common case, batch identically either way.
  ``incremental=False`` restores the always-global pass for A/B runs;
  the kernel determinism suite asserts byte-identical results.)
- flow progress is **anchor-based**, not drained per pass: each flow
  stores ``(remaining, anchor_time)`` as of its last rate change and
  its current remaining is the linear projection from that anchor, so
  a reallocation touches only the flows whose rates actually change —
  there is no O(flows) byte-draining loop per event;
- per-node aggregate in/out rates are maintained alongside the member
  sets, making :meth:`node_load` (polled every monitoring interval for
  every node) O(1) instead of an O(flows) scan;
- completion wake-ups come from a *completion-horizon heap* of
  ``(eta, fid, epoch)`` entries (stale entries skipped lazily) instead
  of an O(flows) min-scan after every pass, scheduled through the
  kernel's :meth:`Environment.call_at` bare-callback fast path;
- the water-filling pass itself is vectorized with numpy for large
  components (with scratch buffers reused across passes) and runs a
  bit-identical scalar path for small components where numpy dispatch
  overhead dominates;
- a zero-payload control message is **one kernel event**: it never
  touches any of the above.  :meth:`FlowNetwork.message` (which
  :meth:`FlowNetwork.transfer` delegates to for ``size == 0``) resolves
  the endpoints, consults the fault model, and puts one pre-triggered
  event on the heap at ``now + latency`` — no :class:`Flow`, no flow id,
  no delivery callback.  Ordering rule: the event keeps its heap
  sequence number from *send* time, so at an equal instant a message is
  delivered before anything scheduled after it was sent; messages among
  themselves arrive in send order.

Units convention (repo-wide): sizes in **MB**, rates in **MB/s**,
time in **seconds**.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .engine import Environment
from .events import Event, Timeout

__all__ = ["NetNode", "Flow", "FlowNetwork", "TransferAborted"]

#: Bytes-remaining below this are considered "done" (guards float drift).
_EPSILON = 1e-9

#: Component sizes up to this use the scalar water-filling path (numpy
#: dispatch overhead dominates below it).  Both paths are bit-identical.
_SCALAR_WATERFILL_MAX = 16


class TransferAborted(Exception):
    """Raised to waiters when a flow is cancelled (e.g. client blocked)."""

    def __init__(self, flow: "Flow", reason: str = "") -> None:
        super().__init__(reason or f"transfer {flow!r} aborted")
        self.flow = flow
        self.reason = reason


class NetNode:
    """A network endpoint with finite NIC capacities.

    ``capacity_out`` bounds the sum of rates of flows *leaving* the node,
    ``capacity_in`` bounds flows *entering* it.
    """

    __slots__ = ("name", "capacity_out", "capacity_in", "site")

    def __init__(
        self,
        name: str,
        capacity_out: float = 125.0,
        capacity_in: float = 125.0,
        site: str = "site-0",
    ) -> None:
        if capacity_out <= 0 or capacity_in <= 0:
            raise ValueError("NIC capacities must be positive")
        self.name = name
        self.capacity_out = float(capacity_out)
        self.capacity_in = float(capacity_in)
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetNode({self.name!r}, out={self.capacity_out}, "
            f"in={self.capacity_in}, site={self.site!r})"
        )


class Flow:
    """One in-flight bulk transfer.

    Progress is anchor-based: ``_rem`` is the bytes that remained at
    simulation time ``_anchor`` (the flow's last rate change), and the
    live :attr:`remaining` is the linear projection from there.  The
    anchor moves *only* when the rate actually changes, which keeps the
    float arithmetic independent of how many unrelated reallocation
    passes happen while the flow streams at a constant rate.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "size",
        "rate",
        "rate_cap",
        "done",
        "started_at",
        "finished_at",
        "tag",
        "_rem",
        "_anchor",
        "_epoch",
        "_eta",
        "_resources",
        "_span",
    )

    def __init__(
        self,
        fid: int,
        src: NetNode,
        dst: NetNode,
        size: float,
        done: Event,
        rate_cap: Optional[float] = None,
        tag: Optional[str] = None,
        started_at: float = 0.0,
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.rate = 0.0
        self.rate_cap = rate_cap
        self.done = done
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.tag = tag
        #: Bytes remaining as of :attr:`_anchor` (see class docstring).
        self._rem = float(size)
        self._anchor = started_at
        #: Bumped whenever the rate is re-assigned; guards stale
        #: completion-heap entries.
        self._epoch = 0
        #: The completion time of the live heap entry, or None.
        self._eta: Optional[float] = None
        #: Cached resource keys, filled when the flow is admitted.
        self._resources: Tuple[tuple, ...] = ()
        #: Telemetry span covering the transfer (None when tracing is off).
        self._span = None

    def _remaining_at(self, now: float) -> float:
        """Bytes remaining at time *now* (kernel-internal hot path)."""
        rate = self.rate
        if rate <= 0.0:
            return self._rem
        rem = self._rem - rate * (now - self._anchor)
        return rem if rem > 0.0 else 0.0

    @property
    def remaining(self) -> float:
        """Bytes remaining right now (live projection from the anchor)."""
        return self._remaining_at(self.done.env.now)

    @property
    def transferred(self) -> float:
        return self.size - self.remaining

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow #{self.fid} {self.src.name}->{self.dst.name} "
            f"{self._rem:.2f}/{self.size:.2f}MB @ {self.rate:.2f}MB/s>"
        )


class FlowNetwork:
    """Max-min fair bandwidth sharing over a set of :class:`NetNode`.

    Cross-site flows additionally contend on a per-site-pair backbone
    resource when ``backbone_capacity`` is finite, matching the multi-site
    Grid'5000 deployments in the paper.
    """

    def __init__(
        self,
        env: Environment,
        latency: float | Callable[[NetNode, NetNode], float] = 0.0005,
        backbone_capacity: float = float("inf"),
        recompute_granularity_s: float = 0.0,
        incremental: bool = True,
    ) -> None:
        self.env = env
        #: Minimum spacing between water-filling passes.  0 = exact
        #: (recompute at every change instant); a few milliseconds trades
        #: negligible rate staleness for large speedups under flow churn.
        self.recompute_granularity_s = recompute_granularity_s
        self._last_realloc = -float("inf")
        self.nodes: Dict[str, NetNode] = {}
        #: Active flows, insertion-ordered by fid (determinism!).
        self._flows: Dict[int, Flow] = {}
        self._latency = latency
        self.backbone_capacity = float(backbone_capacity)
        self._fid = itertools.count(1)
        self._timer_token = 0
        self._recompute_pending = False
        #: When False, every pass re-solves the whole flow set (the
        #: pre-incremental "old path" semantics) — kept for A/B
        #: determinism tests and kernel benchmarks.
        self.incremental = incremental
        #: Persistent flow×resource incidence: resource key -> {fid: Flow},
        #: insertion-ordered (determinism of member iteration).
        self._res_members: Dict[tuple, Dict[int, Flow]] = {}
        #: Resources whose membership/capacity changed since the last pass.
        self._dirty: Set[tuple] = set()
        self._dirty_all = False
        #: Maintained per-node aggregate rates: O(1) node_load().
        self._node_out: Dict[str, float] = {}
        self._node_in: Dict[str, float] = {}
        #: Completion-horizon heap of (eta, fid, epoch); stale entries
        #: (epoch mismatch / finished flow) are skipped lazily.
        self._completion_heap: List[Tuple[float, int, int]] = []
        #: Reusable numpy scratch buffers for the water-filling pass.
        self._np_bufs: Dict[str, np.ndarray] = {}
        #: When True, transfers addressed to a node that is absent from
        #: the topology (crashed/removed) are silently black-holed: the
        #: returned event never triggers, like packets to a dead host.
        #: Default False preserves the original KeyError behaviour (and
        #: byte-identical seeded runs); failure-detector deployments
        #: enable it so that death is only observable via timeouts.
        self.blackhole_missing = False
        #: Optional fault-model hook (see FaultInjector): consulted on
        #: every transfer via ``on_transfer(src, dst) -> float | None``.
        #: None = message lost (partition/loss); a float scales latency
        #: (gray NIC degradation).  Stays None unless faults are armed.
        self.fault_model = None
        #: Transfers swallowed by black-holing or the fault model.
        self.blackholed_transfers = 0
        #: MB delivered by flows that already finished or aborted; the
        #: :attr:`total_delivered` property adds in-flight progress.
        self._delivered_done = 0.0
        #: Count of water-filling passes (perf introspection).
        self.reallocations = 0
        #: Total flow slots considered across all passes — the actual
        #: solver workload.  Incremental passes consider only the dirty
        #: component(s); full passes consider every active flow.
        self.realloc_flow_slots = 0
        #: Test hook: set to a list to log ("finish"|"abort", fid, time)
        #: for every flow terminal event (the determinism suite diffs it).
        self.completion_log: Optional[List[tuple]] = None

    # -- topology -------------------------------------------------------------
    def add_node(self, node: NetNode) -> NetNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> NetNode:
        return self.nodes[name]

    @property
    def flows(self) -> List[Flow]:
        """Snapshot of active flows (ordered by admission)."""
        return list(self._flows.values())

    @property
    def total_delivered(self) -> float:
        """Cumulative MB delivered, including in-flight progress."""
        now = self.env.now
        delivered = self._delivered_done
        for flow in self._flows.values():
            delivered += flow.size - flow._remaining_at(now)
        return delivered

    def remove_node(self, name: str) -> None:
        """Remove a node, aborting any flows touching it.

        Doom discovery uses the per-node member sets (O(node degree),
        not O(flows)), and the aborts coalesce into a single
        reallocation pass via the usual recompute marker.
        """
        node = self.nodes.pop(name)
        candidates: Dict[int, Flow] = {}
        for key in (("out", name), ("in", name)):
            members = self._res_members.get(key)
            if members:
                candidates.update(members)
        doomed = [
            candidates[fid]
            for fid in sorted(candidates)
            if candidates[fid].src is node or candidates[fid].dst is node
        ]
        for flow in doomed:
            self.abort(flow, reason=f"node {name} removed")
        self._node_out.pop(name, None)
        self._node_in.pop(name, None)

    def latency_between(self, src: NetNode, dst: NetNode) -> float:
        if callable(self._latency):
            return self._latency(src, dst)
        return float(self._latency)

    # -- transfers --------------------------------------------------------------
    def transfer(
        self,
        src: NetNode | str,
        dst: NetNode | str,
        size: float,
        rate_cap: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> Event:
        """Start a transfer; the returned event succeeds with the Flow
        when the last byte arrives (propagation latency included).  A
        zero-payload transfer is a control :meth:`message`.

        Addressing a node missing from the topology raises ``KeyError``
        unless :attr:`blackhole_missing` is set, in which case the event
        simply never triggers (callers need timeouts to notice)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if rate_cap is not None and rate_cap <= 0:
            # A zero/negative cap would enter the water-filling as a
            # zero- or negative-capacity resource and corrupt the
            # shares of every flow in its component.
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        if size <= _EPSILON:
            return self.message(src, dst)
        route = self._route(src, dst)
        if route is None:
            return self._black_hole()
        src, dst, delay = route
        done = self.env.event()
        flow = Flow(
            next(self._fid), src, dst, size, done,
            rate_cap=rate_cap, tag=tag, started_at=self.env.now,
        )
        tracer = self.env.tracer
        if tracer.enabled:
            flow._span = tracer.begin(
                "net.flow", track=src.name, cat="net", detached=True,
                fid=flow.fid, src=src.name, dst=dst.name,
                size_mb=size, tag=tag,
            )
        self.env.call_later(delay, lambda _ev: self._admit(flow))
        return done

    def message(self, src: NetNode | str, dst: NetNode | str) -> Event:
        """A zero-payload control message: latency only, one kernel event.

        The returned event is a :class:`Timeout` of the propagation
        latency — born triggered (value ``None``), on the heap at
        ``now + latency``: no :class:`Flow`, no flow id, no delivery
        callback.  It therefore carries its heap sequence number from
        *send* time, so among events landing on the same instant a
        message is delivered before anything scheduled after it was sent
        (e.g. a timeout armed right after the send); the relative order
        among messages is send order.  Control messages get no
        ``net.flow`` span either: the RPC spans cover them and they
        would flood the trace.
        """
        route = self._route(src, dst)
        if route is None:
            return self._black_hole()
        return Timeout(self.env, route[2])

    def abort(self, flow: Flow, reason: str = "") -> None:
        """Cancel an in-flight flow; its waiter sees :class:`TransferAborted`."""
        if flow.fid not in self._flows:
            return
        now = self.env.now
        rem = flow._remaining_at(now)
        flow._rem = rem
        flow._anchor = now
        del self._flows[flow.fid]
        self._detach(flow, dirty=True)
        self._delivered_done += flow.size - rem
        flow._epoch += 1
        flow._eta = None
        flow.rate = 0.0
        if flow._span is not None:
            flow._span.finish(aborted=True, reason=reason,
                              transferred_mb=flow.size - rem)
            flow._span = None
        if self.completion_log is not None:
            self.completion_log.append(("abort", flow.fid, now))
        if not flow.done.triggered:
            flow.done.fail(TransferAborted(flow, reason))
        self._schedule_recompute()

    def abort_matching(self, predicate: Callable[[Flow], bool], reason: str = "") -> int:
        """Abort all flows matching *predicate*; returns how many."""
        doomed = [f for f in self._flows.values() if predicate(f)]
        for flow in doomed:
            self.abort(flow, reason)
        return len(doomed)

    def refresh(self) -> None:
        """Recompute flow rates after external capacity changes.

        Call after mutating a node's NIC capacities (e.g. gray-failure
        NIC degradation) so in-flight flows see the new bottlenecks.
        External capacity edits aren't tracked by the dirty-set, so the
        next pass re-solves everything.
        """
        self._dirty_all = True
        self._schedule_recompute()

    # -- internals -----------------------------------------------------------
    def _route(
        self, src: NetNode | str, dst: NetNode | str
    ) -> Optional[Tuple[NetNode, NetNode, float]]:
        """Resolve the endpoints and consult the fault model: the
        ``(src, dst, propagation delay)`` of a send, or None when it is
        lost (dead or stale endpoint, partition, probabilistic loss)."""
        nodes = self.nodes
        try:
            if isinstance(src, str):
                src = nodes[src]
            if isinstance(dst, str):
                dst = nodes[dst]
        except KeyError:
            if not self.blackhole_missing:
                raise
            return None
        if self.blackhole_missing and (
            nodes.get(src.name) is not src or nodes.get(dst.name) is not dst
        ):
            # Stale NetNode reference: the node crashed (and possibly
            # recovered with a fresh NIC) since the caller captured it.
            return None
        latency_scale = 1.0
        if self.fault_model is not None:
            latency_scale = self.fault_model.on_transfer(src, dst)
            if latency_scale is None:
                # Partitioned or probabilistically lost.
                return None
        delay = self.latency_between(src, dst)
        if latency_scale != 1.0:
            delay *= latency_scale
        return src, dst, delay

    def _black_hole(self) -> Event:
        """An event that never triggers: the message vanished."""
        self.blackholed_transfers += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("net.blackholed_transfers").inc()
        return self.env.event()

    def _admit(self, flow: Flow) -> None:
        flow._anchor = self.env.now
        self._flows[flow.fid] = flow
        flow._resources = tuple(self._resources_of(flow))
        members_map = self._res_members
        dirty = self._dirty
        for resource in flow._resources:
            members = members_map.get(resource)
            if members is None:
                members = {}
                members_map[resource] = members
            members[flow.fid] = flow
            dirty.add(resource)
        self._schedule_recompute()

    def _detach(self, flow: Flow, dirty: bool) -> None:
        """Drop *flow* from the incidence + node aggregates.

        The maintained aggregate loses the flow's rate immediately (so
        node_load() observably drops right away, matching the eager-scan
        semantics); the next pass rebuilds the touched aggregates from
        their member sets, so no float drift accumulates.
        """
        fid = flow.fid
        rate = flow.rate
        members_map = self._res_members
        for resource in flow._resources:
            members = members_map.get(resource)
            if members is not None:
                members.pop(fid, None)
                kind = resource[0]
                if not members:
                    del members_map[resource]
                    if kind == "out":
                        self._node_out[resource[1]] = 0.0
                    elif kind == "in":
                        self._node_in[resource[1]] = 0.0
                elif rate != 0.0:
                    if kind == "out":
                        name = resource[1]
                        self._node_out[name] = self._node_out.get(name, 0.0) - rate
                    elif kind == "in":
                        name = resource[1]
                        self._node_in[name] = self._node_in.get(name, 0.0) - rate
            if dirty:
                self._dirty.add(resource)

    def _schedule_recompute(self) -> None:
        """Coalesce changes: at most one pass per granularity window."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        delay = 0.0
        if self.recompute_granularity_s > 0:
            next_allowed = self._last_realloc + self.recompute_granularity_s
            delay = max(0.0, next_allowed - self.env.now)
        self.env.call_later(delay, self._run_recompute)

    def _run_recompute(self, _event=None) -> None:
        self._recompute_pending = False
        self._reallocate()

    def _resources_of(self, flow: Flow) -> List[tuple]:
        resources: List[tuple] = [("out", flow.src.name), ("in", flow.dst.name)]
        if (
            flow.src.site != flow.dst.site
            and self.backbone_capacity != float("inf")
        ):
            pair = tuple(sorted((flow.src.site, flow.dst.site)))
            resources.append(("bb",) + pair)
        if flow.rate_cap is not None:
            resources.append(("cap", flow.fid))
        return resources

    def _capacity_of(self, resource: tuple, flow: Optional[Flow] = None) -> float:
        kind = resource[0]
        if kind == "out":
            node = self.nodes.get(resource[1])
            return node.capacity_out if node is not None else float("inf")
        if kind == "in":
            node = self.nodes.get(resource[1])
            return node.capacity_in if node is not None else float("inf")
        if kind == "bb":
            return self.backbone_capacity
        return flow.rate_cap if flow is not None else float("inf")

    def _collect_components(self) -> Tuple[List[Flow], Set[tuple]]:
        """Expand the dirty-set to full connected component(s) of the
        resource–flow bipartite graph (flows returned in fid order)."""
        seen_res: Set[tuple] = set()
        comp_flows: Dict[int, Flow] = {}
        stack = list(self._dirty)
        members_map = self._res_members
        while stack:
            resource = stack.pop()
            if resource in seen_res:
                continue
            seen_res.add(resource)
            members = members_map.get(resource)
            if not members:
                continue
            for fid, flow in members.items():
                if fid not in comp_flows:
                    comp_flows[fid] = flow
                    for other in flow._resources:
                        if other not in seen_res:
                            stack.append(other)
        flows = [comp_flows[fid] for fid in sorted(comp_flows)]
        return flows, seen_res

    def _reallocate(self) -> None:
        """One water-filling pass over the dirty component(s)."""
        self.reallocations += 1
        now = self.env.now
        self._last_realloc = now
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("net.reallocations").inc()
            metrics.sample("net.active_flows", len(self._flows))
        if self.incremental and not self._dirty_all:
            comp_flows, comp_res = self._collect_components()
        else:
            comp_flows = list(self._flows.values())
            comp_res = None
        self._dirty.clear()
        self._dirty_all = False

        # Reap already-finished flows first (fid order: deterministic).
        live: List[Flow] = []
        for flow in comp_flows:
            if flow._remaining_at(now) <= _EPSILON:
                self._finish(flow)
            else:
                live.append(flow)
        self.realloc_flow_slots += len(live)

        if live:
            rates = self._waterfill(live)
            heap = self._completion_heap
            for i, flow in enumerate(live):
                new_rate = float(rates[i])
                if new_rate != flow.rate:
                    # Rate change: re-anchor progress at the old rate,
                    # then project the new completion time.
                    rem = flow._remaining_at(now)
                    flow._rem = rem
                    flow._anchor = now
                    flow.rate = new_rate
                    flow._epoch += 1
                    if new_rate > 0.0:
                        eta = now + rem / new_rate
                        flow._eta = eta
                        heapq.heappush(heap, (eta, flow.fid, flow._epoch))
                    else:
                        flow._eta = None
                elif flow._eta is None and flow.rate > 0.0:
                    # The timer popped this flow as due, but float drift
                    # left a sliver of bytes: re-anchor for a fresh ETA.
                    rem = flow._remaining_at(now)
                    flow._rem = rem
                    flow._anchor = now
                    flow._epoch += 1
                    eta = now + rem / flow.rate
                    flow._eta = eta
                    heapq.heappush(heap, (eta, flow.fid, flow._epoch))

        self._rebuild_node_rates(comp_res)
        self._arm_timer()

    def _rebuild_node_rates(self, comp_res: Optional[Set[tuple]]) -> None:
        """Refresh maintained aggregates for the recomputed resources.

        Untouched resources keep their previous sums, which are exact:
        neither their member sets nor any member's rate changed.
        """
        resources = comp_res if comp_res is not None else list(self._res_members)
        members_map = self._res_members
        for resource in resources:
            kind = resource[0]
            if kind != "out" and kind != "in":
                continue
            members = members_map.get(resource)
            if not members:
                continue  # emptied resources were zeroed by _detach
            total = 0.0
            for flow in members.values():
                total += flow.rate
            if kind == "out":
                self._node_out[resource[1]] = total
            else:
                self._node_in[resource[1]] = total

    # -- water-filling solver -------------------------------------------------
    def _waterfill(self, flows: List[Flow]):
        """Max-min fair rates for *flows* (a bottleneck-closed set).

        Returns a sequence of rates aligned with *flows*.  The caller
        guarantees closure: every member of every resource any of these
        flows touches is itself in *flows* (true both for a connected
        component and for the full active set).
        """
        res_index: Dict[tuple, int] = {}
        caps: List[float] = []
        members: List[List[int]] = []
        flow_res: List[List[int]] = []
        for i, flow in enumerate(flows):
            local: List[int] = []
            for resource in flow._resources:
                j = res_index.get(resource)
                if j is None:
                    j = len(caps)
                    res_index[resource] = j
                    caps.append(self._capacity_of(resource, flow))
                    members.append([])
                members[j].append(i)
                local.append(j)
            flow_res.append(local)
        if len(flows) <= _SCALAR_WATERFILL_MAX:
            return _waterfill_scalar(caps, members, flow_res, len(flows))
        return self._waterfill_vector(caps, members, flow_res, len(flows))

    def _scratch(self, name: str, rows: int, dtype, cols: int = 0) -> np.ndarray:
        """A reusable scratch array of at least *rows* rows (view-sliced)."""
        buf = self._np_bufs.get(name)
        if buf is None or buf.shape[0] < rows:
            cap = 64
            while cap < rows:
                cap <<= 1
            buf = np.empty((cap, cols) if cols else (cap,), dtype=dtype)
            self._np_bufs[name] = buf
        return buf[:rows]

    def _waterfill_vector(
        self,
        caps: List[float],
        members: List[List[int]],
        flow_res: List[List[int]],
        flow_count: int,
    ) -> np.ndarray:
        """Vectorized water-filling (large components)."""
        res_count = len(caps)
        remaining = self._scratch("wf_remaining", res_count, float)
        remaining[:] = caps
        counts = self._scratch("wf_counts", res_count, float)
        counts[:] = [float(len(m)) for m in members]
        shares = self._scratch("wf_shares", res_count, float)
        rates = self._scratch("wf_rates", flow_count, float)
        rates.fill(0.0)
        frozen = self._scratch("wf_frozen", flow_count, bool)
        frozen.fill(False)
        freeze_mask = self._scratch("wf_freeze", flow_count, bool)
        fres = self._scratch("wf_flow_res", flow_count, np.intp, cols=4)
        fres.fill(-1)
        for i, local in enumerate(flow_res):
            for k, j in enumerate(local):
                fres[i, k] = j

        active_res = counts > 0
        while active_res.any():
            shares.fill(np.inf)
            np.divide(remaining, counts, out=shares, where=active_res)
            share = float(shares.min())
            if not np.isfinite(share):
                # Only infinite-capacity resources left: unconstrained.
                rates[~frozen] = 1e12
                break
            share = max(share, 0.0)
            # Freeze every resource tied at the minimum share in one pass.
            # If r has share s and k of its flows freeze at s, its share
            # stays exactly s — so batching ties equals the sequential
            # algorithm while collapsing symmetric topologies (e.g. 60
            # equally-loaded provider NICs) into a single round.
            tolerance = share * 1e-9 + 1e-15
            bottlenecks = np.flatnonzero(shares <= share + tolerance)
            freeze_mask.fill(False)
            for bottleneck in bottlenecks:
                freeze_mask[members[bottleneck]] = True
            freeze_mask &= ~frozen
            to_freeze = np.flatnonzero(freeze_mask)
            if to_freeze.size:
                rates[to_freeze] = share
                frozen[to_freeze] = True
                touched = fres[to_freeze].ravel()
                touched = touched[touched >= 0]
                np.subtract.at(remaining, touched, share)
                np.maximum(remaining, 0.0, out=remaining)
                np.add.at(counts, touched, -1)
            counts[bottlenecks] = 0
            active_res = counts > 0
        return rates

    def _finish(self, flow: Flow) -> None:
        self._flows.pop(flow.fid, None)
        self._detach(flow, dirty=False)
        self._delivered_done += flow.size
        now = self.env.now
        flow._rem = 0.0
        flow._anchor = now
        flow.rate = 0.0
        flow._epoch += 1
        flow._eta = None
        flow.finished_at = now
        if flow._span is not None:
            flow._span.finish()
            flow._span = None
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("net.flows_completed").inc()
            metrics.counter("net.mb_delivered").inc(flow.size)
        if self.completion_log is not None:
            self.completion_log.append(("finish", flow.fid, now))
        if not flow.done.triggered:
            flow.done.succeed(flow)

    def _arm_timer(self) -> None:
        """Schedule a wake-up at the earliest valid completion ETA."""
        self._timer_token += 1
        heap = self._completion_heap
        flows = self._flows
        while heap:
            eta, fid, epoch = heap[0]
            flow = flows.get(fid)
            if flow is None or flow._epoch != epoch:
                heapq.heappop(heap)  # stale: superseded or terminated
                continue
            token = self._timer_token
            self.env.call_at(eta, lambda _ev, _token=token: self._timer_fired(_token))
            return

    def _timer_fired(self, token: int) -> None:
        if token != self._timer_token:
            return  # a newer reallocation superseded this timer
        now = self.env.now
        heap = self._completion_heap
        flows = self._flows
        due = False
        while heap and heap[0][0] <= now:
            _eta, fid, epoch = heapq.heappop(heap)
            flow = flows.get(fid)
            if flow is None or flow._epoch != epoch:
                continue
            flow._eta = None
            due = True
            for resource in flow._resources:
                self._dirty.add(resource)
        if due:
            self._reallocate()
        else:  # pragma: no cover - defensive; valid timers imply due flows
            self._arm_timer()

    # -- introspection helpers ----------------------------------------------
    def node_load(self, name: str) -> Tuple[float, float]:
        """(outgoing, incoming) aggregate rate at a node, MB/s.  O(1)."""
        return self._node_out.get(name, 0.0), self._node_in.get(name, 0.0)

    def node_flow_count(self, name: str) -> int:
        """Number of active flows touching node *name* (O(node degree))."""
        out = self._res_members.get(("out", name))
        inbound = self._res_members.get(("in", name))
        if out is None:
            return len(inbound) if inbound is not None else 0
        if inbound is None:
            return len(out)
        return len(out.keys() | inbound.keys())

    def active_flow_count(self) -> int:
        return len(self._flows)


def _waterfill_scalar(
    caps: List[float],
    members: List[List[int]],
    flow_res: List[List[int]],
    flow_count: int,
) -> List[float]:
    """Scalar water-filling, bit-identical to :meth:`_waterfill_vector`.

    Every float operation (division order, tie tolerance, subtraction
    sequence, late clamping) mirrors the vectorized path exactly, so the
    small-component fast path cannot perturb simulated results.  The
    property suite cross-checks the two paths on random inputs.
    """
    inf = float("inf")
    res_count = len(caps)
    remaining = list(caps)
    counts = [float(len(m)) for m in members]
    rates = [0.0] * flow_count
    frozen = [False] * flow_count
    while True:
        share = inf
        shares = [inf] * res_count
        any_active = False
        for j in range(res_count):
            if counts[j] > 0.0:
                any_active = True
                s = remaining[j] / counts[j]
                shares[j] = s
                if s < share:
                    share = s
        if not any_active:
            break
        if share == inf:
            # Only infinite-capacity resources left: unconstrained.
            for i in range(flow_count):
                if not frozen[i]:
                    rates[i] = 1e12
            break
        if share < 0.0:
            share = 0.0
        threshold = share + (share * 1e-9 + 1e-15)
        bottlenecks = [j for j in range(res_count) if shares[j] <= threshold]
        to_freeze = []
        for j in bottlenecks:
            for i in members[j]:
                if not frozen[i]:
                    frozen[i] = True
                    to_freeze.append(i)
        for i in to_freeze:
            rates[i] = share
            for j in flow_res[i]:
                remaining[j] -= share
                counts[j] -= 1.0
        # Clamp only after the whole round's subtractions, matching the
        # vectorized np.maximum(remaining, 0) placement.
        for i in to_freeze:
            for j in flow_res[i]:
                if remaining[j] < 0.0:
                    remaining[j] = 0.0
        for j in bottlenecks:
            counts[j] = 0.0
    return rates
