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
- recomputation is **incremental**: changed resources go into a
  dirty-set and a pass only re-solves the connected component(s) of the
  resource–flow bipartite graph touched by a change.  This is *exact*,
  not approximate: flows in disjoint components never share a
  bottleneck, and the water-filling rounds of one component perform
  arithmetic only on that component's resources, so recomputing a
  component in isolation yields bit-identical rates to a global pass.
  (The one theoretical caveat: the round-batching tolerance of ``1e-9``
  relative could merge *near*-tied — not exactly tied — bottleneck
  values across components in a global pass; exact ties, the
  overwhelmingly common case, batch identically either way.
  ``incremental=False`` restores the always-global pass for A/B runs;
  the kernel determinism suite asserts byte-identical results.)
- the flow table is **array-resident**.  Every admitted flow owns a
  *slot* in persistent numpy columns — four integer resource ids
  (uplink, downlink, backbone, rate cap; ``0`` where absent), ``rate``,
  ``rem``, ``anchor``, the admission sequence number and an "a
  completion-heap entry is live" bit (the :class:`Flow` holds its id
  row too, so no pass reads one back) — and every resource key
  (``("out", node)``, ``("in", node)``, ``("bb", site, site)``,
  ``("cap", fid)``) owns a small integer id, which indexes three more
  columns: the resource's capacity (read when the id is minted and
  again by :meth:`FlowNetwork.refresh`, and nowhere else), the
  aggregate rate of its members as of the last pass that solved it,
  and the mark below.  Id 0 is reserved for "no such resource":
  capacity ``+inf``, never a member, so it serves the solver as its
  pad.  A NIC's two ids are its **node's**: ``add_node`` mints them,
  they stay while the node is idle, and ``remove_node`` recycles them;
  a backbone's or a cap's is minted on demand and recycled when its
  last flow leaves.  So admitting a same-site flow with no cap mints,
  frees and hashes nothing, and with slots recycled too the table is
  bounded by twice the nodes plus peak concurrency.  Beside the
  columns each resource keeps its member slots (admission-ordered)
  and, for the three shareable kinds, a neighbour-count map ``{other
  resource: flows using both}``; a component is collected by walking
  *resources* through those maps with C-level set operations and
  concatenating the member slots of its uplinks — there is no per-flow
  stack;
- the last **large component is remembered**, not re-walked.  A walk
  that found one component above ``_SCALAR_WATERFILL_MAX`` flows marks
  its resources; the mark stays exactly that component's while it
  provably stays one: an admission onto it adds the flow's fresh
  resources, a resource left idle leaves it, and it is dropped by an
  admission that also touches another non-empty component, by a
  departure that leaves two of the flow's shareable resources
  with members but no longer adjacent (the no-split test: every other
  resource of the component still reaches one of them), and by
  :meth:`FlowNetwork.refresh`.  A pass whose dirty resources all lie
  inside the mark takes the live slots whose uplink is marked — one
  ``np.flatnonzero`` — instead of walking; every other pass walks,
  and the walk is the tests' reference for the mark;
- flow progress is **anchor-based**, not drained per pass: a slot stores
  ``(rem, anchor)`` as of the flow's last rate change and the live
  remaining is the linear projection from that anchor, so a
  reallocation rewrites only the flows whose rates actually change;
- a pass over a component above ``_SCALAR_WATERFILL_MAX`` flows is
  gather → vectorised projection and reap test → member counts (one
  ``bincount``, which also names the component's resources, renumbered
  from 1 with id 0 kept as the pad) → capacity gather → water-fill
  with a boolean bottleneck mask → vectorised ``new_rate != rate`` →
  one ``bincount`` scattered into the aggregate column.  The water-fill
  stops as soon as every flow has its rate, and a round subtracts its
  share (one ``ufunc.at`` element per frozen member) only from the
  resources that stay active — the only ones read again — so a pass
  whose flows all freeze in one round, the common case, subtracts
  nothing.  Interpreter-level work remains only per *finishing* flow
  (in fid order) and per *rate-changing* flow (epoch bump and
  completion-heap push).  A flow whose rate comes out bit for
  bit the same costs no Python at all.  Components up to
  ``_SCALAR_WATERFILL_MAX`` run the same steps as plain loops over
  per-slot reads, where numpy dispatch overhead would dominate; the two
  passes are bit-identical and the test-suite forces whole runs down
  either one;
- a component of **one flow** is rated in closed form.  When the one
  dirty resource has a single member and every resource of that flow
  has no other, the walk and the solver are skipped: the water-fill of
  one flow is the minimum of its capacities (``cap / 1.0 == cap``), with
  the solver's ``1e12`` for an unconstrained flow and its clamp at 0,
  and each of its aggregates is that rate (``0.0 + r == r``).  The
  re-anchor and the heap push are the scalar pass's own
  (``_rerate``), so the two cannot drift apart.  The recompute event and
  the completion timer are kept: a lone flow costs the kernel what any
  other flow costs, and no same-instant tie moves.  The host pays for
  what the flow changes — no id is minted or freed, no key built — and
  its completion timer is one bound callback, stale unless armed last;
- **index order inside a pass cannot change arithmetic.**  The solver's
  only cross-element operations are a minimum over resource shares
  (order-free), repeated subtraction of the *same* ``share`` from a
  resource's remaining capacity (the sequence of partial results does
  not depend on which flow each subtraction is for) and exact
  small-integer member counts; everything else is elementwise.  The
  one order-sensitive float sum, a node's aggregate rate, is taken in
  admission order — the order the member maps iterate in and the order
  the array pass sorts its gather by;
- the aggregate column makes :meth:`node_load` (polled every monitoring
  interval for every node) two id lookups instead of an O(flows) scan;
- completion wake-ups come from a *completion-horizon heap* of
  ``(eta, fid, epoch)`` entries (stale entries skipped lazily) instead
  of an O(flows) min-scan after every pass, scheduled through the
  kernel's :meth:`Environment.call_at` bare-callback fast path;
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
import math
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .engine import Environment
from .events import Event, Timeout

__all__ = ["NetNode", "Flow", "FlowNetwork", "TransferAborted"]

#: Bytes-remaining below this are considered "done" (guards float drift).
_EPSILON = 1e-9

#: Components up to this many flows take the scalar pass (numpy dispatch
#: overhead dominates below it).  Both passes are bit-identical.
_SCALAR_WATERFILL_MAX = 16

#: Resource-id columns of a slot: uplink, downlink (their nodes' ids),
#: backbone, rate cap.  The first three kinds can be shared between
#: flows; a cap is private to its flow, so it never joins the dirty-set
#: or the neighbour maps.
_RES_COLUMNS = 4
_NIC_COLUMNS = 2
_SHARED_COLUMNS = 3

#: The numpy columns indexed by slot and those indexed by resource id.
_SLOT_COLUMNS = ("_fres", "_rate", "_rem", "_anchor", "_seq", "_armed")
_RESOURCE_COLUMNS = ("_cap", "_load", "_marked")

_by_fid = attrgetter("fid")


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

    While the flow is admitted its rate and progress live in the
    network's slot table (see the module docstring); :attr:`rate` and
    :attr:`remaining` read them from there.  Progress is anchor-based:
    the table holds the bytes that remained at the flow's last rate
    change, and the live :attr:`remaining` is the linear projection from
    there.  The anchor moves *only* when the rate actually changes,
    which keeps the float arithmetic independent of how many unrelated
    reallocation passes happen while the flow streams at a constant
    rate.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "size",
        "rate_cap",
        "done",
        "started_at",
        "finished_at",
        "tag",
        "_net",
        "_slot",
        "_rids",
        "_rem",
        "_epoch",
        "_span",
    )

    def __init__(self, net: "FlowNetwork", fid: int, src: NetNode,
                 dst: NetNode, size: float, done: Event,
                 rate_cap: Optional[float] = None, tag: Optional[str] = None,
                 started_at: float = 0.0) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.rate_cap = rate_cap
        self.done = done
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.tag = tag
        self._net = net
        #: Row in the network's slot table; -1 while not admitted.
        self._slot = -1
        #: While admitted: the slot's row of resource ids (0 where absent).
        self._rids: Sequence[int] = ()
        #: Bytes remaining while the flow holds no slot: its size before
        #: admission, what was left when it finished or was aborted.
        self._rem = float(size)
        #: Bumped whenever the rate is re-assigned; guards stale
        #: completion-heap entries (a flow that ended is stale by absence).
        self._epoch = 0
        #: Telemetry span covering the transfer (None when tracing is off).
        self._span = None

    @property
    def rate(self) -> float:
        """Current rate, MB/s (0 before admission and after the end)."""
        slot = self._slot
        return self._net._rate.item(slot) if slot >= 0 else 0.0

    @property
    def remaining(self) -> float:
        """Bytes remaining right now (live projection from the anchor)."""
        slot = self._slot
        if slot < 0:
            return self._rem
        return self._net._remaining_at(slot, self._net.env.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow #{self.fid} {self.src.name}->{self.dst.name} "
            f"{self.remaining:.2f}/{self.size:.2f}MB @ {self.rate:.2f}MB/s>"
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
        #: Active flows, insertion-ordered by admission (determinism!).
        self._flows: Dict[int, Flow] = {}
        #: Flows still in their propagation delay, by fid, in send order:
        #: aborts reach them too, and an aborted one is never admitted.
        self._pending: Dict[int, Flow] = {}
        self._latency = latency
        self.backbone_capacity = float(backbone_capacity)
        self._fid = itertools.count(1)
        #: The armed completion wake-up: any other that fires is stale.
        self._timer = None
        self._recompute_pending = False
        #: When False, every pass re-solves the whole flow set (the
        #: pre-incremental "old path" semantics) — kept for A/B
        #: determinism tests and kernel benchmarks.
        self.incremental = incremental
        # -- the slot table (module docstring): one row per admitted flow.
        #: Resource ids of the slot's flow, 0 where it has none; a free
        #: slot's uplink is 0.
        rows = 32  # doubled on demand by _grow()
        self._fres = np.zeros((rows, _RES_COLUMNS), dtype=np.intp)
        self._rate = np.zeros(rows)
        #: Bytes remaining as of ``_anchor`` (the last rate change).
        self._rem = np.zeros(rows)
        self._anchor = np.zeros(rows)
        #: Admission sequence number: the order node aggregates sum in.
        self._seq = np.zeros(rows, dtype=np.int64)
        #: True while the completion heap holds a live entry for the slot.
        self._armed = np.zeros(rows, dtype=bool)
        #: Slot -> its flow; grows to the high-water mark only.
        self._slot_flow: List[Optional[Flow]] = []
        self._free_slots: List[int] = []
        self._admissions = itertools.count()
        # -- resources: key <-> recycled integer id, members, neighbours.
        #: Id 0 is reserved for "no such resource": capacity +inf, never
        #: a member, never marked, never freed.
        self._res_id: Dict[tuple, int] = {}
        #: Node name -> its (uplink, downlink) ids, idle or not.
        self._nic: Dict[str, Tuple[int, int]] = {}
        self._res_key: List[Optional[tuple]] = [None]
        self._free_res: List[int] = []
        #: Resource id -> capacity: read at mint and by refresh() only.
        self._cap = np.zeros(rows)
        self._cap[0] = math.inf
        #: Resource id -> aggregate rate of its members as of the last
        #: pass that solved it; 0 for a free id.
        self._load = np.zeros(rows)
        #: Resource id -> in the remembered component: the shareable
        #: resources of one connected component, exactly (see
        #: :meth:`_marked_slots`), or no id at all.
        self._marked = np.zeros(rows, dtype=bool)
        #: Resource id -> {slot: Flow}, admission-ordered.
        self._res_members: Dict[int, Dict[int, Flow]] = {}
        #: Shareable resource id -> {other resource id: flows using both}.
        self._res_adj: Dict[int, Dict[int, int]] = {}
        #: Ids of resources whose membership changed since the last pass.
        self._dirty: Set[int] = set()
        self._dirty_all = False
        #: Completion-horizon heap of (eta, fid, epoch); stale entries
        #: (epoch mismatch / finished flow) are skipped lazily.
        self._completion_heap: List[Tuple[float, int, int]] = []
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
        #: (src, dst) as the caller addressed them -> propagation delay
        #: of a control message, kept while that answer is fixed: no
        #: fault model, no node removed (see :meth:`message`).
        self._message_delay: Dict[tuple, float] = {}
        #: (registry, reallocations, flows completed, MB delivered):
        #: the counters bound once per registry, not looked up per call.
        self._counters: Optional[tuple] = None
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
        """Join *node*: mint its uplink and downlink ids, reading their
        capacities (see :meth:`refresh`)."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self._nic[node.name] = (self._new_resource(("out", node.name), True),
                                self._new_resource(("in", node.name), True))
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
            delivered += flow.size - self._remaining_at(flow._slot, now)
        return delivered

    def remove_node(self, name: str) -> None:
        """Remove a node, aborting any flows touching it, and recycle
        its uplink and downlink ids.

        Doom discovery uses the node's member maps (O(node degree), not
        O(flows)), and the aborts coalesce into a single reallocation
        pass via the usual recompute marker.
        """
        del self.nodes[name]
        self._message_delay.clear()
        nic = self._nic.pop(name)
        doomed = {flow.fid: flow for rid in nic
                  for flow in self._res_members[rid].values()}
        for fid in sorted(doomed):
            self.abort(doomed[fid], reason=f"node {name} removed")
        for rid in nic:
            self._free_resource(rid)

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
        simply never triggers (callers need timeouts to notice).  An
        endpoint that is removed *during* the propagation delay ends the
        transfer the same two ways: :class:`TransferAborted`, or silence
        under :attr:`blackhole_missing`; :meth:`abort` and
        :meth:`abort_matching` reach a transfer there as well."""
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
        done = Event(self.env)
        flow = Flow(self, next(self._fid), src, dst, size, done, rate_cap,
                    tag, self.env._now)
        tracer = self.env.tracer
        if tracer.enabled:
            flow._span = tracer.begin(
                "net.flow", track=src.name, cat="net", detached=True,
                fid=flow.fid, src=src.name, dst=dst.name,
                size_mb=size, tag=tag,
            )
        self._pending[flow.fid] = flow
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

        With no fault model installed, what a pair of endpoints resolves
        to is fixed until one of them leaves, so the delay is kept per
        pair: :meth:`remove_node` — the only way a name stops meaning its
        ``NetNode`` — forgets every pair, a stale ``NetNode`` is never
        kept (it is resolved, and under :attr:`blackhole_missing`
        black-holed, every time), and once :attr:`fault_model` is set
        every message is routed in full (partitions, loss draws and
        latency factors as they fall).  The latency callable must be a
        function of the pair alone.
        """
        if self.fault_model is None:
            delay = self._message_delay.get((src, dst))
            if delay is not None:
                return Timeout(self.env, delay)
        route = self._route(src, dst)
        if route is None:
            return self._black_hole()
        node_a, node_b, delay = route
        nodes = self.nodes
        if (self.fault_model is None and nodes.get(node_a.name) is node_a
                and nodes.get(node_b.name) is node_b):
            self._message_delay[src, dst] = delay
        return Timeout(self.env, delay)

    def abort(self, flow: Flow, reason: str = "") -> None:
        """Cancel an in-flight flow; its waiter sees :class:`TransferAborted`.

        A flow still in its propagation delay is cancelled too: no byte
        of it arrives, and it is never admitted."""
        if self._pending.pop(flow.fid, None) is not None:
            self._end_aborted(flow, reason, 0.0)
            return
        if flow.fid not in self._flows:
            return
        now = self.env.now
        rem = self._remaining_at(flow._slot, now)
        del self._flows[flow.fid]
        self._detach(flow, aborted=True)
        flow._rem = rem
        self._delivered_done += flow.size - rem
        self._end_aborted(flow, reason, flow.size - rem)
        self._schedule_recompute()

    def abort_matching(self, predicate: Callable[[Flow], bool], reason: str = "") -> int:
        """Abort all flows matching *predicate*, admitted ones (in
        admission order) and then those still propagating (in send
        order); returns how many."""
        doomed = [f for f in self._flows.values() if predicate(f)]
        doomed += [f for f in self._pending.values() if predicate(f)]
        for flow in doomed:
            self.abort(flow, reason)
        return len(doomed)

    def refresh(self) -> None:
        """Recompute flow rates after external capacity changes.

        Call after mutating a node's NIC capacities (e.g. gray-failure
        NIC degradation), busy or idle: the capacity column is read
        again for every live resource id.  It is otherwise read only
        when an id is minted — a NIC's when its node joins —, so a node
        edited without a refresh keeps the old capacity.  External
        capacity edits aren't tracked by the dirty-set, so the next pass
        re-solves everything.
        """
        for rid in self._res_id.values():
            self._cap[rid] = self._capacity_of(rid)
        self._marked.fill(False)
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

    def _count_black_hole(self) -> None:
        self.blackholed_transfers += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("net.blackholed_transfers").inc()

    def _bound_counters(self, metrics) -> tuple:
        counters = self._counters
        if counters is None or counters[0] is not metrics:
            counters = self._counters = (
                metrics, metrics.counter("net.reallocations"),
                metrics.counter("net.flows_completed"),
                metrics.counter("net.mb_delivered"))
        return counters

    def _black_hole(self) -> Event:
        """An event that never triggers: the message vanished."""
        self._count_black_hole()
        return self.env.event()

    @staticmethod
    def _close_span(flow: Flow, **outcome) -> None:
        if flow._span is not None:
            flow._span.finish(**outcome)
            flow._span = None

    def _end_aborted(self, flow: Flow, reason: str, transferred: float) -> None:
        """Close the span, log and fail the waiter of a cancelled flow."""
        self._close_span(flow, aborted=True, reason=reason,
                         transferred_mb=transferred)
        if self.completion_log is not None:
            self.completion_log.append(("abort", flow.fid, self.env.now))
        if not flow.done.triggered:
            flow.done.fail(TransferAborted(flow, reason))

    def _remaining_at(self, slot: int, now: float) -> float:
        """Bytes the flow in *slot* has left at time *now* (a rate is
        never negative, so at rate 0 this is the anchored remainder)."""
        rem = self._rem.item(slot) - self._rate.item(slot) * (
            now - self._anchor.item(slot))
        return rem if rem > 0.0 else 0.0

    def _admit(self, flow: Flow) -> None:
        if self._pending.pop(flow.fid, None) is None:
            return  # aborted while it propagated
        src, dst = flow.src, flow.dst
        nodes = self.nodes
        for end in (src, dst):
            if nodes.get(end.name) is not end:
                self._lost_in_propagation(flow, end.name)
                return
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_flow)
            self._slot_flow.append(None)
            if slot == self._rate.shape[0]:
                self._grow(_SLOT_COLUMNS)
        self._slot_flow[slot] = flow
        flow._slot = slot
        self._flows[flow.fid] = flow
        # The NICs' ids are their nodes'; only a backbone or a cap mints.
        nic = self._nic
        rids = [nic[src.name][0], nic[dst.name][1], 0, 0]
        if src.site != dst.site and self.backbone_capacity != math.inf:
            key = ("bb",) + tuple(sorted((src.site, dst.site)))
            rid = self._res_id.get(key)
            rids[2] = rid if rid is not None else self._new_resource(key, True)
        if flow.rate_cap is not None:
            rids[3] = self._new_resource(("cap", flow.fid), False)
        flow._rids = rids
        members_map = self._res_members
        for rid in rids:
            if rid:
                members_map[rid][slot] = flow
        self._link(rids, 1)
        self._join_mark(rids)

        self._fres[slot] = rids
        self._rate[slot] = 0.0
        self._rem[slot] = flow.size
        self._anchor[slot] = self.env._now
        self._seq[slot] = next(self._admissions)
        self._armed[slot] = False
        # One resource of a member flow reaches its whole component.
        self._dirty.add(rids[0])
        self._schedule_recompute()

    def _lost_in_propagation(self, flow: Flow, name: str) -> None:
        """Node *name* was removed (or replaced) while *flow* was still
        in its propagation delay: the flow never enters the table."""
        if self.blackhole_missing:
            self._count_black_hole()
            self._close_span(flow, aborted=True, reason="black-holed",
                             transferred_mb=0.0)
        else:
            self._end_aborted(flow, f"node {name} removed", 0.0)

    def _link(self, rids: List[int], delta: int) -> None:
        """Count one flow more (or less) between each pair of the
        shareable resources among *rids*."""
        adj = self._res_adj
        # Every flow has its two NIC ids; a backbone is the third, if any.
        shared = rids[:_SHARED_COLUMNS] if rids[2] else rids[:_NIC_COLUMNS]
        for rid, other in itertools.permutations(shared, 2):
            neighbours = adj[rid]
            count = neighbours.get(other, 0) + delta
            if count:
                neighbours[other] = count
            else:
                del neighbours[other]

    def _join_mark(self, rids: List[int]) -> None:
        """Keep the mark exact across an admission.  A flow that touches
        the marked component adds its fresh resources to it; one that
        also touches another non-empty component drops the mark (merging
        that component in would take a walk)."""
        shared = rids[:_SHARED_COLUMNS] if rids[2] else rids[:_NIC_COLUMNS]
        marked = self._marked.item
        if not any(map(marked, shared)):
            return
        members_map = self._res_members
        if any(not marked(rid) and len(members_map[rid]) > 1 for rid in shared):
            self._marked.fill(False)
        else:
            for rid in shared:
                self._marked[rid] = True

    def _split_mark(self, rids: List[int]) -> None:
        """A flow of the marked component has left (its idle resources
        already left the mark).  The component stays one if the flow's
        shareable resources that still have members are pairwise
        adjacent — every other resource reaches one of them without the
        flow; otherwise the mark is dropped."""
        adj = self._res_adj
        # An idle NIC keeps its id: "still has members", not "has an id".
        left = [rid for rid in rids[:_SHARED_COLUMNS] if self._res_members.get(rid)]
        for i, rid in enumerate(left):
            neighbours = adj[rid]
            for other in left[i + 1:]:
                if other not in neighbours:
                    self._marked.fill(False)
                    return

    def _grow(self, names: Tuple[str, ...]) -> None:
        """Double the columns *names* (new rows are zero)."""
        for name in names:
            old = getattr(self, name)
            new = np.zeros((2 * old.shape[0],) + old.shape[1:], dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def _new_resource(self, key: tuple, shared: bool) -> int:
        if self._free_res:
            rid = self._free_res.pop()
            self._res_key[rid] = key
        else:
            rid = len(self._res_key)
            self._res_key.append(key)
            if rid == self._cap.shape[0]:
                self._grow(_RESOURCE_COLUMNS)
        self._res_id[key] = rid
        self._res_members[rid] = {}
        if shared:
            self._res_adj[rid] = {}
        self._cap[rid] = self._capacity_of(rid)
        return rid

    def _free_resource(self, rid: int) -> None:
        """Recycle the id of an idle resource (cleared by _detach)."""
        del self._res_id[self._res_key[rid]]
        del self._res_members[rid]
        self._res_key[rid] = None
        self._free_res.append(rid)
        self._res_adj.pop(rid, None)

    def _detach(self, flow: Flow, aborted: bool) -> None:
        """Drop *flow* from the slot table, the member and neighbour maps.

        An aborted flow's rate leaves the aggregates of the resources it
        shared immediately (so node_load() observably drops right away)
        and those resources go dirty.  A flow finishing inside a pass
        needs neither: that pass rebuilds the aggregates of every
        resource it leaves members on, so no float drift accumulates.
        """
        slot = flow._slot
        rids = flow._rids
        in_mark = self._marked.item(rids[0])
        self._link(rids, -1)
        members_map = self._res_members
        for column, rid in enumerate(rids):
            if not rid:
                continue
            members = members_map[rid]
            del members[slot]
            if not members:
                # Idle, it is in no component; a NIC's id stays its node's.
                self._dirty.discard(rid)
                self._load[rid] = 0.0
                if in_mark:  # the flow's resources are all in its component
                    self._marked[rid] = False
                if column >= _NIC_COLUMNS:
                    self._free_resource(rid)
            elif aborted and column < _SHARED_COLUMNS:
                # The pass that set the rate also stored this aggregate.
                self._load[rid] -= self._rate.item(slot)
                self._dirty.add(rid)
        self._fres[slot, 0] = 0  # never marked: no pass takes a free slot
        if in_mark:
            self._split_mark(rids)
        self._slot_flow[slot] = None
        self._free_slots.append(slot)
        flow._slot = -1

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

    def _capacity_of(self, rid: int) -> float:
        key = self._res_key[rid]
        kind = key[0]
        if kind == "out":
            return self.nodes[key[1]].capacity_out
        if kind == "in":
            return self.nodes[key[1]].capacity_in
        if kind == "bb":
            return self.backbone_capacity
        return self._flows[key[1]].rate_cap

    def _dirty_component_slots(self) -> Tuple[List[int], Optional[Set[int]]]:
        """Slots of the connected component(s) of the resource–flow
        bipartite graph that the dirty-set touches, and — when that is
        one component — its resources (None when it is several).

        The walk is over *resources*: two resources are neighbours when
        a flow uses both.  Every flow has exactly one uplink, so the
        member slots of the reached uplinks are the component's flows,
        each once.  It is the reference the mark is tested against.
        """
        adj = self._res_adj
        seen: Set[int] = set()
        starts = 0
        for start in self._dirty:
            if start in seen:
                continue
            starts += 1
            frontier = {start}
            seen.add(start)
            while frontier:
                reached: Set[int] = set()
                for rid in frontier:
                    reached.update(adj[rid])
                frontier = reached - seen
                seen |= frontier
        keys = self._res_key
        members_map = self._res_members
        slots: List[int] = []
        for rid in seen:
            if keys[rid][0] == "out":
                slots.extend(members_map[rid])
        return slots, (seen if starts == 1 else None)

    def _marked_slots(self) -> Optional[np.ndarray]:
        """Slots of the remembered component when every dirty resource
        lies inside it, else None.

        The mark is the shareable resources of one connected component,
        exactly: :meth:`_reallocate` sets it from a walk that found one
        component above ``_SCALAR_WATERFILL_MAX`` flows, an admission
        extends it (:meth:`_join_mark`), a freed resource leaves it, and
        anything that might merge or split it drops it
        (:meth:`_join_mark`, :meth:`_split_mark`, :meth:`refresh`).  Its
        flows are then the live slots whose uplink is marked — what a
        walk from the dirty-set would collect.
        """
        dirty = self._dirty
        marked = self._marked
        if not dirty or not all(map(marked.item, dirty)):
            return None
        return np.flatnonzero(marked[self._fres[: len(self._slot_flow), 0]])

    def _reallocate(self) -> None:
        """One water-filling pass over the dirty component(s)."""
        self.reallocations += 1
        now = self.env._now
        self._last_realloc = now
        metrics = self.env.metrics
        if metrics is not None:
            self._bound_counters(metrics)[1].inc()
        # Flows that are done get reaped in fid order by a component
        # pass and in admission order by a global one.
        by_fid = self.incremental and not self._dirty_all
        if by_fid and self._pass_lone(now):
            self._arm_timer()
            return
        if by_fid:
            slots = self._marked_slots()
            if slots is None:
                slots, component = self._dirty_component_slots()
                if component is not None and len(slots) > _SCALAR_WATERFILL_MAX:
                    # Remember it: the passes after this one may not walk.
                    marked = self._marked
                    marked.fill(False)
                    marked[np.fromiter(component, np.intp, len(component))] = True
        else:
            slots = [flow._slot for flow in self._flows.values()]
        self._dirty.clear()
        self._dirty_all = False
        if len(slots) > _SCALAR_WATERFILL_MAX:
            self._pass_array(slots, now, by_fid)
        elif len(slots):
            self._pass_scalar(slots, now, by_fid)
        self._arm_timer()

    def _pass_lone(self, now: float) -> bool:
        """Solve the dirty component in closed form if it is one flow
        alone on every resource it uses; False (and nothing done) if not.

        Member counts decide it without a walk: the one dirty resource
        has one member, and so has each resource of that member."""
        dirty = self._dirty
        if len(dirty) != 1:
            return False
        members_map = self._res_members
        (rid,) = dirty
        members = members_map[rid]
        if len(members) != 1:
            return False
        ((slot, flow),) = members.items()
        rids = flow._rids
        for rid in rids:
            if rid and len(members_map[rid]) != 1:
                return False
        dirty.clear()
        rem = self._remaining_at(slot, now)
        if rem <= _EPSILON:
            self._finish(flow)
            return True
        self.realloc_flow_slots += 1
        # The water-fill of one flow: every share is a capacity over a
        # member count of 1, and the first round freezes the flow.
        rate = min(map(self._cap.item, filter(None, rids)))
        if rate == math.inf:
            rate = 1e12  # unconstrained, as in the solvers
        elif rate < 0.0:
            rate = 0.0
        self._rerate(flow, slot, rem, rate, now)
        # Each aggregate is its one member's rate (``0.0 + r == r``).
        load = self._load
        for rid in rids:
            if rid:
                load[rid] = rate
        return True

    def _rerate(self, flow: Flow, slot: int, rem: float, new_rate: float,
                now: float) -> None:
        """Give *flow* (in *slot*, *rem* MB left) its new rate: the one
        re-anchor of the scalar and the closed-form pass.  A rate change
        re-anchors progress at the old rate and projects the new
        completion time.  So does an unchanged rate without a live heap
        entry: the timer popped this flow as due, but float drift left a
        sliver of bytes."""
        rate = self._rate.item(slot)
        if new_rate != rate or (rate > 0.0 and not self._armed.item(slot)):
            self._rem[slot] = rem
            self._anchor[slot] = now
            self._rate[slot] = new_rate
            flow._epoch += 1
            self._armed[slot] = new_rate > 0.0
            if new_rate > 0.0:
                heapq.heappush(self._completion_heap,
                               (now + rem / new_rate, flow.fid, flow._epoch))

    def _pass_scalar(self, slots: List[int], now: float, by_fid: bool) -> None:
        """Reap, solve and re-rate a small component with plain loops."""
        slot_flow = self._slot_flow
        flows = [slot_flow[slot] for slot in slots]
        if by_fid:
            flows.sort(key=_by_fid)

        # Reap already-finished flows first (deterministic order).
        live: List[Tuple[Flow, int, float]] = []
        for flow in flows:
            slot = flow._slot
            rem = self._remaining_at(slot, now)
            if rem <= _EPSILON:
                self._finish(flow)
            else:
                live.append((flow, slot, rem))
        self.realloc_flow_slots += len(live)
        if not live:
            return

        res_index: Dict[int, int] = {}
        cap_at = self._cap.item
        caps: List[float] = []
        members: List[List[int]] = []
        flow_res: List[List[int]] = []
        for i, (flow, _slot, _rem) in enumerate(live):
            local: List[int] = []
            for rid in flow._rids:
                if not rid:
                    continue
                j = res_index.get(rid)
                if j is None:
                    j = len(caps)
                    res_index[rid] = j
                    caps.append(cap_at(rid))
                    members.append([])
                members[j].append(i)
                local.append(j)
            flow_res.append(local)
        new_rates = _waterfill_scalar(caps, members, flow_res, len(live))
        rate_of: Dict[int, float] = {}
        for (flow, slot, rem), new_rate in zip(live, new_rates):
            rate_of[slot] = new_rate
            self._rerate(flow, slot, rem, new_rate, now)
        # The aggregate of each resource of the component (every member
        # of which is live), summed in admission order.  Untouched
        # resources keep their sums, which are exact: neither their
        # members nor any member's rate changed.
        load = self._load
        members_map = self._res_members
        for rid in res_index:
            total = 0.0
            for slot in members_map[rid]:
                total += rate_of[slot]
            load[rid] = total

    def _pass_array(self, slot_list: Sequence[int], now: float, by_fid: bool) -> None:
        """Reap, solve and re-rate a component on the table's columns."""
        slots = np.asarray(slot_list, dtype=np.intp)
        # Admission order (sequence numbers are unique, so any sort
        # gives it; the stable one is the quicker here).
        slots = slots[np.argsort(self._seq[slots], kind="stable")]
        rate = self._rate[slots]
        rem = self._rem[slots]
        # Rates are never negative, so a flow at rate 0 projects to its
        # own (positive) rem and the clamp is the whole of the rule.
        proj = np.maximum(rem - rate * (now - self._anchor[slots]), 0.0)

        # Reap already-finished flows first (deterministic order).
        done = proj <= _EPSILON
        if done.any():
            finishing = [self._slot_flow[slot] for slot in slots[done].tolist()]
            if by_fid:
                finishing.sort(key=_by_fid)
            for flow in finishing:
                self._finish(flow)
            live = ~done
            slots, rate, proj = slots[live], rate[live], proj[live]
        self.realloc_flow_slots += slots.size
        if not slots.size:
            return

        # The component's resources, renumbered in id order from 1; the
        # reserved id 0 keeps 0 and pads every row (capacity +inf, no
        # member).  Solving on the table's own ids instead costs every
        # round the whole table, which a small component of a big one
        # pays many times over.
        fres = np.take(self._fres, slots, axis=0)
        counts = np.bincount(fres.ravel())
        counts[0] = 1  # list id 0, first, even if no row pads
        used = np.flatnonzero(counts)
        local = np.empty(counts.shape[0], dtype=np.intp)
        local[used] = np.arange(used.size)
        loc = local[fres]
        members = counts[used].astype(float)
        members[0] = 0.0
        new_rate = _waterfill_array(loc, self._cap[used], members)

        # A rate change re-anchors progress at the old rate and projects
        # the new completion time.  So does an unchanged rate without a
        # live heap entry: the timer popped that flow as due, but float
        # drift left a sliver of bytes.
        changed = new_rate != rate
        changed |= ~self._armed[slots] & (rate > 0.0)
        changed = np.flatnonzero(changed)
        if changed.size:
            at = slots[changed]
            rems = proj[changed]
            rates = new_rate[changed]
            self._rem[at] = rems
            self._anchor[at] = now
            self._rate[at] = rates
            positive = rates > 0.0
            self._armed[at] = positive
            with np.errstate(divide="ignore", invalid="ignore"):
                etas = now + rems / rates
            heap = self._completion_heap
            slot_flow = self._slot_flow
            for slot, push, eta in zip(at.tolist(), positive.tolist(), etas.tolist()):
                flow = slot_flow[slot]
                flow._epoch += 1
                if push:
                    heapq.heappush(heap, (eta, flow.fid, flow._epoch))

        # Aggregates, summed per resource in admission order.
        totals = np.bincount(
            loc.ravel(), weights=np.repeat(new_rate, _RES_COLUMNS),
            minlength=used.size,
        )
        self._load[used[1:]] = totals[1:]

    def _finish(self, flow: Flow) -> None:
        self._flows.pop(flow.fid, None)
        self._detach(flow, aborted=False)
        self._delivered_done += flow.size
        now = self.env._now
        flow._rem = 0.0
        flow.finished_at = now
        if flow._span is not None:
            self._close_span(flow)
        metrics = self.env.metrics
        if metrics is not None:
            counters = self._bound_counters(metrics)
            counters[2].inc()
            counters[3].inc(flow.size)
        if self.completion_log is not None:
            self.completion_log.append(("finish", flow.fid, now))
        if not flow.done.triggered:
            flow.done.succeed(flow)

    def _arm_timer(self) -> None:
        """Schedule a wake-up at the earliest valid completion ETA (and
        so make any wake-up armed before stale)."""
        self._timer = None
        heap = self._completion_heap
        flows = self._flows
        while heap:
            eta, fid, epoch = heap[0]
            flow = flows.get(fid)
            if flow is None or flow._epoch != epoch:
                heapq.heappop(heap)  # stale: superseded or terminated
                continue
            self._timer = self.env.call_at(eta, self._timer_fired)
            return

    def _timer_fired(self, call) -> None:
        if call is not self._timer:
            return  # a newer reallocation superseded this timer
        now = self.env._now
        heap = self._completion_heap
        flows = self._flows
        due = False
        while heap and heap[0][0] <= now:
            _eta, fid, epoch = heapq.heappop(heap)
            flow = flows.get(fid)
            if flow is None or flow._epoch != epoch:
                continue
            due = True
            self._armed[flow._slot] = False
            self._dirty.add(flow._rids[0])
        if due:
            self._reallocate()
        else:  # pragma: no cover - defensive; valid timers imply due flows
            self._arm_timer()

    # -- introspection helpers ----------------------------------------------
    def node_load(self, name: str) -> Tuple[float, float]:
        """(outgoing, incoming) aggregate rate at a node, MB/s: the
        aggregate column at its uplink and downlink ids (0 at an idle
        NIC, ``(0.0, 0.0)`` for a node not in the topology).  O(1)."""
        nic = self._nic.get(name)
        if nic is None:
            return (0.0, 0.0)
        load = self._load.item
        return (load(nic[0]), load(nic[1]))


# -- water-filling solvers ------------------------------------------------------
#
# Both take a bottleneck-closed flow set: every member of every resource
# any of the flows touches is itself in the set (true both for connected
# components and for the full active set).


def _waterfill_array(loc: np.ndarray, remaining: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """Max-min fair rates on arrays (large components).

    ``loc[i]`` are the resource indices of flow *i*, padded with index
    0 — a dummy resource of infinite capacity that no flow counts
    against.  *remaining* starts as the capacities and *counts* as the
    member counts (0 at the dummy); both are consumed, and *remaining*
    is left exact only where a flow was still unfrozen.
    """
    flow_count = loc.shape[0]
    unfrozen = flow_count
    shares = np.empty(remaining.shape[0])
    rates = np.zeros(flow_count)
    frozen = np.zeros(flow_count, dtype=bool)

    active = counts > 0
    while active.any():
        shares.fill(np.inf)
        np.divide(remaining, counts, out=shares, where=active)
        share = float(shares.min())
        if not math.isfinite(share):
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
        bottleneck = shares <= share + tolerance
        freeze = bottleneck[loc[:, 0]]
        for column in range(1, loc.shape[1]):
            freeze |= bottleneck[loc[:, column]]
        freeze &= ~frozen
        to_freeze = np.flatnonzero(freeze)
        rates[to_freeze] = share
        unfrozen -= to_freeze.size
        if not unfrozen:
            break  # every flow has its rate: nothing reads the rest
        frozen[to_freeze] = True
        # Member counts are small integers: exact in any order.  The
        # dummy's goes negative: it is never active.
        touched = loc[to_freeze].ravel()
        counts -= np.bincount(touched, minlength=counts.shape[0])
        counts[bottleneck] = 0.0
        active = counts > 0
        # A resource left without an unfrozen member is never read
        # again, so only those still active take the round's share,
        # once per member frozen (``ufunc.at`` costs per element).
        touched = touched[active[touched]]
        if touched.size:
            np.subtract.at(remaining, touched, share)
            np.maximum(remaining, 0.0, out=remaining)
    return rates


def _waterfill_scalar(
    caps: List[float],
    members: List[List[int]],
    flow_res: List[List[int]],
    flow_count: int,
) -> List[float]:
    """Scalar water-filling, bit-identical to :func:`_waterfill_array`.

    Every float operation (division order, tie tolerance, subtraction
    sequence, late clamping) mirrors the array solver exactly, so the
    small-component fast path cannot perturb simulated results.  The
    property suite cross-checks the two on random inputs.
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
        # array solver's np.maximum(remaining, 0) placement.
        for i in to_freeze:
            for j in flow_res[i]:
                if remaining[j] < 0.0:
                    remaining[j] = 0.0
        for j in bottlenecks:
            counts[j] = 0.0
    return rates
