"""Heartbeat failure detection over the simulated network.

The paper's introspection architecture exists so BlobSeer can *detect*
faults through its monitoring layer — knowledge of a crash must travel
over the network and costs time.  :class:`HeartbeatFailureDetector` is a
simulated process (typically co-located with the provider manager) that
pings registered nodes every ``period_s`` seconds and keeps a per-node
``alive / suspected / dead`` view:

- a ping that times out after ``timeout_s`` counts as a **miss** and
  moves the node to *suspected*;
- ``confirm_misses`` consecutive misses confirm the node *dead* and fire
  the ``on_confirm`` callbacks (e.g. deferred chunk-directory cleanup);
- a successful ping resets the view to *alive* (and counts a detected
  recovery if the node was previously confirmed dead).

The detector never reads the ``node.alive`` oracle to form its view; the
oracle is touched only by measurement listeners that record the *actual*
crash instant so detection latency can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..blobseer.rpc import RETRYABLE_RPC_ERRORS, request_response

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode

__all__ = ["ALIVE", "SUSPECTED", "DEAD", "NodeView", "HeartbeatFailureDetector"]

#: Detector states for a watched node.
ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"


@dataclass
class NodeView:
    """The detector's belief about one watched node."""

    node: PhysicalNode
    state: str = ALIVE
    last_heard: float = 0.0
    misses: int = 0
    #: Actual crash instant (measurement only — never used for the view).
    crashed_at: Optional[float] = None
    suspected_at: Optional[float] = None
    confirmed_at: Optional[float] = None


class HeartbeatFailureDetector:
    """Pings watched nodes from *host* and tracks their liveness."""

    def __init__(
        self,
        host: PhysicalNode,
        period_s: float = 1.0,
        timeout_s: float = 3.0,
        confirm_misses: int = 2,
    ) -> None:
        if period_s <= 0 or timeout_s <= 0:
            raise ValueError("period_s and timeout_s must be positive")
        if confirm_misses < 1:
            raise ValueError("confirm_misses must be at least 1")
        self.host = host
        self.env = host.env
        self.net = host.network
        self.period_s = period_s
        self.timeout_s = timeout_s
        self.confirm_misses = confirm_misses
        self._views: Dict[str, NodeView] = {}
        self._confirm_cbs: List[Callable[[NodeView], None]] = []
        #: Detection latency (confirmed_at - crashed_at) per confirmation.
        self.detection_latencies: List[float] = []
        self.pings_sent = 0
        self._stopped = False
        self._process = None

    # -- registration ---------------------------------------------------------
    def watch(self, node: PhysicalNode) -> NodeView:
        """Start monitoring *node*; idempotent."""
        view = self._views.get(node.name)
        if view is not None:
            return view
        view = NodeView(node, last_heard=self.env.now)
        self._views[node.name] = view

        # Measurement-only listener: records when the crash *actually*
        # happened so detection latency can be computed at confirm time.
        def _mark_crash(_n: PhysicalNode, v: NodeView = view) -> None:
            v.crashed_at = self.env.now

        node.on_fail(_mark_crash)
        return view

    def view(self, name: str) -> Optional[NodeView]:
        return self._views.get(name)

    def views(self) -> List[NodeView]:
        """All per-node views, in watch order."""
        return list(self._views.values())

    def on_confirm(self, callback: Callable[[NodeView], None]) -> None:
        """Run *callback(view)* whenever a node is confirmed dead."""
        self._confirm_cbs.append(callback)

    # -- the view (what membership consults) ----------------------------------
    def thinks_alive(self, name: str) -> bool:
        """True unless the detector suspects or has confirmed *name* dead.

        Unwatched nodes are presumed alive (the detector has no opinion).
        """
        view = self._views.get(name)
        return view is None or view.state == ALIVE

    def suspected(self, name: str) -> bool:
        view = self._views.get(name)
        return view is not None and view.state == SUSPECTED

    def confirmed_dead(self, name: str) -> bool:
        view = self._views.get(name)
        return view is not None and view.state == DEAD

    # -- lifecycle -------------------------------------------------------------
    def start(self):
        """Launch the heartbeat loop process (idempotent)."""
        if self._process is None:
            self._process = self.env.process(self._loop(), name="failure-detector")
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _loop(self):
        while not self._stopped:
            # A crashed detector host stops probing: its view freezes
            # until the host recovers (no out-of-band knowledge).
            if self.host.alive:
                for view in list(self._views.values()):
                    self.env.process(
                        self._probe(view), name=f"fd-ping-{view.node.name}"
                    )
            yield self.env.timeout(self.period_s)

    def _probe(self, view: NodeView):
        sent_at = self.env.now
        self.pings_sent += 1
        try:
            # A ping and its echo are plain control messages.
            yield from request_response(
                self.net, self.host.name, view.node.name,
                op="fd.ping", timeout_s=self.timeout_s,
            )
        except RETRYABLE_RPC_ERRORS:
            self._miss(view, sent_at)
        else:
            self._heard(view)

    # -- state transitions -----------------------------------------------------
    def _heard(self, view: NodeView) -> None:
        view.last_heard = self.env.now
        view.misses = 0
        if view.state == DEAD:
            metrics = self.env.metrics
            if metrics is not None:
                metrics.counter("detector.recoveries").inc()
        view.state = ALIVE

    def _miss(self, view: NodeView, sent_at: float) -> None:
        if view.last_heard > sent_at:
            return  # stale probe: the node answered a fresher ping
        if not self.host.alive:
            return  # probes orphaned by a detector-host crash
        view.misses += 1
        metrics = self.env.metrics
        if view.state == ALIVE:
            view.state = SUSPECTED
            view.suspected_at = self.env.now
            if metrics is not None:
                metrics.counter("detector.suspicions").inc()
        if view.state == SUSPECTED and view.misses >= self.confirm_misses:
            view.state = DEAD
            view.confirmed_at = self.env.now
            if metrics is not None:
                metrics.counter("detector.confirmations").inc()
            if view.crashed_at is not None:
                latency = self.env.now - view.crashed_at
                self.detection_latencies.append(latency)
                if metrics is not None:
                    metrics.histogram("detector.detection_latency").observe(latency)
            for callback in list(self._confirm_cbs):
                callback(view)

    # -- reporting --------------------------------------------------------------
    def stats(self) -> dict:
        states = [v.state for v in self._views.values()]
        latencies = self.detection_latencies
        return {
            "watched": len(self._views),
            "alive": states.count(ALIVE),
            "suspected": states.count(SUSPECTED),
            "dead": states.count(DEAD),
            "pings_sent": self.pings_sent,
            "detections": len(latencies),
            "mean_detection_latency_s": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "max_detection_latency_s": max(latencies) if latencies else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HeartbeatFailureDetector on {self.host.name} "
            f"watching {len(self._views)} nodes>"
        )
