"""Self-optimization: adaptive cache-capacity tuning (paper §V).

The paper's self-optimization engine replicates hot data to absorb read
concurrency; caching is the dual mechanism, and like replication it only
pays off when capacity sits where the heat is.  The :class:`CacheTuner`
is a :class:`~repro.adaptation.controller.ControlLoop` over every
registered :class:`~repro.cache.Cache`:

- **Monitor** — at the head of each plan it differences each cache's
  cumulative :class:`~repro.cache.CacheStats` since the previous step
  and publishes the interval rates as metrics series
  (``cache.<name>.hit_rate``, ``.lookups_per_s``, ``.evictions_per_s``,
  ``.bytes_mb``, ``.capacity_mb``).
- **Analyze** — it reads those series back through the introspection
  :class:`~repro.introspection.query.QueryEngine` as sliding-window
  statistics, so decisions integrate over ``window_s`` of history
  rather than reacting to one noisy interval.
- **Plan** — a swappable :class:`~repro.decision.planners.Planner`.  The
  default :class:`~repro.decision.planners.MarginalUtilityPlanner`
  grows caches that keep *evicting* while being looked up (thrashing:
  an extra byte has high expected value), ranked by evictions/s per MB,
  and funds the growth by shrinking idle or half-empty ones; its
  thresholds are constants of :mod:`repro.decision.planners`.
- **Execute** — costed ``cache_grow`` / ``cache_shrink`` actions that
  :meth:`~repro.cache.Cache.resize` each side.  With ``total_budget_mb``
  set, growth is bounded by the fleet-wide headroom, so the memory
  budget is conserved while capacity migrates toward the heat; with an
  ``arbiter``, every MB is additionally settled against a shared ledger.

The tuner owns its planner and is the knob domain the planner plans for
(the planner protocol's reference implementation — see
:mod:`repro.decision.planners`): ``pressure`` is evictions/s,
``activity`` is lookups/s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from ..decision.actions import Action
from ..decision.planners import MarginalUtilityPlanner, Planner
from .controller import ControlLoop

if TYPE_CHECKING:  # pragma: no cover
    from ..decision.signals import SignalRef

__all__ = ["CacheTuner"]

_EPS = 1e-9


class CacheTuner(ControlLoop):
    """Moves cache capacity toward the heat, under a pluggable planner."""

    name = "cache-tuner"
    #: Ledger name grow/shrink costs settle against.
    resource = "memory_mb"
    #: No cache is shrunk below this, however idle.  (There is no
    #: per-cache upper bound: growth is limited by the shared pool.)
    MIN_CAPACITY_MB = 4.0

    def __init__(
        self,
        query,
        caches=(),
        planner: Optional[Planner] = None,
        arbiter=None,
        interval_s: float = 10.0,
        cooldown_s: float = 0.0,
        window_s: Optional[float] = None,
        reward_signal: Optional[SignalRef] = None,
    ) -> None:
        super().__init__(interval_s=interval_s, cooldown_s=cooldown_s,
                         arbiter=arbiter)
        self.planner = planner if planner is not None else MarginalUtilityPlanner()
        #: QueryEngine supplying windowed series statistics.  Its
        #: metrics registry is where the tuner publishes cache series;
        #: without one the tuner observes but cannot analyze.
        self.query = query
        self.window_s = window_s
        #: Fleet-wide cap on the summed capacities (None = unbudgeted);
        #: set on the instance once the fleet is known.
        self.total_budget_mb: Optional[float] = None
        #: Observe-and-publish only: never resizes.  Lets dashboards use
        #: the tuner as a cache-stats probe without ceding control.
        self.dry_run = False
        #: Global objective for the search-based planners (hill-climb,
        #: bandit), e.g. ``SignalRef("client.throughput_mbps")``.
        self.reward_signal = reward_signal
        self.caches: Dict[str, Any] = {}
        #: (hits, misses, evictions, time) at the previous step.
        self._last: Dict[str, Tuple[int, int, int, float]] = {}
        #: cache -> (registry, its lookups_per_s, evictions_per_s,
        #: bytes_mb and capacity_mb series), bound once per registry.
        self._series: Dict[str, tuple] = {}
        #: (time, {cache: capacity_mb}) after each executed step.
        self.capacity_timeline: List[Tuple[float, Dict[str, float]]] = []
        for cache in caches:
            self.register(cache)

    def register(self, cache) -> "CacheTuner":
        self.caches[cache.name] = cache
        return self

    def planner_info(self) -> Dict[str, Any]:
        return self.planner.info()

    # -- monitor: publish interval rates as series -------------------------------
    def _publish(self, now: float) -> None:
        metrics = self.query.metrics
        stamp = metrics.now if metrics is not None else 0.0
        for name, cache in self.caches.items():
            stats = cache.stats
            snap = (stats.hits, stats.misses, stats.evictions, now)
            prev = self._last.get(name)
            self._last[name] = snap
            if prev is None or metrics is None:
                continue
            dt = now - prev[3]
            if dt <= 0:
                continue
            hits = snap[0] - prev[0]
            lookups = hits + (snap[1] - prev[1])
            evictions = snap[2] - prev[2]
            bound = self._series.get(name)
            if bound is None or bound[0] is not metrics:
                bound = self._series[name] = (metrics, *(
                    metrics.series(f"cache.{name}.{what}") for what in (
                        "lookups_per_s", "evictions_per_s", "bytes_mb",
                        "capacity_mb")))
            if lookups > 0:
                # By name: the series exists from the first lookup on.
                metrics.sample(f"cache.{name}.hit_rate", hits / lookups)
            bound[1].record(stamp, lookups / dt)
            bound[2].record(stamp, evictions / dt)
            bound[3].record(stamp, cache.bytes_used)
            bound[4].record(stamp, cache.capacity_mb)

    def plan(self, now: float) -> Iterable[Action]:
        self._publish(now)
        yield from self.planner.plan(self, now)
        # Runs once the step has applied every action the planner yielded.
        self.capacity_timeline.append(
            (now, {name: c.capacity_mb for name, c in self.caches.items()})
        )

    # -- planner protocol: the knob domain ---------------------------------------
    def knobs(self) -> List[str]:
        return list(self.caches)

    def value(self, name: str) -> float:
        return self.caches[name].capacity_mb

    def bytes_used(self, name: str) -> float:
        return self.caches[name].bytes_used

    def utilization(self, name: str) -> float:
        return self.caches[name].utilization

    def floor(self, name: str) -> float:
        return self.MIN_CAPACITY_MB

    def ceiling(self, name: str) -> Optional[float]:
        return None

    def signals(self, name: str) -> Optional[Dict[str, float]]:
        """Windowed signals through the query engine."""
        window = self.window_s
        evict_rate = self.query.window_stat(
            f"cache.{name}.evictions_per_s", "mean", window)
        lookup_rate = self.query.window_stat(
            f"cache.{name}.lookups_per_s", "mean", window)
        if evict_rate is None or lookup_rate is None:
            return None  # not enough history yet
        hit_rate = self.query.window_stat(
            f"cache.{name}.hit_rate", "mean", window)
        return {
            "pressure": evict_rate,
            "activity": lookup_rate,
            "hit_rate": hit_rate if hit_rate is not None else 0.0,
        }

    def signal_evidence(self, name: str,
                        signals: Dict[str, float]) -> Dict[str, float]:
        """Provenance: the windowed stats a plan for *name* is based on."""
        return {
            f"{name}.evictions_per_s": round(signals["pressure"], 6),
            f"{name}.lookups_per_s": round(signals["activity"], 6),
            f"{name}.hit_rate": round(signals["hit_rate"], 6),
        }

    def pool(self) -> Optional[float]:
        """Remaining shared headroom under ``total_budget_mb``, live."""
        if self.total_budget_mb is None:
            return None
        return max(0.0, self.total_budget_mb - self.held())

    def reward(self) -> Optional[float]:
        if self.reward_signal is None:
            return None
        return self.reward_signal.resolve(self.query)

    # -- actuators ---------------------------------------------------------------
    def _resize(self, kind: str, name: str, delta: float,
                detail: Dict[str, Any]) -> Action:
        cache = self.caches[name]
        after = cache.capacity_mb + delta
        return Action(
            kind, self.name, subject=name,
            cost={self.resource: delta},
            detail={"cache": name,
                    "from_mb": round(cache.capacity_mb, 3),
                    "to_mb": round(after, 3),
                    **detail},
            apply=lambda: cache.resize(after),
        )

    def make_shrink(self, name: str, amount: float,
                    signals: Optional[Dict[str, float]] = None) -> Action:
        detail: Dict[str, Any] = {}
        if signals is not None:
            detail["lookups_per_s"] = round(signals["activity"], 3)
            detail["evictions_per_s"] = round(signals["pressure"], 3)
        return self._resize("cache_shrink", name, -amount, detail)

    def make_grow(self, name: str, amount: float,
                  signals: Optional[Dict[str, float]] = None,
                  utility: Optional[float] = None) -> Action:
        detail: Dict[str, Any] = {}
        if utility is not None:
            detail["utility"] = round(utility, 6)
        if signals is not None:
            detail["hit_rate"] = round(signals["hit_rate"], 3)
            detail["evictions_per_s"] = round(signals["pressure"], 3)
        return self._resize("cache_grow", name, amount, detail)

    # -- arbiter integration -----------------------------------------------------
    def held(self) -> float:
        """Total capacity currently allocated (seed for ``assume``)."""
        return sum(c.capacity_mb for c in self.caches.values())

    def reclaim(self, resource: str, amount: float) -> float:
        """Arbiter preemption hook: shrink caches to free *amount* MB.

        Least-utilized caches give way first (name breaks ties), each
        down to its occupancy floor.  Returns the MB actually freed.
        """
        if resource != self.resource:
            return 0.0
        freed = 0.0
        order = sorted(self.caches,
                       key=lambda n: (self.caches[n].utilization, n))
        for name in order:
            if freed >= amount - _EPS:
                break
            cache = self.caches[name]
            floor = max(self.MIN_CAPACITY_MB, cache.bytes_used)
            give = min(cache.capacity_mb - floor, amount - freed)
            if give <= _EPS:
                continue
            cache.resize(cache.capacity_mb - give)
            freed += give
        return freed
