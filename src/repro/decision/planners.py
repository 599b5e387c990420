"""The shared planner interface and four drop-in comparable planners.

A :class:`Planner` is the Plan stage of a MAPE-K loop, factored out so
alternative decision techniques can be swapped under one engine and
scored uniformly by the adaptation scorecard.  A planner plans for the
engine that owns it, which is its **knob domain** (duck-typed;
:class:`~repro.adaptation.CacheTuner` is the reference implementation)
and exposes, besides :meth:`~repro.adaptation.ControlLoop.note`:

- ``knobs() -> list[str]`` — stable-order knob names;
- ``value(name)`` / ``floor(name)`` / ``ceiling(name)`` — the current
  setting and its bounds (``ceiling`` may be ``None`` = unbounded);
- ``bytes_used(name)`` / ``utilization(name)`` — live occupancy, the
  conservative shrink floor;
- ``signals(name) -> dict | None`` — windowed sensor readings with at
  least ``pressure`` (demand for more resource, e.g. evictions/s) and
  ``activity`` (usage rate, e.g. lookups/s); ``None`` = no history yet;
- ``signal_evidence(name, signals)`` — the provenance dict to ``note()``;
- ``pool() -> float | None`` — remaining shared headroom right now
  (``None`` = unbudgeted), re-read after every applied action;
- ``reward() -> float | None`` — the global objective the search-based
  planners climb (e.g. windowed client throughput);
- ``make_grow(name, amount, signals=None, utility=None)`` /
  ``make_shrink(name, amount, signals=None)`` — build the costed
  :class:`~repro.decision.actions.Action`;
- ``dry_run`` — observe-only flag.

``plan`` may be (and usually is) a **generator**: the engine's
:meth:`~repro.adaptation.ControlLoop.step` applies each action the
moment it is yielded, so later planning (e.g. headroom computed from
post-shrink capacities) observes the post-apply state.

Determinism: planners hold no hidden randomness.  The bandit takes an
explicitly injected numpy generator (a dedicated named stream), so runs
stay byte-identical per seed and other streams are unperturbed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .actions import Action

__all__ = [
    "Planner",
    "ThresholdPlanner",
    "MarginalUtilityPlanner",
    "HillClimbPlanner",
    "EpsilonGreedyPlanner",
    "PLANNERS",
    "make_planner",
]

_EPS = 1e-9
#: The rule-based planners' two thresholds: a knob is *thrashing* when
#: its pressure exceeds the first while its activity is at least the
#: second, and *idle* when its activity is below the second.
PRESSURE_THRESHOLD = 0.1
IDLE_ACTIVITY = 0.05
#: A calm knob filled below this fraction is *spare*: the
#: marginal-utility planner lets it fund growth with its unused room.
SPARE_UTILIZATION = 0.5
#: Probability that the bandit explores a random arm instead of
#: exploiting the best one.
EPSILON = 0.2


class Planner:
    """Plan-stage strategy: observe the domain, emit costed actions."""

    name = "planner"

    def params(self) -> Dict[str, Any]:
        """Comparable configuration, journaled for provenance."""
        return {}

    def plan(self, engine, now: float) -> Iterable[Action]:
        """Yield *engine*'s actions this step; applied as they are produced."""
        raise NotImplementedError

    def info(self) -> Dict[str, Any]:
        return {"name": self.name, "params": self.params()}


def _feasible_move(engine, knob: str, direction: int,
                   step_fraction: float) -> Optional[Action]:
    """The largest affordable step on *knob* toward *direction*, or None."""
    value = engine.value(knob)
    amount = step_fraction * value
    signals = engine.signals(knob)
    if direction > 0:
        ceiling = engine.ceiling(knob)
        if ceiling is not None:
            amount = min(amount, ceiling - value)
        pool = engine.pool()
        if pool is not None:
            amount = min(amount, pool)
        if amount <= _EPS:
            return None
        return engine.make_grow(knob, amount, signals=signals)
    floor = max(engine.floor(knob), engine.bytes_used(knob))
    amount = min(amount, value - floor)
    if amount <= _EPS:
        return None
    return engine.make_shrink(knob, amount, signals=signals)


class ThresholdPlanner(Planner):
    """Memoryless per-knob rules: grow under pressure, shrink when idle.

    The textbook ECA baseline — no ranking, no shared funding pool, no
    state.  Each busy knob whose pressure exceeds the threshold grows a
    step (bounded by ceiling and headroom); each idle knob shrinks a
    step toward its floor.  Useful as the control arm of the planner
    matrix: anything the smarter planners buy must beat this.
    """

    name = "threshold"

    def __init__(self, step_fraction: float = 0.25) -> None:
        self.step_fraction = step_fraction

    def params(self) -> Dict[str, Any]:
        return {
            "pressure_threshold": PRESSURE_THRESHOLD,
            "idle_activity": IDLE_ACTIVITY,
            "step_fraction": self.step_fraction,
        }

    def plan(self, engine, now: float) -> Iterable[Action]:
        if engine.dry_run:
            return
        for knob in engine.knobs():
            signals = engine.signals(knob)
            if signals is None:
                continue
            engine.note(**engine.signal_evidence(knob, signals))
            busy = signals["activity"] >= IDLE_ACTIVITY
            if busy and signals["pressure"] > PRESSURE_THRESHOLD:
                want = self.step_fraction * engine.value(knob)
                ceiling = engine.ceiling(knob)
                if ceiling is not None:
                    want = min(want, ceiling - engine.value(knob))
                pool = engine.pool()
                if pool is not None:
                    want = min(want, pool)
                if want > _EPS:
                    yield engine.make_grow(knob, want, signals=signals)
            elif signals["activity"] < IDLE_ACTIVITY:
                room = engine.value(knob) - engine.floor(knob)
                want = min(self.step_fraction * engine.value(knob), room)
                if want > _EPS:
                    yield engine.make_shrink(knob, want, signals=signals)


class MarginalUtilityPlanner(Planner):
    """Rank-by-marginal-utility capacity migration (the
    :class:`~repro.adaptation.CacheTuner` default).

    A knob that keeps signalling pressure while active is thrashing —
    an extra MB there has high expected value, quantified as pressure
    per MB of current budget.  Idle or spare knobs fund the growth:
    shrinks are applied first (only in service of growth — an all-quiet
    fleet keeps its capacities), then the shared pool headroom is
    re-read from the *post-shrink* state and growers draw from it in
    descending utility order.
    """

    name = "marginal-utility"

    def __init__(self, step_fraction: float = 0.25) -> None:
        self.step_fraction = step_fraction

    def params(self) -> Dict[str, Any]:
        return {
            "pressure_threshold": PRESSURE_THRESHOLD,
            "idle_activity": IDLE_ACTIVITY,
            "spare_utilization": SPARE_UTILIZATION,
            "step_fraction": self.step_fraction,
        }

    def plan(self, engine, now: float) -> Iterable[Action]:
        growers: List[Tuple[float, str, Dict[str, float]]] = []
        shrinkers: List[Tuple[str, float, Dict[str, float]]] = []
        for knob in engine.knobs():
            signals = engine.signals(knob)
            if signals is None:
                continue
            engine.note(**engine.signal_evidence(knob, signals))
            busy = signals["activity"] >= IDLE_ACTIVITY
            thrashing = busy and signals["pressure"] > PRESSURE_THRESHOLD
            if thrashing:
                utility = signals["pressure"] / max(engine.value(knob), _EPS)
                growers.append((utility, knob, signals))
                continue
            idle = signals["activity"] < IDLE_ACTIVITY
            spare = (
                signals["pressure"] <= PRESSURE_THRESHOLD
                and engine.utilization(knob) < SPARE_UTILIZATION
            )
            if idle or spare:
                floor = engine.floor(knob)
                if not idle:
                    # A healthy, in-use knob only gives up unused room.
                    floor = max(floor, engine.bytes_used(knob))
                room = engine.value(knob) - floor
                step = min(self.step_fraction * engine.value(knob), room)
                if step > _EPS:
                    shrinkers.append((knob, step, signals))
        if not growers or engine.dry_run:
            return
        for knob, step, signals in shrinkers:
            yield engine.make_shrink(knob, step, signals=signals)
        # Headroom is read *after* the shrinks above were applied: growth
        # is funded by the room they just released plus any slack.
        pool = engine.pool()
        for utility, knob, signals in sorted(growers, reverse=True):
            want = self.step_fraction * engine.value(knob)
            ceiling = engine.ceiling(knob)
            if ceiling is not None:
                want = min(want, ceiling - engine.value(knob))
            if pool is not None:
                want = min(want, pool)
            if want <= _EPS:
                continue
            yield engine.make_grow(knob, want, signals=signals,
                                   utility=utility)
            if pool is not None:
                pool -= want


class HillClimbPlanner(Planner):
    """Direction-flipping local search on the global reward.

    Round-robins over the knobs; each step moves the current knob one
    step in its remembered direction, and if the reward dropped since
    the previous move of that knob the direction flips.  Needs only the
    domain's scalar :meth:`reward` — no per-knob sensor model — so it
    is the cheapest adaptive planner, at the cost of exploring through
    the live system.  Fully deterministic: no randomness, ties keep the
    current direction.
    """

    name = "hill-climb"

    def __init__(self, step_fraction: float = 0.25) -> None:
        self.step_fraction = step_fraction
        self._direction: Dict[str, int] = {}
        self._cursor = 0
        self._last_knob: Optional[str] = None
        self._last_reward: Optional[float] = None

    def params(self) -> Dict[str, Any]:
        return {"step_fraction": self.step_fraction}

    def plan(self, engine, now: float) -> Iterable[Action]:
        reward = engine.reward()
        if reward is None:
            return
        if (
            self._last_knob is not None
            and self._last_reward is not None
            and reward < self._last_reward - _EPS
        ):
            # The last move hurt: search the other way next time.
            self._direction[self._last_knob] = -self._direction.get(
                self._last_knob, 1)
        self._last_reward = reward
        self._last_knob = None
        engine.note(reward=round(reward, 6))
        knobs = engine.knobs()
        if not knobs or engine.dry_run:
            return
        knob = knobs[self._cursor % len(knobs)]
        self._cursor += 1
        direction = self._direction.setdefault(knob, 1)
        action = _feasible_move(engine, knob, direction, self.step_fraction)
        if action is None:
            # Pinned against a bound: reverse and try the other way.
            direction = -direction
            self._direction[knob] = direction
            action = _feasible_move(engine, knob, direction,
                                    self.step_fraction)
        if action is None:
            return
        self._last_knob = knob
        engine.note(knob=knob, direction=direction)
        yield action


class EpsilonGreedyPlanner(Planner):
    """Epsilon-greedy bandit over ``(knob, ±1)`` arms.

    Each arm is one step of one knob in one direction; the payoff
    credited to an arm is the reward delta observed one interval after
    pulling it.  With probability ``EPSILON`` the planner explores a
    uniformly random arm, otherwise it exploits the best running-mean
    arm (untried arms first, in knob order).  All randomness comes from
    the injected generator — give it a dedicated named stream (e.g.
    ``streams.stream("decision:bandit")``) so reruns are byte-identical
    per seed and no other stream shifts.
    """

    name = "epsilon-greedy"

    def __init__(self, rng, step_fraction: float = 0.25) -> None:
        if rng is None:
            raise ValueError(
                "EpsilonGreedyPlanner needs a dedicated rng stream")
        self.rng = rng
        self.step_fraction = step_fraction
        self._counts: Dict[Tuple[str, int], int] = {}
        self._means: Dict[Tuple[str, int], float] = {}
        self._last_arm: Optional[Tuple[str, int]] = None
        self._last_reward: Optional[float] = None

    def params(self) -> Dict[str, Any]:
        return {"epsilon": EPSILON,
                "step_fraction": self.step_fraction}

    def plan(self, engine, now: float) -> Iterable[Action]:
        reward = engine.reward()
        if reward is None:
            return
        if self._last_arm is not None and self._last_reward is not None:
            # Credit the previous pull with the reward delta it bought.
            delta = reward - self._last_reward
            count = self._counts.get(self._last_arm, 0) + 1
            self._counts[self._last_arm] = count
            mean = self._means.get(self._last_arm, 0.0)
            self._means[self._last_arm] = mean + (delta - mean) / count
        self._last_reward = reward
        self._last_arm = None
        engine.note(reward=round(reward, 6))
        if engine.dry_run:
            return
        arms = [(knob, sign) for knob in engine.knobs()
                for sign in (1, -1)]
        if not arms:
            return
        if float(self.rng.random()) < EPSILON:
            arm = arms[int(self.rng.integers(len(arms)))]
            chose = "explore"
        else:
            untried = [a for a in arms if a not in self._counts]
            if untried:
                arm = untried[0]
                chose = "probe"
            else:
                # max() keeps the first maximal arm: deterministic ties.
                arm = max(arms, key=lambda a: self._means.get(
                    a, float("-inf")))
                chose = "exploit"
        knob, direction = arm
        action = _feasible_move(engine, knob, direction, self.step_fraction)
        if action is None:
            return
        self._last_arm = arm
        engine.note(arm=f"{knob}{'+' if direction > 0 else '-'}", mode=chose)
        yield action


#: Interchangeable planners by name — the BENCH-DECIDE matrix axis.
PLANNERS = {
    ThresholdPlanner.name: ThresholdPlanner,
    MarginalUtilityPlanner.name: MarginalUtilityPlanner,
    HillClimbPlanner.name: HillClimbPlanner,
    EpsilonGreedyPlanner.name: EpsilonGreedyPlanner,
}


def make_planner(name: str, rng=None, **kwargs) -> Planner:
    """Build a planner by registry name; *rng* feeds the bandit."""
    try:
        cls = PLANNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown planner {name!r} (have {sorted(PLANNERS)})"
        ) from None
    if cls is EpsilonGreedyPlanner:
        return cls(rng, **kwargs)
    return cls(**kwargs)
