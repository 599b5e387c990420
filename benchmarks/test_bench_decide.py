"""BENCH-DECIDE: the planner matrix — drop-in decision techniques, scored
on one disturbance scenario and one two-loop contention scenario.

The decision framework's claim (ROADMAP item 4, SEAMS arXiv:2103.11481 /
RDMSim arXiv:2105.01978) is that alternative decision techniques become
*drop-in comparable*: same sensors, same actuators, same provenance
journal, same scorecard — only the Plan stage swaps.  This bench runs
the matrix:

- **marginal-utility** — the :class:`CacheTuner` default: rank growers
  by evictions/s per MB, fund them by shrinking idle or spare caches;
- **threshold** — the memoryless ECA control arm;
- **hill-climb** — reward-driven local search on client throughput;
- **epsilon-greedy** — a bandit over (cache, ±step) arms, drawing from
  the dedicated ``decision:bandit`` stream only.

Each planner is scored twice:

1. on the BENCH-ADAPT **disturbance scenario** (hot-set shift +
   provider churn): SLO-violation seconds, settling time, overshoot,
   decision churn, oscillations, time-to-effect;
2. on the **contention scenario**: the cache tuner and the elasticity
   controller fight over one conserved ``memory_mb`` ledger under the arbiter (elasticity outranks; slack is deliberately
   smaller than one scale-up, so growth must preempt cache bytes).  The
   ledger invariant ``used <= capacity`` is asserted for every planner.

Environment knobs:

- ``BENCH_DECIDE_SIZES=small`` — 4 readers / 120 s disturbance + 100 s
  contention (a quick local tier); default (``full``) runs the
  BENCH-ADAPT geometry (6 readers / 170 s) + 120 s contention and is
  what CI runs and diffs ``results/DECIDE.txt`` against.
"""

import os

from _util import env_stats, once, report

from repro.workloads import build_contention_scenario, build_disturbance_scenario

SIZES = {
    "small": {
        "disturbance": dict(readers=4, duration=120.0, shift_at=40.0,
                            churn_at=80.0, churn_heal_s=20.0),
        "contention": dict(duration=100.0),
    },
    "full": {
        "disturbance": dict(),
        "contention": dict(),
    },
}

SEED = 1

#: The matrix axis: ``planner=`` of both scenario builders.
PLANNER_MATRIX = ["marginal-utility", "threshold", "hill-climb",
                  "epsilon-greedy"]


def _size_kwargs():
    raw = os.environ.get("BENCH_DECIDE_SIZES", "full").strip()
    if raw not in SIZES:
        raise ValueError(f"unknown BENCH_DECIDE_SIZES: {raw!r} "
                         f"(expected one of {sorted(SIZES)})")
    return SIZES[raw]


def _fmt_s(value):
    return f"{value:.1f}" if value is not None else "never"


def _run_disturbance(planner, kwargs):
    scenario = build_disturbance_scenario(
        with_journal=True, seed=SEED, planner=planner, **kwargs)
    scenario.run()
    score = scenario.scorecard()
    fleet = score["fleet"]
    disturbances = score["signals"]["throughput"]["disturbances"]
    engine = score["engines"].get("cache-tuner", {})
    return {
        "config": planner,
        "scenario": scenario,
        "slo_violation_s": fleet["slo_violation_s"],
        "settle_shift_s": disturbances["hot_set_shift"]["settling_s"],
        "overshoot": fleet["max_overshoot"],
        "decisions": fleet["decisions"],
        "oscillations": fleet["oscillations"],
        "churn_per_min": engine.get("churn_per_min", 0.0),
        "time_to_effect_s": engine.get("mean_time_to_effect_s"),
        "planner_reported": engine.get("planner"),
        "delivered_mb": scenario.total_read_mb(),
    }


def _run_contention(planner, kwargs):
    scenario = build_contention_scenario(
        with_journal=True, seed=0, planner=planner, **kwargs)
    scenario.run()
    ledger = scenario.arbiter.ledgers["memory_mb"]
    # The acceptance invariant: the conserved budget is never exceeded,
    # under any planner (also checked live on every settlement).
    assert ledger.peak_used <= ledger.capacity + 1e-9, (
        f"{planner}: ledger overspent ({ledger.peak_used} > {ledger.capacity})")
    score = scenario.scorecard()
    fleet = score["fleet"]
    disturbances = score["signals"]["throughput"]["disturbances"]
    return {
        "config": planner,
        "scenario": scenario,
        "slo_violation_s": fleet["slo_violation_s"],
        "settle_shift_s": disturbances["hot_set_shift"]["settling_s"],
        "overshoot": fleet["max_overshoot"],
        "decisions": fleet["decisions"],
        "oscillations": fleet["oscillations"],
        "scale_ups": scenario.elasticity.scale_ups,
        "preemptions": len(scenario.arbiter.preemptions),
        "denials": scenario.arbiter.denials,
        "ledger_peak_pct": 100.0 * ledger.peak_used / ledger.capacity,
        "delivered_mb": scenario.total_read_mb(),
    }


def test_bench_decide(benchmark):
    sizes = _size_kwargs()

    def run_all():
        disturbance = [_run_disturbance(planner, sizes["disturbance"])
                       for planner in PLANNER_MATRIX]
        contention = [_run_contention(planner, sizes["contention"])
                      for planner in PLANNER_MATRIX]
        return disturbance, contention

    disturbance, contention = once(benchmark, run_all)
    reference = disturbance[0]
    assert reference["config"] == "marginal-utility"

    rows = [
        ("disturbance", r["config"], f"{r['slo_violation_s']:.1f}",
         _fmt_s(r["settle_shift_s"]), f"{r['overshoot']:.3f}",
         r["decisions"], r["oscillations"], f"{r['churn_per_min']:.1f}",
         _fmt_s(r["time_to_effect_s"]), f"{r['delivered_mb']:.0f}", "-", "-")
        for r in disturbance
    ] + [
        ("contention", r["config"], f"{r['slo_violation_s']:.1f}",
         _fmt_s(r["settle_shift_s"]), f"{r['overshoot']:.3f}",
         r["decisions"], r["oscillations"], "-", "-",
         f"{r['delivered_mb']:.0f}",
         f"{r['scale_ups']}/{r['preemptions']}/{r['denials']}",
         f"{r['ledger_peak_pct']:.0f}%")
        for r in contention
    ]

    env = reference["scenario"].deployment.env
    report(
        "DECIDE",
        "planner matrix: interchangeable decision techniques on the "
        "disturbance + two-loop contention scenarios "
        "(SLO: client throughput >= 120 MB/s)",
        ["scenario", "planner", "slo_violation_s", "settle_shift_s",
         "overshoot", "decisions", "oscillations", "churn/min",
         "time_to_effect_s", "delivered_mb", "ups/preempt/deny",
         "ledger_peak"],
        rows,
        notes=[
            "contention: elasticity (band 0) preempts cache capacity "
            "(band 1) on one conserved memory_mb ledger; used <= capacity "
            "asserted on every settlement, for every planner",
            "epsilon-greedy draws only from the dedicated decision:bandit "
            "stream, so every other stream is identical across planners",
        ],
        stats=env_stats(env, reference["scenario"].deployment.net,
                        deployment=reference["scenario"].deployment),
        headline={
            "metric": "marginal_utility_slo_violation_s",
            "value": round(reference["slo_violation_s"], 3),
        },
    )

    # Shape assertions: the matrix is meaningful, not vacuous.
    for r in disturbance:
        assert r["planner_reported"] == r["config"], (
            f"scorecard must attribute {r['config']} decisions to its "
            f"planner (got {r['planner_reported']!r})")
        assert r["decisions"] > 0, f"{r['config']} must actually adapt"
    # Every engine's time-to-effect is populated on the disturbance run.
    assert reference["time_to_effect_s"] is not None
    for r in contention:
        assert r["scale_ups"] > 0, (
            f"{r['config']}: bulk-write load must trigger scale-ups")
        assert r["decisions"] > 0
    # With slack deliberately below one scale-up step, the reference
    # planner's growth can only be funded by preempting cache bytes.
    by_contend = {r["config"]: r for r in contention}
    assert by_contend["marginal-utility"]["preemptions"] > 0
