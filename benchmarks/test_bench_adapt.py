"""BENCH-ADAPT: quality-of-adaptation scorecard on a disturbance scenario.

The SEAMS community's complaint (PAPERS.md, arXiv:2103.11481) is that
self-adaptive systems report *that* they adapt, not *how well*.  This
bench drives the paper's self-optimization engine (the cache tuner)
through a seeded disturbance scenario — a Zipf hot-spot read load whose
hot set jumps mid-run, followed by a provider-churn window — and scores
each configuration with the control-theoretic quality metrics the
:class:`AdaptationScorecard` computes from the decision journal and the
throughput signal:

- **SLO-violation seconds** — time the per-op client throughput spent
  below the band (the signal is bimodal: cache hits stream at NIC rate,
  misses at provider rate, so the band edge separates the two modes);
- **settling time** — seconds after each disturbance until the signal
  holds in band;
- **overshoot**, **decision churn/oscillations**, **time-to-effect** —
  the control-effort side.

Four configurations run on the same seed: tuner-off (baseline), the
default planner, an aggressive planner (2x step fraction) and a
conservative one (0.4x).  The shape asserted: the tuner must cut
SLO-violation seconds well below the baseline, must settle after the
hot-set shift where the baseline never does, and the journal must be
observably inert (journal-on and journal-off runs produce byte-identical
observables).

Environment knobs:

- ``BENCH_ADAPT_SIZES=small`` — 4 readers / 120 s sim (a quick local
  tier); default (``full``) runs 6 readers / 170 s and is what CI runs
  and diffs ``results/ADAPT.txt`` against.
"""

import os

from _util import env_stats, once, report

from repro.workloads import build_disturbance_scenario

SIZES = {
    "small": dict(readers=4, duration=120.0, shift_at=40.0,
                  churn_at=80.0, churn_heal_s=20.0),
    "full": dict(),
}

SEED = 1

#: The four planner configurations scored on the same seeded scenario.
CONFIGS = [
    ("tuner-off", dict(with_tuner=False)),
    ("tuner-on", dict()),
    ("aggressive", dict(tuner_step_fraction=0.5)),
    ("conservative", dict(tuner_step_fraction=0.1)),
]

#: Ceiling on tuner-on SLO-violation seconds relative to the baseline
#: (measured ~0.26x full / ~0.33x small; 0.75 leaves robust headroom).
MAX_VIOLATION_RATIO = 0.75


def _size_kwargs():
    raw = os.environ.get("BENCH_ADAPT_SIZES", "full").strip()
    if raw not in SIZES:
        raise ValueError(f"unknown BENCH_ADAPT_SIZES: {raw!r} "
                         f"(expected one of {sorted(SIZES)})")
    return dict(SIZES[raw])


def _run_config(name, overrides, size_kwargs, with_journal=True):
    scenario = build_disturbance_scenario(
        with_journal=with_journal, seed=SEED, **size_kwargs, **overrides)
    scenario.run()
    score = scenario.scorecard()
    fleet = score["fleet"]
    disturbances = score["signals"]["throughput"]["disturbances"]
    engines = score["engines"].get("cache-tuner", {})
    return {
        "config": name,
        "scenario": scenario,
        "score": score,
        "slo_violation_s": fleet["slo_violation_s"],
        "settle_shift_s": disturbances["hot_set_shift"]["settling_s"],
        "settle_churn_s": disturbances["provider_churn"]["settling_s"],
        "overshoot": fleet["max_overshoot"],
        "decisions": fleet["decisions"],
        "oscillations": fleet["oscillations"],
        "churn_per_min": engines.get("churn_per_min", 0.0),
        "time_to_effect_s": engines.get("mean_time_to_effect_s"),
        "delivered_mb": scenario.total_read_mb(),
    }


def _fmt_s(value):
    return f"{value:.1f}" if value is not None else "never"


def test_bench_adapt(benchmark):
    size_kwargs = _size_kwargs()

    def run_all():
        results = [_run_config(name, overrides, size_kwargs)
                   for name, overrides in CONFIGS]
        # The determinism gate: a journal-off twin of the tuner-on run
        # must produce byte-identical observables (the journal never
        # perturbs the simulation).
        twin = build_disturbance_scenario(with_journal=False, seed=SEED,
                                          **size_kwargs)
        twin.run()
        return results, twin.observables()

    (results, twin_obs) = once(benchmark, run_all)
    by_name = {r["config"]: r for r in results}
    on = by_name["tuner-on"]
    off = by_name["tuner-off"]

    assert on["scenario"].observables() == twin_obs, (
        "journal-on run diverged from its journal-off twin: the journal "
        "must be observably inert")

    rows = [
        (r["config"], f"{r['slo_violation_s']:.1f}",
         _fmt_s(r["settle_shift_s"]), _fmt_s(r["settle_churn_s"]),
         f"{r['overshoot']:.3f}", r["decisions"], r["oscillations"],
         f"{r['churn_per_min']:.1f}", _fmt_s(r["time_to_effect_s"]),
         f"{r['delivered_mb']:.0f}")
        for r in results
    ]
    ratio = (on["slo_violation_s"] / off["slo_violation_s"]
             if off["slo_violation_s"] else 0.0)
    env = on["scenario"].deployment.env
    report(
        "ADAPT",
        "quality of adaptation under hot-set shift + provider churn "
        "(SLO: per-op client throughput >= 120 MB/s)",
        ["config", "slo_violation_s", "settle_shift_s", "settle_churn_s",
         "overshoot", "decisions", "oscillations", "churn/min",
         "time_to_effect_s", "delivered_mb"],
        rows,
        notes=[
            f"tuner-on spent {ratio:.2f}x the baseline's time in SLO "
            f"violation (ceiling {MAX_VIOLATION_RATIO}x)",
            "the baseline never settles after the hot-set shift; every "
            "tuner configuration does",
            "journal-on observables verified byte-identical to a "
            "journal-off twin (the journal is observably inert)",
        ],
        stats=env_stats(env, on["scenario"].deployment.net,
                        deployment=on["scenario"].deployment),
        headline={"metric": "slo_violation_ratio_on_vs_off",
                  "value": round(ratio, 3)},
    )

    # Shape assertions: adaptation must pay for itself on this scenario.
    assert off["decisions"] == 0 and on["decisions"] > 0
    assert on["slo_violation_s"] <= MAX_VIOLATION_RATIO * off["slo_violation_s"], (
        f"tuner-on must cut SLO violation well below baseline: "
        f"{on['slo_violation_s']:.1f}s vs {off['slo_violation_s']:.1f}s")
    assert off["settle_shift_s"] is None, (
        "the tuner-off baseline should never settle after the hot-set "
        "shift (its fixed caches keep missing)")
    for name in ("tuner-on", "aggressive", "conservative"):
        assert by_name[name]["settle_shift_s"] is not None, (
            f"{name} must settle after the hot-set shift")
    assert (by_name["conservative"]["oscillations"]
            <= by_name["tuner-on"]["oscillations"]), (
        "a smaller step fraction must not oscillate more than the default")
