"""Compare two BENCH-E2E results files: ``compare.py A.json B.json``.

One row per (workload, seed, end-to-end metric) with both medians and
quartiles, the change, the bound and a verdict:

``improved``    B is better than A by more than the bound and A's own spread
``unchanged``   B is within the bound of A
``regressed``   B is worse than A by more than the bound
``unresolved``  A's own inter-quartile spread exceeds the bound, so a
                change of that size cannot be told from noise

Simulated metrics are exact per seed, so their bound here is 0: any
difference is a real change of behaviour, and ``sim_digest`` flags it
even where no metric moved.  Per-layer metrics follow, side by side.
Exits with 1 if any row is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import END_TO_END, PER_LAYER, SCHEMA, Metric, worse_by  # noqa: E402


def load(path: str) -> Dict[Tuple[str, int], Dict[str, Any]]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: results schema {data.get('schema')!r}, "
                         f"this compare.py reads schema {SCHEMA}")
    return {(run["workload"], run["seed"]): run for run in data["runs"]}


def bound_of(metric: Metric) -> float:
    """Same-seed comparison: a simulated metric must repeat exactly."""
    return 0.0 if metric.exact else metric.bound


def verdict(metric: Metric, a: Dict[str, float], b: Dict[str, float]) -> str:
    """The verdict on one metric of one workload (A = before, B = after)."""
    bound = bound_of(metric)
    change = worse_by(metric, a["value"], b["value"])
    spread = (a["q3"] - a["q1"]) / abs(a["value"]) if a["value"] else 0.0
    if spread > bound:
        return "unresolved"
    if change > bound and abs(b["value"] - a["value"]) > metric.floor:
        return "regressed"
    if -change > max(bound, spread):
        return "improved"
    return "unchanged"


def compare(a_runs, b_runs, out=sys.stdout) -> int:
    regressed = 0
    shared = [key for key in a_runs if key in b_runs]
    if not shared:
        raise SystemExit("the two files share no (workload, seed)")
    print(f"{'workload':<14}{'seed':>4} {'metric':<20}{'A median':>13}"
          f"{'A q1..q3':>25}{'B median':>13}{'B q1..q3':>25}{'worse by':>10}"
          f"{'bound':>7}  verdict", file=out)
    for key in shared:
        a_run, b_run = a_runs[key], b_runs[key]
        for metric in END_TO_END:
            a, b = a_run["end_to_end"][metric.name], b_run["end_to_end"][metric.name]
            result = verdict(metric, a, b)
            regressed += result == "regressed"
            print(f"{key[0]:<14}{key[1]:>4} {metric.name:<20}{a['value']:>13.6g}"
                  f"{a['q1']:>12.5g}..{a['q3']:<11.5g}{b['value']:>13.6g}"
                  f"{b['q1']:>12.5g}..{b['q3']:<11.5g}"
                  f"{worse_by(metric, a['value'], b['value']):>+10.2%}"
                  f"{bound_of(metric):>7.0%}  {result}", file=out)
        same = a_run["sim_digest"] == b_run["sim_digest"]
        print(f"{key[0]:<14}{key[1]:>4} sim_digest {'same' if same else 'CHANGED'}"
              f"  ({a_run['sim_digest'][:16]} vs {b_run['sim_digest'][:16]})",
              file=out)
    print(f"\n{'per-layer metric':<46}" + "".join(
        f"{f'{w}:{s} A':>16}{'B':>14}" for w, s in shared), file=out)
    for metric in PER_LAYER:
        cells = []
        for key in shared:
            a = a_runs[key]["per_layer"][metric.name]["value"]
            b = b_runs[key]["per_layer"][metric.name]["value"]
            cells.append(f"{a:>16.6g}{b:>14.6g}")
        print(f"{metric.name:<46}" + "".join(cells), file=out)
    print(f"\n{regressed} regressed row(s)", file=out)
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results file of the parent (before)")
    parser.add_argument("b", help="results file of the change (after)")
    args = parser.parse_args(argv)
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())
