"""BENCH-E2E: the end-to-end benchmark of the simulated BlobSeer stack.

Full run (what a person reads; see README.md)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--repeats K]
                                  [--smoke] [--out FILE] [--spans-out FILE]

Per workload: one discarded warm-up child, ``--repeats`` timed children
with tracing off, one traced child.  Prints every end-to-end metric with
unit, direction and sample count, then the per-layer table of the traced
run, checks every workload's outputs and writes one results JSON.

Driver run (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Runs timed children of one workload until S seconds have passed (at
least three), or with ``--trace 1`` one untraced and one traced child,
and prints one JSON object as the last line of standard output.

Every (workload, repeat) runs in a fresh child Python process, one at a
time: the simulator is single-threaded, and a second busy core would
only add noise to the first.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from calibration import CALIBRATION_REF_S, calibrate, host_factor  # noqa: E402
from spec import (  # noqa: E402
    DRIVER_END_TO_END, END_TO_END, PER_LAYER, SCHEMA, WORKLOADS, summary,
)

MIN_DRIVER_REPEATS = 3


class BenchmarkFailure(Exception):
    """An output check failed or a simulated value did not repeat."""


class HostSpeed:
    """Calibrations taken around a group of children (one on creation,
    one after every child) and the scaling factor they give."""

    def __init__(self, smoke: bool = False) -> None:
        # Smoke numbers are never reported, so a tenth of the work will do.
        self.events = 30_000 if smoke else 300_000
        self.samples = [calibrate(self.events)]

    def sample(self) -> None:
        self.samples.append(calibrate(self.events))

    @property
    def factor(self) -> float:
        return host_factor(self.samples)


# -- children ----------------------------------------------------------------------
def run_child(workload: str, seed: int, *, traced: bool = False,
              smoke: bool = False, sample_every: int = 0,
              corrupt: bool = False) -> Dict[str, Any]:
    """One fresh child process; returns its parsed result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkFailure(f"{ROOT / 'src' / 'repro'} not found: the "
                               "benchmark drives the simulator from source")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--spawned-at", repr(time.perf_counter())]
    if traced:
        command += ["--traced", "--sample-every", str(sample_every)]
    if smoke:
        command.append("--smoke")
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, env=env, cwd=str(ROOT), text=True,
                          stdout=subprocess.PIPE, timeout=170)
    if done.returncode != 0:
        raise BenchmarkFailure(f"child {workload} seed {seed} exited with "
                               f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["check_failures"]:
        raise BenchmarkFailure(f"{workload} seed {seed}: output checks failed: "
                               + "; ".join(result["check_failures"]))
    return result


def require_identical(results: List[Dict[str, Any]]) -> None:
    """Simulated metrics, counts and the digest must repeat exactly."""
    first = results[0]
    exact = [m.name for m in END_TO_END if m.exact]
    for other in results[1:]:
        for name in exact:
            if other["metrics"][name] != first["metrics"][name]:
                raise BenchmarkFailure(
                    f"{first['workload']} seed {first['seed']}: {name} differs "
                    f"between repeats ({first['metrics'][name]!r} vs "
                    f"{other['metrics'][name]!r})")
        for key in ("counts", "sim_digest", "events"):
            if other[key] != first[key]:
                raise BenchmarkFailure(
                    f"{first['workload']} seed {first['seed']}: {key} differs "
                    "between repeats")


def end_to_end(timed: List[Dict[str, Any]], factor: float) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric with its statistics over the timed repeats.

    Host seconds are scaled to the reference host's speed by *factor*
    (from the calibrations taken between the same children); the raw
    median and the factor are kept beside the scaled values."""
    out = {}
    for metric in END_TO_END:
        raw = [r["metrics"][metric.name] for r in timed]
        scale = factor if metric.scaled else 1.0
        entry = summary([value * scale for value in raw])
        entry.update(unit=metric.unit, better=metric.better,
                     time="sim" if metric.exact else "host")
        if metric.scaled:
            entry.update(raw=summary(raw)["value"], host_factor=factor)
        out[metric.name] = entry
    return out


def per_layer(traced: Dict[str, Any], factor: float,
              untraced_wall_s: float) -> Dict[str, Dict[str, Any]]:
    """The traced child's per-layer metrics: host seconds scaled by the
    calibrations taken around the traced child, and the three metrics
    that relate it to the untraced (scaled) wall time filled in."""
    values = {name: value * factor if name.endswith(".self_s") else value
              for name, value in traced["per_layer"].items()}
    events = values["simulation.events"]
    values["simulation.events_per_s"] = events / untraced_wall_s
    values["simulation.us_per_event"] = 1e6 * untraced_wall_s / max(1, events)
    values["trace.overhead_ratio"] = (
        traced["traced_wall_s"] * factor / untraced_wall_s)
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


def timed_runs(workload: str, seed: int, enough, *, smoke: bool = False,
               corrupt: bool = False):
    """Timed children, one after another, until ``enough(count)``; returns
    their results and the host-speed factor measured between them."""
    speed = HostSpeed(smoke)
    timed: List[Dict[str, Any]] = []
    while not enough(len(timed)):
        timed.append(run_child(workload, seed, smoke=smoke, corrupt=corrupt))
        speed.sample()
    require_identical(timed)
    return timed, speed.factor


def traced_run(workload: str, seed: int, reference: Dict[str, Any],
               untraced_wall_s: float, *, smoke: bool = False,
               sample_every: int = 0):
    """The traced child and its per-layer metrics; its simulated outcome
    must match the untraced *reference*."""
    speed = HostSpeed(smoke)
    traced = run_child(workload, seed, traced=True, smoke=smoke,
                       sample_every=sample_every)
    speed.sample()
    if traced["sim_digest"] != reference["sim_digest"]:
        raise BenchmarkFailure(f"{workload} seed {seed}: the traced run's "
                               "sim_digest differs from the untraced one")
    return traced, per_layer(traced, speed.factor, untraced_wall_s)


# -- the full run --------------------------------------------------------------------
def run_workload(workload: str, seed: int, repeats: int, *, smoke: bool,
                 sample_every: int = 0, corrupt: bool = False) -> Dict[str, Any]:
    run_child(workload, seed, smoke=smoke)  # warm-up, discarded
    timed, factor = timed_runs(workload, seed, lambda n: n >= repeats,
                               smoke=smoke, corrupt=corrupt)
    e2e = end_to_end(timed, factor)
    traced, layers = traced_run(workload, seed, timed[0], e2e["wall_s"]["value"],
                                smoke=smoke, sample_every=sample_every)
    record = {
        "workload": workload,
        "seed": seed,
        "repeats": repeats,
        "end_to_end": e2e,
        "counts": timed[0]["counts"],
        "events": timed[0]["events"],
        "sim_digest": timed[0]["sim_digest"],
        "checks": "ok",
        "per_layer": layers,
        "boundaries": traced["boundaries"],
    }
    if "raw_spans" in traced:
        record["raw_spans"] = traced["raw_spans"]
    return record


def host_info() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def slo_constants(probe: bool) -> Dict[str, Any]:
    """The pinned latency limits; with *probe*, measured again (in a
    child, so this process never imports the simulator)."""
    script = ("import json, workloads; "
              f"print(json.dumps(workloads.slo_table({probe!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout)


def print_record(record: Dict[str, Any]) -> None:
    counts = record["counts"]
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"({counts['ok']}/{counts['attempted']} ops ok over "
          f"{counts['span_sim_s']:.4f} sim s, {record['events']} events, "
          f"tail = p{(counts['tail_percentile'] or 1) * 100:g} with "
          f"{counts['tail_samples_beyond']} samples beyond, "
          f"slo_op_s = {counts['slo_op_s']:.6f})")
    print(f"   sim_digest {record['sim_digest']}  checks {record['checks']}")
    wall = record["end_to_end"]["wall_s"]
    print(f"   host seconds are reference-host seconds: raw x {wall['host_factor']:.4f} "
          f"(raw wall_s {wall['raw']:.6g}, raw setup_s "
          f"{record['end_to_end']['setup_s']['raw']:.6g})")
    print(f"   {'end-to-end metric':<22}{'median':>14} {'unit':<10}{'better':<7}"
          f"{'time':<5}{'q1':>13}{'q3':>13}{'min':>13}{'n':>3}")
    for name, e in record["end_to_end"].items():
        print(f"   {name:<22}{e['value']:>14.6g} {e['unit']:<10}{e['better']:<7}"
              f"{e['time']:<5}{e['q1']:>13.6g}{e['q3']:>13.6g}{e['min']:>13.6g}"
              f"{e['n']:>3}")
    print(f"   {'per-layer metric (traced run)':<46}{'value':>14} unit")
    for name, e in record["per_layer"].items():
        print(f"   {name:<46}{e['value']:>14.6g} {e['unit']}")


def full_run(args) -> int:
    names = args.workload or list(WORKLOADS)
    seeds = args.seed or [0]
    records = []
    for seed in seeds:
        for name in names:
            record = run_workload(name, seed, args.repeats, smoke=args.smoke,
                                  sample_every=args.sample_every if args.spans_out
                                  else 0, corrupt=args.corrupt)
            print_record(record)
            records.append(record)
    if args.spans_out:
        spans = {f"{r['workload']}:{r['seed']}": r.pop("raw_spans", [])
                 for r in records}
        Path(args.spans_out).write_text(json.dumps(spans))
    results = {
        "schema": SCHEMA,
        "kind": "bench-e2e",
        "host": host_info(),
        "config": {"repeats": args.repeats, "smoke": args.smoke, "seeds": seeds,
                   "calibration_ref_s": CALIBRATION_REF_S},
        "slo": slo_constants(args.probe_slo),
        "runs": records,
    }
    if args.out:
        out = Path(args.out)
    else:
        # A new file per run, beside the committed baseline: history is
        # appended to, never overwritten.
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
        out = HERE / "results" / f"run-{stamp}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults written to {out}")
    return 0


# -- the driver run ------------------------------------------------------------------
def driver_run(args) -> int:
    (workload,), (seed,) = args.workload, args.seed or [0]
    started = time.perf_counter()
    if args.trace:
        timed, factor = timed_runs(workload, seed, lambda n: n >= 1)
        wall_s = end_to_end(timed, factor)["wall_s"]["value"]
        _traced, metrics = traced_run(workload, seed, timed[0], wall_s)
    else:
        timed, factor = timed_runs(
            workload, seed, lambda n: n >= MIN_DRIVER_REPEATS
            and time.perf_counter() - started >= args.seconds)
        e2e = end_to_end(timed, factor)
        metrics = {m.name: {"value": e2e[m.name]["value"], "unit": m.unit}
                   for m in DRIVER_END_TO_END}
    counts = timed[0]["counts"]
    raw_wall_s = summary([r["metrics"]["wall_s"] for r in timed])["value"]
    print(f"{workload} seed {seed}: {len(timed)} timed children in "
          f"{time.perf_counter() - started:.1f} s, raw wall_s {raw_wall_s:.4f} "
          f"x host factor {factor:.4f}, sim_digest {timed[0]['sim_digest'][:16]}")
    print(json.dumps({
        "correct": True,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="workload seed (repeatable; default: 0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed children per workload (default 5, minimum 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the test suite; never for reported numbers")
    parser.add_argument("--out", help="results file (default: a new timestamped "
                                      "file under results/)")
    parser.add_argument("--spans-out", help="also dump the raw spans of every "
                                            "N-th client operation")
    parser.add_argument("--sample-every", type=int, default=100,
                        help="N of --spans-out (default 100)")
    parser.add_argument("--probe-slo", action="store_true",
                        help="measure the unloaded latencies again and record them")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one client history; the run must fail")
    parser.add_argument("--seconds", type=float,
                        help="driver run: measure for this long (needs one --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver run: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = parser.parse_args(argv)
    driver = args.seconds is not None or args.trace is not None
    if driver and (not args.workload or len(args.workload) != 1
                   or len(args.seed or [0]) != 1):
        parser.error("a driver run takes exactly one --workload and one --seed")
    if args.repeats < 3:
        parser.error("--repeats must be at least 3")
    try:
        if driver:
            args.seconds = args.seconds or 0.0
            return driver_run(args)
        return full_run(args)
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
