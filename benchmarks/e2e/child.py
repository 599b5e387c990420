"""One (workload, seed) run in a fresh process; prints one JSON object.

Started by ``run.py``, never by hand: the parent passes its own
``perf_counter`` reading at spawn time (CLOCK_MONOTONIC is shared
between processes), so ``setup_s`` covers interpreter start, importing
``repro``, the builder and any preload — everything before the measured
phase.  Host times are raw here; the parent scales them by the
host-speed calibration it measures between children.  End-to-end numbers
come from untraced children only; a traced child adds the span
aggregates and the per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sample-every", type=int, default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer(sample_every=args.sample_every).install()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scenario = workload.build(args.seed, args.smoke)
    workload.prepare(scenario)
    env = scenario.deployment.env
    if tracer is not None:
        tracer.sim_clock = lambda: env.now
        tracer.reset()
        workloads.start_profiler(scenario)
    before = workloads.counters(scenario)
    phase_start = env.now

    started = time.perf_counter()
    setup_s = started - args.spawned_at
    workload.run(scenario)
    wall_s = time.perf_counter() - started
    # Snapshot before the checks below call back into traced code.
    after = workloads.counters(scenario)
    report = tracer.report() if tracer is not None else None

    if args.corrupt:
        # Self-test of the output checks: lose one measured operation.
        client = workload.clients(scenario)[0]
        victim = next(op for op in client.history if op.op != "create")
        victim.ok = False
    result = workloads.simulated_metrics(workload, scenario, phase_start,
                                         args.smoke)
    result["workload"] = workload.name
    result["seed"] = args.seed
    result["events"] = after["events"] - before["events"]
    if tracer is not None:
        result["traced_wall_s"] = wall_s
        result["per_layer"] = workloads.per_layer_metrics(
            workload, scenario, report, before, after, wall_s)
        result["boundaries"] = report["boundaries"]
        if args.sample_every:
            result["raw_spans"] = tracer.raw_spans()
    else:
        result["metrics"].update(
            wall_s=wall_s,
            setup_s=setup_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
