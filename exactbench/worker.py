"""The measuring process, started by run.py with the checkout's ``src`` on
PYTHONPATH.  Single-threaded and closed-loop: each op starts when the
previous one has finished.

  --setup-only   import and make the first round's inputs, report ready
  --trace 0      run whole rounds until --seconds have passed
  --trace 1      the traced op sample, microbenchmarks, start-up

It prints ``ready <monotonic seconds> <process CPU seconds>`` once the
first op could start and its result as one JSON line at the end.  Times
are CPU seconds scaled to nominal machine speed (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import machine
import stats
from calibrate import Calibration, cpu_clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".bench_out")
MIN_ROUNDS = 2


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def measure(workload, rng, first_round, seconds: float) -> dict:
    import workloads

    cpu_before = machine.cpu_times()
    calibration = Calibration() if workload.in_process else Calibration.startup()
    rounds = []
    ops = first_round
    started = time.perf_counter()
    while True:
        rounds.append(workloads.run_round(ops, cpu_clock, calibration.mark_if_due))
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
            break
        ops = workload.round(rng)
    calibration.mark()
    summary = stats.summarise([r.nominal(calibration) for r in rounds], workload.tail_permille)
    unscaled = stats.summarise(rounds, workload.tail_permille)
    metrics = {
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_tail_ms": (summary["op_tail_ms"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(children=not workload.in_process), "MB"),
        "success_rate": (summary["success_rate"], "share"),
    }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
        "detail": {
            "rounds": summary["rounds"],
            "tail": summary["tail"],
            "percentiles_ms": summary["percentiles_ms"],
            "cpu_unscaled": {key: unscaled[key] for key in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
            "wall_s": time.perf_counter() - started,
            "scale": calibration.factor(),
            "calibrations": len(calibration.readings),
            "peak_rss_of": "worker" if workload.in_process else "largest child",
            "steal_share": machine.steal_share(cpu_before, machine.cpu_times()),
            "loadavg_1m": machine.loadavg_1m(),
        },
    }


def trace(workload, seed: int, seconds: float) -> dict:
    import layers

    cpu_before = machine.cpu_times()
    tracer, failed, overhead = layers.traced_sample(workload, seed)
    figures = {**layers.trace_counts(tracer), **layers.trace_shares(tracer)}
    figures["trace.overhead_ratio"] = overhead
    calibration = Calibration()
    timed, failures = layers.microbenchmarks(calibration, budget_s=max(1.0, seconds / 2))
    cli_main, failed_checks = layers.cli_main_times(calibration)
    timed.update(cli_main)
    failures.extend(failed_checks)
    calibration.mark()
    startup_calibration = Calibration.startup()
    startup, failed_checks = layers.startup(startup_calibration)
    failures.extend(failed_checks)
    startup_calibration.mark()
    for cal, figures_timed in ((calibration, timed), (startup_calibration, startup)):
        figures.update({name: per * cal.median_nominal(samples) for name, (samples, per) in figures_timed.items()})
    figures["machine.steal_share"] = machine.steal_share(cpu_before, machine.cpu_times()) or 0.0
    figures["machine.loadavg_1m"] = machine.loadavg_1m() or 0.0
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}.jsonl")
    tracer.write(path)
    return {
        "correct": failed == 0 and not failures,
        "attempted": tracer.ops,
        "failed": failed,
        "metrics": {name: (figures[name], unit) for name, unit in layers.PER_LAYER_UNITS.items()},
        "detail": {
            "spans_file": os.path.relpath(path, ROOT),
            "failed_checks": failures,
            "scale": calibration.factor(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # imports the package under test

    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    first_round = None if args.trace else workload.round(rng)
    print(f"ready {time.monotonic()!r} {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = trace(workload, args.seed, args.seconds)
    else:
        result = measure(workload, rng, first_round, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
