"""Benchmark of the exact cuntzmod stack.

    python3 exactbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads: sf_sweep, equality, invariants, cli (see README.md).  With
``--trace 0`` the last stdout line holds the end-to-end metrics of an
untraced run, with ``--trace 1`` the per-layer metrics of a traced run:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a ``{"detail": ...}`` object: tail percentile and
sample count, set-up samples, run diagnostics and provenance.

Measuring happens in a worker process.  ``setup_s`` is the median over
SETUP_PROBES more workers that only set up: the CPU time each spends from
its start until it could run its first op, scaled to nominal machine speed
by reference start-ups run between them (see calibrate.py).  Workers and
their children get one BLAS/OpenMP thread: the workloads are
single-threaded, and idle BLAS threads only add CPU time that varies.
Exits 1 without a result if the package is missing, a worker fails or one
runs past its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import machine
from calibrate import Calibration, cpu_clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sf_sweep", "equality", "invariants", "cli")  # workloads.WORKLOADS; this file never imports the package
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, float, list[str]]:
    """Start one worker; return its set-up wall and CPU seconds and the
    stdout lines after the ready line."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} ran past {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker {args} never reported ready")
    _, ready_at, cpu = lines[0].split()
    return float(ready_at) - started, float(cpu), lines[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "cuntzmod", "__init__.py")):
        print(f"error: no cuntzmod package under {SRC}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        _, _, lines = run_worker([*common, "--trace", str(args.trace)], WORKER_TIMEOUT_S)
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        detail = result.pop("detail")
        if not args.trace:
            calibration = Calibration.startup()
            wall, samples = [], []
            for _ in range(SETUP_PROBES):
                calibration.mark()
                start = cpu_clock()
                wall_s, cpu_s, _ = run_worker([*common, "--setup-only"], PROBE_TIMEOUT_S)
                wall.append(wall_s)
                samples.append((start, cpu_s))
            calibration.mark()
            result["metrics"] = {
                "setup_s": {"value": calibration.median_nominal(samples), "unit": "s"},
                **result["metrics"],
            }
            detail["setup_s"] = {
                "nominal": [calibration.nominal(*sample) for sample in samples],
                "cpu_unscaled": [cpu_s for _, cpu_s in samples],
                "reference": calibration.readings,
                "wall": wall,
            }
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail["provenance"] = machine.provenance(ROOT)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
