"""Start-up harness for the CLI: child CPU time of one ``python -m
cuntzmod.cli`` process per verb of the benchmark's ``cli`` workload
(``workloads.cli_argvs``, one cycle of eight command lines), net of a
``python -c pass`` floor child timed in the same round.

Each child's user + system CPU comes from ``os.wait4``, so the harness's
own work is not counted, and every child must exit 0 with output on
stdout, or the harness stops with a non-zero exit.  A round runs the floor
child and then every verb once.  Given more than one source tree (``--side
NAME=SRC``, each a directory holding the ``cuntzmod`` package), the sides
take turns round by round, and the side that goes first alternates, so a
drift in machine speed reaches both alike.  Children inherit this
process's environment, as the benchmark's do: where
``PYTHONDONTWRITEBYTECODE`` is set, each one compiles the package from
source.

The report gives, per side, the median floor and, per verb, the median
net CPU milliseconds over the rounds, and their sum as one cycle.  Run it
from anywhere in a checkout:

    python3 tools/bench_cli.py [--side NAME=SRC ...] [--rounds N] [--seed S] [--out BENCH_cli.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "exactbench"))

from bench_equality import cpu_model  # noqa: E402
from workloads import cli_argvs  # noqa: E402

FLOOR = ("floor", ["-c", "pass"])


def child_cpu_ms(argv: list[str], src: str) -> float:
    """User + system CPU milliseconds of one ``python <argv>`` child with
    ``src`` first on its path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc.stdout, proc.stderr:
        # read to end of file, not communicate(), which would reap the child
        # and lose its rusage; a report or an error line fits a pipe's buffer
        out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or (argv[0] != "-c" and not out):
        raise SystemExit(f"{argv[:4]}... exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    return (usage.ru_utime + usage.ru_stime) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a source tree to time, named in the report (default: this checkout's src)")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=30, help="draws the letters of the verbs' words")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_cli.json"))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    sides = [spec.split("=", 1) for spec in args.side or [f"checkout={os.path.join(ROOT, 'src')}"]]
    if any(len(spec) != 2 for spec in sides):
        parser.error("--side takes NAME=SRC")

    commands = [FLOOR] + [(verb, ["-m", "cuntzmod.cli", *words]) for verb, words in cli_argvs(random.Random(args.seed))]
    samples = {name: {label: [] for label, _ in commands} for name, _ in sides}
    for r in range(args.rounds):
        for name, src in sides if r % 2 == 0 else sides[::-1]:
            for label, command in commands:
                samples[name][label].append(child_cpu_ms(command, os.path.abspath(src)))

    report = {
        "what": "child CPU ms (os.wait4) per cuntzmod.cli verb, net of a python -c pass child; medians over rounds",
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rounds": args.rounds,
        "seed": args.seed,
        "sides": [],
    }
    for name, _ in sides:
        floors = samples[name]["floor"]
        # each verb's child net of the floor child of its own round
        net = {label: [ms - floor for ms, floor in zip(times, floors)]
               for label, times in samples[name].items() if label != "floor"}
        side = {
            "side": name,
            "floor_ms": statistics.median(floors),
            "cycle_ms": statistics.median([sum(round_ms) for round_ms in zip(*net.values())]),
            "verbs": {label: statistics.median(ms) for label, ms in net.items()},
        }
        report["sides"].append(side)
        print(json.dumps(side), file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
