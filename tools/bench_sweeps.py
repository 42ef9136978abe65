"""Layer harness for the named invariant sweeps: CPU time of each sweep of
the benchmark's ``invariants`` workload, plus ``tomita_sweep(3, 2)`` from
acceptance criterion 3, which the workload leaves out for its length, one
chunk of criterion 1, ``sf_closed_form_chunk(4, 2, 3)``, whose 1,024 cases
each run the modular certificate and the spectral flow, and
``homotopy_sweep(2, 21)``, whose sampled paths build rotation blocks,
``keyfact_sweep(3, 1)``, the key-fact check on three letters, and
``cocycle_five_term(51)``, the b-defect on acceptance criterion 4's 1,000
random triples of up to five terms in O_3 (drawn once, with seed 51, by the
tests' ``random_element``, as the criterion draws them).

The harness first runs every sweep once and checks that it reports the case
count its size fixes and no failure; it exits non-zero if one does not.
Then it times every sweep once per round, for ROUNDS rounds, in CPU time,
and writes each sweep's median, and the sum of the medians over the
workload's nine sweeps (one workload round), to a JSON file.  Run it from
anywhere in a checkout:

    python3 tools/bench_sweeps.py [--out BENCH_sweeps.json]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "exactbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from bench_equality import cpu_model  # noqa: E402
from conftest import random_element  # noqa: E402
from cuntzmod import endos, flow, matrices, modular  # noqa: E402
from workloads import INVARIANT_SWEEPS  # noqa: E402


@functools.cache
def _five_term_triples(seed: int) -> list:
    rng = random.Random(seed)
    return [tuple(random_element(rng, 3, max_terms=5, allow_zero=False) for _ in range(3)) for _ in range(1000)]


def cocycle_five_term(seed: int) -> dict:
    """b theta on criterion 4's random triples, in the sweeps' report shape;
    the triples are drawn on the first call and kept."""
    triples = _five_term_triples(seed)
    failures = sum(not flow.cocycle_b_defect(*t).is_zero for t in triples)
    return {"cases": len(triples), "failures": failures}


EXTRA_SWEEPS = (
    (modular, "tomita_sweep", (3, 2), 172549),
    (flow, "sf_closed_form_chunk", (4, 2, 3), 1024),
    (matrices, "homotopy_sweep", (2, 21), 4),
    (endos, "keyfact_sweep", (3, 1), 80),
    (sys.modules[__name__], "cocycle_five_term", (51,), 1000),
)
ROUNDS = 7  # timed calls of each sweep


def cpu_ms_round_robin(calls) -> list[float]:
    """Median CPU milliseconds of each call over ROUNDS rounds; each round
    runs every call once, so a change in machine speed between rounds
    reaches all of them alike."""
    samples = [[] for _ in calls]
    for _ in range(ROUNDS):
        for out, (fn, args) in zip(samples, calls):
            start = time.process_time()
            fn(*args)
            out.append((time.process_time() - start) * 1e3)
    return [statistics.median(s) for s in samples]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_sweeps.json"))
    args = parser.parse_args(argv)

    sweeps = [(module, name, sweep_args, cases, True) for module, name, sweep_args, cases in INVARIANT_SWEEPS]
    sweeps += [(module, name, sweep_args, cases, False) for module, name, sweep_args, cases in EXTRA_SWEEPS]
    for module, name, sweep_args, cases, _ in sweeps:
        report = getattr(module, name)(*sweep_args)
        if report["cases"] != cases or report["failures"]:
            raise SystemExit(f"{name}{sweep_args}: {report['cases']} cases (expected {cases}), "
                             f"{report['failures']} failures")

    medians = cpu_ms_round_robin([(getattr(module, name), sweep_args) for module, name, sweep_args, _, _ in sweeps])
    rows = []
    for (_, name, sweep_args, cases, in_round), ms in zip(sweeps, medians):
        row = {"sweep": name, "args": list(sweep_args), "cases": cases, "in_round": in_round,
               "ms": ms, "us_per_case": ms * 1e3 / cases}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)

    report = {
        "what": "CPU ms per sweep call (median); round_ms sums the invariants workload's sweeps",
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rounds": ROUNDS,
        "round_ms": sum(row["ms"] for row in rows if row["in_round"]),
        "rows": rows,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
