"""Layer harness for semantic equality: ``algebra.equals`` against the
expansion oracle ``not canonical_form(a - b).terms`` it replaced.

Inputs are the queries of the benchmark's ``equality`` workload, 1 - P_w
against its branch decomposition (equal, one deepest branch dropped, one
deepest coefficient shifted by sqrt n), on its five ``EQ_SHAPES`` and on
w = 1^12 in O_4, whose expansion (4^12 terms) exceeds the default term
budget.  The harness first checks that both sides give the expected answer
on every input (the oracle where the budget lets it run) and exits non-zero
if one does not; then it times each side in CPU time and writes medians to
a JSON file.  For the five ``EQ_SHAPES`` it also times the text layers of
1 - P_w, in CPU ms per call and microseconds per output term: ``expr.render``
of its canonical form, ``algebra.canonical_form`` of 1 - P_w on its own, and
the whole round trip ``render(canonical_form(parse("I - S[w].S[w]'")))``,
each after checking its output against the text the benchmark expects.  Run
it from anywhere in a checkout:

    python3 tools/bench_equality.py [--out BENCH_equality.json]
"""

from __future__ import annotations

import argparse
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

from cuntzmod import algebra, expr  # noqa: E402
from cuntzmod.errors import TermBudgetExceeded  # noqa: E402
from cuntzmod.scalars import QSqrt  # noqa: E402
from workloads import EQ_SHAPES, _roundtrip_call, branch_decomposition, complement_text  # noqa: E402

DEEP_SHAPE = (4, 12)
SEED = 0
MIN_SECONDS = 0.2  # CPU time per side and input
MIN_REPEATS = 5


def expansion_oracle(a, b) -> bool:
    return not algebra.canonical_form(a - b).terms


def queries(rng: random.Random):
    """(shape, variant, lhs, rhs, expected) for every shape and variant."""
    for n, k in (*EQ_SHAPES, DEEP_SHAPE):
        w = tuple(rng.randint(1, n) for _ in range(k))
        lhs = algebra.one(n) - algebra.projection(n, w)
        equal = branch_decomposition(n, w)
        a = rng.choice([x for x in range(1, n + 1) if x != w[-1]])
        dropped = equal - algebra.projection(n, w[:-1] + (a,))
        shifted = branch_decomposition(n, w, QSqrt(n, 1, 1))
        for variant, rhs, expected in (("equal", equal, True), ("dropped", dropped, False), ("shifted", shifted, False)):
            yield (n, k), variant, lhs, rhs, expected


def text_inputs(rng: random.Random):
    """(n, |w|, w, 1 - P_w) for every shape of EQ_SHAPES."""
    for n, k in EQ_SHAPES:
        w = tuple(rng.randint(1, n) for _ in range(k))
        yield n, k, w, algebra.one(n) - algebra.projection(n, w)


def cpu_ms(fn, args) -> tuple[float, int]:
    """Median CPU milliseconds per call and the number of calls timed."""
    samples = []
    spent = 0.0
    while len(samples) < MIN_REPEATS or spent < MIN_SECONDS:
        start = time.process_time()
        fn(*args)
        elapsed = time.process_time() - start
        samples.append(elapsed * 1e3)
        spent += elapsed
    return statistics.median(samples), len(samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_equality.json"))
    args = parser.parse_args(argv)

    cases = list(queries(random.Random(SEED)))
    rows = []
    for shape, variant, lhs, rhs, expected in cases:
        got = algebra.equals(lhs, rhs)
        try:
            oracle = expansion_oracle(lhs, rhs)
        except TermBudgetExceeded:
            oracle = None
        if got != expected or oracle not in (expected, None):
            raise SystemExit(f"{shape} {variant}: expected {expected}, equals {got}, oracle {oracle}")
        rows.append({"n": shape[0], "depth": shape[1], "variant": variant, "expected": expected,
                     "oracle_ran": oracle is not None})

    for row, (_, _, lhs, rhs, _) in zip(rows, cases):
        row["equals_ms"], row["equals_repeats"] = cpu_ms(algebra.equals, (lhs, rhs))
        if row["oracle_ran"]:
            row["oracle_ms"], row["oracle_repeats"] = cpu_ms(expansion_oracle, (lhs, rhs))
            row["speedup"] = row["oracle_ms"] / row["equals_ms"]
        else:
            row["oracle_ms"] = None
            row["oracle_skipped"] = f"canonical_form exceeds the term budget of {algebra.term_budget()}"
        print(json.dumps(row), file=sys.stderr)

    text_rows: dict = {"render": [], "canonical": [], "roundtrip": []}
    for n, k, w, element in text_inputs(random.Random(SEED)):
        expected = complement_text(n, w)
        canonical = algebra.canonical_form(element)
        letters = ",".join(map(str, w))
        text = f"I - S[{letters}].S[{letters}]'"
        if expr.render(canonical) != expected or _roundtrip_call(text, n) != expected:
            raise SystemExit(f"({n}, {k}): the text of 1 - P_w differs from the expected one")
        calls = {"render": (expr.render, (canonical,)), "canonical": (algebra.canonical_form, (element,)),
                 "roundtrip": (_roundtrip_call, (text, n))}
        for layer, (fn, call_args) in calls.items():
            ms, repeats = cpu_ms(fn, call_args)
            row = {"n": n, "depth": k, "terms": len(canonical.terms), f"{layer}_ms": ms,
                   f"{layer}_repeats": repeats, f"{layer}_us_per_term": ms * 1e3 / len(canonical.terms)}
            text_rows[layer].append(row)
            print(json.dumps(row), file=sys.stderr)

    report = {
        "what": "CPU ms per call (median): algebra.equals against not canonical_form(a - b).terms; "
                "on 1 - P_w, expr.render of its canonical form, canonical_form alone, and the text round trip",
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": SEED,
        "min_seconds": MIN_SECONDS,
        "min_repeats": MIN_REPEATS,
        "rows": rows,
        **{f"{layer}_rows": layer_rows for layer, layer_rows in text_rows.items()},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
