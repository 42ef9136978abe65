"""Layer harness for the named invariant sweeps: CPU time of each sweep of
the benchmark's ``invariants`` workload, plus ``tomita_sweep(3, 2)`` from
acceptance criterion 3, which the workload leaves out for its length, one
chunk of criterion 1, ``sf_closed_form_chunk(4, 2, 3)``, whose 1,024 cases
each run the modular certificate and the spectral flow, and
``homotopy_sweep(2, 21)``, whose sampled paths build rotation blocks,
``keyfact_sweep(3, 1)``, the key-fact check on three letters,
``cocycle_sweep(3, 1)``, whose 4,112 cases come as one block of B-defects
and one block of b-defects per (a0, a1),
``cocycle_five_term(51)``, the b-defect on acceptance criterion 4's 1,000
random triples of up to five terms in O_3 (drawn once per source tree, with
seed 51, by the tests' ``random_element``, as the criterion draws them),
and ``psi_pairs(3, 2)``, the single-pair psi walk: ``psi_product``,
``inner_product`` and ``flow.twisted_theta`` on every ordered pair of the
169 monomials of O_3 with legs up to 2, each checked against its entry of
``_psi_table`` tables built once per source tree and not timed.

Each source tree (``--side NAME=SRC``, a directory holding the ``cuntzmod``
package; by default this checkout's ``src``) is imported into this one
process as its own set of modules, and the tests' ``conftest`` with it.
The harness first runs every sweep of every side once and checks that it
reports the case count its size fixes and no failure; it exits non-zero if
one does not.  Then it times every sweep once per round and side, for
``ROUNDS`` rounds, in CPU time: the sides take turns sweep by sweep, and
the side that goes first alternates from round to round, so a drift in
machine speed reaches every side alike.  Each timed call starts after a
full garbage collection, so no call is billed for the garbage of another
call or side.  Per side it writes each sweep's
median, min and max over the rounds, and the sum of the medians over the
workload's nine sweeps (one workload round); given several sides, each row
after the first side's also gives the ratio of the first side's median to
its own and the rounds in which it was the faster.  Run it from anywhere in
a checkout:

    python3 tools/bench_sweeps.py [--side NAME=SRC ...] [--out BENCH_sweeps.json]
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "exactbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_equality import cpu_model  # noqa: E402
from workloads import INVARIANT_SWEEPS  # noqa: E402

ROUNDS = 41  # timed calls of each sweep a side


def _side_names() -> list[str]:
    return [name for name in sys.modules if name in ("cuntzmod", "conftest") or name.startswith("cuntzmod.")]


def activate(modules: dict) -> None:
    """Make sys.modules hold exactly this side's cuntzmod and conftest."""
    for name in _side_names():
        del sys.modules[name]
    sys.modules.update(modules)


def load_side(src: str) -> dict:
    """{name: module} of every cuntzmod module and of conftest, imported
    afresh with src first on the path.  Activated, they make the side's
    sweeps, and the imports those make when called, read that tree."""
    activate({})
    sys.path.insert(0, src)
    try:
        package = os.path.join(src, "cuntzmod")
        for file in sorted(os.listdir(package)):
            if file.endswith(".py") and file != "__main__.py":
                importlib.import_module("cuntzmod" if file == "__init__.py" else f"cuntzmod.{file[:-3]}")
        importlib.import_module("conftest")
    finally:
        sys.path.remove(src)
    return {name: sys.modules[name] for name in _side_names()}


@functools.cache
def _five_term_triples(conftest, seed: int) -> list:
    rng = random.Random(seed)
    return [tuple(conftest.random_element(rng, 3, max_terms=5, allow_zero=False) for _ in range(3))
            for _ in range(1000)]


def cocycle_five_term(seed: int) -> dict:
    """b theta on criterion 4's random triples, in the sweeps' report shape;
    the triples are drawn on a side's first call and kept."""
    triples = _five_term_triples(sys.modules["conftest"], seed)
    failures = sum(not sys.modules["cuntzmod.flow"].cocycle_b_defect(*t).is_zero for t in triples)
    return {"cases": len(triples), "failures": failures}


@functools.cache
def _psi_pair_tables(modular, n: int, max_len: int) -> tuple:
    """The monomials with legs up to max_len, and the tables of psi(a b),
    psi(a^* b) and psi(a [D, b]) over every ordered pair of them."""
    monos = modular.monomials_upto(n, max_len)
    d_monos = [modular.commutator_D(b) for b in monos]
    return monos, (modular._psi_table(monos, monos), modular._psi_table(monos, monos, star=True),
                   modular._psi_table(monos, d_monos))


def psi_pairs(n: int, max_len: int) -> dict:
    """psi_product, inner_product and twisted_theta on every ordered pair of
    monomials, each against its table entry, in the sweeps' report shape;
    the tables are built on a side's first call and kept."""
    modular = sys.modules["cuntzmod.modular"]
    monos, tables = _psi_pair_tables(modular, n, max_len)
    walks = (modular.psi_product, modular.inner_product, sys.modules["cuntzmod.flow"].twisted_theta)
    failures = 0
    for walk, table in zip(walks, tables):
        for a, row in zip(monos, table):
            for b, want in zip(monos, row):
                failures += walk(a, b) != want
    return {"cases": len(walks) * len(monos) ** 2, "failures": failures}


EXTRA_SWEEPS = (
    ("cuntzmod.modular", "tomita_sweep", (3, 2), 172549),
    ("cuntzmod.flow", "sf_closed_form_chunk", (4, 2, 3), 1024),
    ("cuntzmod.matrices", "homotopy_sweep", (2, 21), 4),
    ("cuntzmod.endos", "keyfact_sweep", (3, 1), 80),
    ("cuntzmod.flow", "cocycle_sweep", (3, 1), 4112),
    (__name__, "cocycle_five_term", (51,), 1000),
    (__name__, "psi_pairs", (3, 2), 85683),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a source tree to time, named in the report (default: this checkout's src)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_sweeps.json"))
    args = parser.parse_args(argv)
    specs = [spec.split("=", 1) for spec in args.side or [f"checkout={os.path.join(ROOT, 'src')}"]]
    if any(len(spec) != 2 for spec in specs):
        parser.error("--side takes NAME=SRC")
    if len({name for name, _ in specs}) != len(specs):
        parser.error("--side names must differ")

    sweeps = [(module.__name__, name, sweep_args, cases, True) for module, name, sweep_args, cases in INVARIANT_SWEEPS]
    sweeps += [(module, name, sweep_args, cases, False) for module, name, sweep_args, cases in EXTRA_SWEEPS]
    sides = [(name, load_side(os.path.abspath(src))) for name, src in specs]

    def sweep_fn(modules: dict, module: str, name: str):
        return getattr(modules.get(module) or sys.modules[module], name)

    for side, modules in sides:
        activate(modules)
        for module, name, sweep_args, cases, _ in sweeps:
            report = sweep_fn(modules, module, name)(*sweep_args)
            if report["cases"] != cases or report["failures"]:
                raise SystemExit(f"{side}: {name}{sweep_args}: {report['cases']} cases (expected {cases}), "
                                 f"{report['failures']} failures")

    samples = {side: [[] for _ in sweeps] for side, _ in sides}
    for r in range(ROUNDS):
        for j, (module, name, sweep_args, _, _) in enumerate(sweeps):
            for side, modules in sides if r % 2 == 0 else sides[::-1]:
                activate(modules)
                fn = sweep_fn(modules, module, name)
                gc.collect()
                start = time.process_time()
                fn(*sweep_args)
                samples[side][j].append((time.process_time() - start) * 1e3)

    report = {
        "what": "CPU ms per sweep call: median, min and max over rounds; round_ms sums the medians of the "
                "invariants workload's sweeps",
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rounds": ROUNDS,
        "sides": [],
    }
    first = samples[sides[0][0]]
    for side, _ in sides:
        rows = []
        for (_, name, sweep_args, cases, in_round), times, base in zip(sweeps, samples[side], first):
            ms = statistics.median(times)
            row = {"sweep": name, "args": list(sweep_args), "cases": cases, "in_round": in_round,
                   "ms": ms, "min_ms": min(times), "max_ms": max(times), "us_per_case": ms * 1e3 / cases}
            if times is not base:
                row["speedup"] = statistics.median(base) / ms
                row["faster_rounds"] = sum(t < b for t, b in zip(times, base))
            rows.append(row)
        entry = {"side": side, "round_ms": sum(row["ms"] for row in rows if row["in_round"]), "rows": rows}
        report["sides"].append(entry)
        print(json.dumps(entry), file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
