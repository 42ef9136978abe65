"""Layer harness: CPU time of one layer table's rows, tree against tree.

It writes the table to ``BENCH_<table>.json``.  Run it from anywhere in a
checkout:

    python3 tools/bench_layers.py TABLE [--side NAME=SRC ...] [--out FILE]

TABLE is one of three row lists.

``sweeps``: every sweep of the benchmark's ``invariants`` workload (the
``in_round`` rows, one workload round), plus ``tomita_sweep(3, 2)`` from
acceptance criterion 3, which the workload leaves out for its length, one
chunk of criterion 1, ``sf_closed_form_chunk(4, 2, 3)``, whose 1,024 cases
each run the modular certificate and the spectral flow,
``homotopy_sweep(2, 21)``, whose sampled paths build rotation blocks,
``keyfact_sweep(3, 1)``, the key-fact check on three letters,
``cocycle_sweep(3, 1)``, whose 4,112 cases come as one block of B-defects
and one block of b-defects per (a0, a1), ``cocycle_five_term(51)``, the
b-defect on acceptance criterion 4's 1,000 random triples of up to five
terms in O_3 (drawn once per side, with seed 51, by the tests'
``random_element``, as the criterion draws them), and ``psi_pairs(3, 2)``,
the single-pair psi walk: ``psi_product``, ``inner_product`` and
``flow.twisted_theta`` on every ordered pair of the 169 monomials of O_3
with legs up to 2, each against its entry of ``_psi_table`` tables built
once per side and not timed, and ``flow_reports(3, 3, 1)``, the report
path of the ``sf`` and ``entropy`` verbs: ``flow.flow_report`` on all 81
u_{mu,nu} with |mu| = 3 and |nu| = 1 in O_3.  A sweep is right when it
reports the case count its size fixes and no failure.

``equality``: ``algebra.equals`` and the expansion oracle
``not canonical_form(a - b).terms`` it replaced, on the queries of the
benchmark's ``equality`` workload (1 - P_w against its branch
decomposition: equal, one deepest branch dropped, one deepest coefficient
shifted by sqrt n) on its five ``EQ_SHAPES``, and ``equals`` alone on
w = 1^12 in O_4, whose expansion (4^12 terms) exceeds the default term
budget.  Then the text layers of 1 - P_w on each ``EQ_SHAPES`` shape, with
microseconds per output term: ``expr.render`` of its canonical form,
``canonical_form`` on its own, and the round trip
``render(canonical_form(parse("I - S[w].S[w]'")))``.  Words are drawn with
seed 0; each answer must be the expected one, and each text (or the render
of a canonical form) the text the benchmark writes itself.

``cli``: one ``python -m cuntzmod.cli`` child per verb of the benchmark's
``cli`` workload (``workloads.cli_argvs`` with seed 30, one cycle of eight
command lines), and a ``python -c pass`` floor child.  A child's CPU is its
user + system time from ``os.wait4``, so the harness's own work is not
counted, and each verb's time is net of the floor child of its round and
side.  A child must exit 0, a verb's output must match the benchmark's
in-process reference, and children inherit this process's environment, as
the benchmark's do: where ``PYTHONDONTWRITEBYTECODE`` is set, each one
compiles the package from source.

A side (``--side NAME=SRC``, a directory holding the ``cuntzmod`` package;
by default this checkout's ``src``) is, for ``sweeps`` and ``equality``, a
set of modules imported into this one process: its ``cuntzmod`` and, from
the tree around SRC where it has them, the tests' ``conftest`` and the
benchmark's ``workloads``, which build the side's inputs.  For ``cli`` a
side is the ``PYTHONPATH`` its children start with.

The harness first runs every row of every side once, then times every row
once per round and side, and checks the answer of every sample: a wrong
one exits non-zero.  The sides take turns row by row, and the side that
goes first alternates from round to round, so a drift in machine speed
reaches every side alike.  A sample is one call, or as many calls as the
first run says fill ``SAMPLE_MS``.  Each call in this process starts after
a full garbage collection, which scans only what was made since the
rounds began, so no call is billed for the garbage of another call or
side.  Per side it writes each row's median, min and max over the rounds,
and for ``sweeps`` the workload round's and for ``cli`` the verb cycle's
per-round sum; given several sides, each figure after the first side's
also gives the median over the rounds of the first side's time over its
own in that round (``speedup``), and the rounds in which it was the
faster.  Both sides run in every round, so the ratio of one round compares
calls made close together; a ratio of two medians could compare two
different modes of a machine whose calls come in two speeds.
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
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, part) for part in ("src", "tests", "exactbench")]

import workloads  # noqa: E402

EQ_SEED = 0
DEEP_SHAPE = (4, 12)
CLI_SEED = 30
SAMPLE_MS = 5  # a sample times this much CPU or more, in calls each after its own collection
CLI_ARGVS = workloads.cli_argvs(random.Random(CLI_SEED))


def _side_names() -> list[str]:
    return [name for name in sys.modules if name.split(".", 1)[0] in ("cuntzmod", "conftest", "workloads")]


def activate(modules: dict) -> None:
    """Make sys.modules hold exactly this side's modules."""
    for name in _side_names():
        del sys.modules[name]
    sys.modules.update(modules)


def load_side(src: str) -> dict:
    """{name: module} of every cuntzmod module, of conftest and of
    workloads, imported afresh with src, and the tests and exactbench
    beside it, first on the path.  Activated, they make the side's calls,
    and the imports those make when called, read that tree."""
    activate({})
    paths = [src] + [os.path.join(os.path.dirname(src), part) for part in ("tests", "exactbench")]
    sys.path[:0] = paths
    try:
        for file in sorted(os.listdir(os.path.join(src, "cuntzmod"))):
            if file.endswith(".py") and file != "__main__.py":
                importlib.import_module("cuntzmod" if file == "__init__.py" else f"cuntzmod.{file[:-3]}")
        importlib.import_module("conftest")
        importlib.import_module("workloads")
    finally:
        del sys.path[:len(paths)]
    modules = {name: sys.modules[name] for name in _side_names()}
    activate(modules)
    return modules


def in_process(modules: dict, fn, *args):
    """A timed call of fn in this process: (CPU ms, result)."""
    def timed():
        activate(modules)
        gc.collect()
        start = time.process_time()
        result = fn(*args)
        return (time.process_time() - start) * 1e3, result
    return timed


def child(argv: list[str], src: str):
    """A timed ``python <argv>`` child with src first on its path: (its own
    user + system CPU ms, (exit code, stdout, stderr))."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def timed():
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        with proc.stdout, proc.stderr:
            # read to end of file, not communicate(), which would reap the
            # child and lose its rusage; a report or an error fits a pipe
            out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        return (usage.ru_utime + usage.ru_stime) * 1e3, (os.waitstatus_to_exitcode(status), out.decode(), err.decode())
    return timed


# -- sweeps --------------------------------------------------------------------


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


def flow_reports(n: int, len_mu: int, len_nu: int) -> dict:
    """flow_report on every u_{mu,nu} with |mu| = len_mu and |nu| = len_nu,
    in the sweeps' report shape: a report is right when its sf is the closed
    form, both corrections are 0 and sf lies in (n-1)Z[1/n]."""
    flow, words = sys.modules["cuntzmod.flow"], sys.modules["cuntzmod.algebra"].words
    expected = flow.closed_form_sf(n, (1,) * len_mu, (1,) * len_nu)
    reports = [flow.flow_report(n, mu, nu) for mu in words(n, len_mu) for nu in words(n, len_nu)]
    failures = sum(not (r.sf == expected and r.eta_diff == r.kernel_diff == 0 and r.in_k0_range) for r in reports)
    return {"cases": len(reports), "failures": failures}


# (module, sweep, args, cases, in_round): the workload's sweeps, then the rest
SWEEPS = [(module.__name__, name, args, cases, True) for module, name, args, cases in workloads.INVARIANT_SWEEPS] + [
    ("cuntzmod.modular", "tomita_sweep", (3, 2), 172549, False),
    ("cuntzmod.flow", "sf_closed_form_chunk", (4, 2, 3), 1024, False),
    ("cuntzmod.matrices", "homotopy_sweep", (2, 21), 4, False),
    ("cuntzmod.endos", "keyfact_sweep", (3, 1), 80, False),
    ("cuntzmod.flow", "cocycle_sweep", (3, 1), 4112, False),
    (__name__, "cocycle_five_term", (51,), 1000, False),
    (__name__, "psi_pairs", (3, 2), 85683, False),
    (__name__, "flow_reports", (3, 3, 1), 81, False),
]


def sweep_rows(src: str) -> list:
    modules = load_side(src)
    return [({"sweep": name, "args": list(args), "cases": cases, "in_round": in_round},
             in_process(modules, getattr(modules.get(module) or sys.modules[module], name), *args),
             lambda report, cases=cases: report["cases"] == cases and not report["failures"])
            for module, name, args, cases, in_round in SWEEPS]


# -- equality ------------------------------------------------------------------


def equality_rows(src: str) -> list:
    modules = load_side(src)
    algebra, expr, side = modules["cuntzmod.algebra"], modules["cuntzmod.expr"], modules["workloads"]
    rows = []
    rng = random.Random(EQ_SEED)
    for n, k in (*side.EQ_SHAPES, DEEP_SHAPE):
        w = tuple(rng.randint(1, n) for _ in range(k))
        lhs = algebra.one(n) - algebra.projection(n, w)
        equal = side.branch_decomposition(n, w)
        a = rng.choice([x for x in range(1, n + 1) if x != w[-1]])
        dropped = equal - algebra.projection(n, w[:-1] + (a,))
        shifted = side.branch_decomposition(n, w, modules["cuntzmod.scalars"].QSqrt(n, 1, 1))
        layers = {"equals": algebra.equals}
        if (n, k) != DEEP_SHAPE:
            layers["oracle"] = lambda a, b: not algebra.canonical_form(a - b).terms  # the expansion oracle
        for variant, rhs, expected in (("equal", equal, True), ("dropped", dropped, False), ("shifted", shifted, False)):
            rows += [({"layer": layer, "n": n, "depth": k, "variant": variant, "expected": expected},
                      in_process(modules, fn, lhs, rhs), expected.__eq__) for layer, fn in layers.items()]
    rng = random.Random(EQ_SEED)
    for n, k in side.EQ_SHAPES:
        w = tuple(rng.randint(1, n) for _ in range(k))
        element = algebra.one(n) - algebra.projection(n, w)
        canonical = algebra.canonical_form(element)
        text = side.complement_text(n, w)
        letters = ",".join(map(str, w))
        calls = (("render", expr.render, (canonical,), text.__eq__),
                 ("canonical", algebra.canonical_form, (element,), lambda got, text=text: expr.render(got) == text),
                 ("roundtrip", side._roundtrip_call, (f"I - S[{letters}].S[{letters}]'", n), text.__eq__))
        rows += [({"layer": layer, "n": n, "depth": k, "terms": len(canonical.terms)},
                  in_process(modules, fn, *args), check) for layer, fn, args, check in calls]
    return rows


# -- cli -----------------------------------------------------------------------


def cli_rows(src: str) -> list:
    rows = [({"verb": "floor", "in_cycle": False}, child(["-c", "pass"], src), lambda result: result[0] == 0)]
    return rows + [({"verb": verb, "in_cycle": True}, child(["-m", "cuntzmod.cli", *argv], src),
                    lambda result, argv=argv: workloads.cli_check(argv, result[:2]) is not None)
                   for verb, argv in CLI_ARGVS]


# name: (rows of one side, rounds, what they time, (sum field, row flag) or None, net of the first row)
TABLES = {
    "sweeps": (sweep_rows, 41, "CPU ms per sweep call; round sums the invariants workload's sweeps",
               ("round", "in_round"), False),
    "equality": (equality_rows, 41, "CPU ms per call: algebra.equals and the expansion oracle (none at (4, 12), "
                 "past the term budget); on 1 - P_w, render, canonical_form and the text round trip; seed 0",
                 None, False),
    "cli": (cli_rows, 12, "child CPU ms (os.wait4) per cuntzmod.cli verb, net of the python -c pass floor child "
            "of its round; cycle sums the eight verbs; seed 30", ("cycle", "in_cycle"), True),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def summary(times: list, base: list) -> dict:
    """Median, min and max, and against another side's base the median of per-round ratios and the rounds won."""
    out = {"ms": statistics.median(times), "min_ms": min(times), "max_ms": max(times)}
    if times is not base:
        out["speedup"] = statistics.median(b / t for t, b in zip(times, base))
        out["faster_rounds"] = sum(t < b for t, b in zip(times, base))
    return out


def sample(side: str, row: tuple, calls: int) -> float:
    """Mean CPU ms of a row's timed calls; a wrong answer exits."""
    key, timed, check = row
    times, results = zip(*(timed() for _ in range(calls)))
    if not check(results[-1]):
        raise SystemExit(f"{side}: {key}: wrong answer ...{repr(results[-1])[-300:]}")
    return sum(times) / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=TABLES)
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a source tree to time, named in the report (default: this checkout's src)")
    parser.add_argument("--out", help="the report's path (default: BENCH_<table>.json in this checkout)")
    args = parser.parse_args(argv)
    specs = [spec.split("=", 1) for spec in args.side or [f"checkout={os.path.join(ROOT, 'src')}"]]
    if any(len(spec) != 2 for spec in specs) or len(dict(specs)) != len(specs):
        parser.error("--side takes NAME=SRC, and no two sides share a NAME")
    build, rounds, what, total, net = TABLES[args.table]

    sides = [(name, build(os.path.abspath(src))) for name, src in specs]
    keys = [key for key, _, _ in sides[0][1]]
    checked = []  # CPU ms of the checking calls
    for side, rows in sides:
        if [key for key, _, _ in rows] != keys:
            raise SystemExit(f"{side}: its rows differ from those of {sides[0][0]}")
        checked += [sample(side, row, 1) for row in rows]
    calls = [max(1, int(SAMPLE_MS / ms)) for ms in checked[:len(keys)]]

    gc.collect()
    gc.freeze()  # the collection before each call scans only what the rounds made
    samples = {side: [[] for _ in keys] for side, _ in sides}
    for r in range(rounds):
        for j in range(len(keys)):
            for side, rows in sides if r % 2 == 0 else sides[::-1]:
                samples[side][j].append(sample(side, rows[j], calls[j]))
    for times in samples.values():
        if net:  # each row net of the first row's sample of its own round
            times[1:] = [[t - floor for t, floor in zip(row, times[0])] for row in times[1:]]
        if total:
            times.append([sum(t for key, t in zip(keys, one) if key[total[1]]) for one in zip(*times)])

    report = {"table": args.table, "what": what + "; median, min and max over rounds", "rounds": rounds,
              "python": platform.python_version(), "cpu": cpu_model(), "usable_cpus": len(os.sched_getaffinity(0)),
              "sides": []}
    first = samples[sides[0][0]]
    for side, _ in sides:
        entry = {"side": side, **({total[0]: summary(samples[side][-1], first[-1])} if total else {}), "rows": []}
        for j, (key, times, base) in enumerate(zip(keys, samples[side], first)):
            row = {**key, "calls": calls[j], **summary(times, base)}
            row.update({f"us_per_{u[:-1]}": row["ms"] * 1e3 / key[u] for u in ("cases", "terms") if u in key})
            entry["rows"].append(row)
        report["sides"].append(entry)
        print(json.dumps(entry), file=sys.stderr)
    with open(args.out or os.path.join(ROOT, f"BENCH_{args.table}.json"), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
