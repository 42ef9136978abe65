"""The benchmark's four workloads and the op runner.

Each workload turns a seeded ``random.Random`` into rounds of ops.  A
round's multiset of op shapes is fixed by the workload, never by the seed:
the seed only draws letters and the order, so every seed costs the same.
An op is one timed call into the package's public functions (or one
``python -m cuntzmod.cli`` process) with a check against an independent
reference; a failed check or an exception counts as a failed op and is
never retried or dropped.

Calls go through module attributes (``flow.spectral_flow``, not a name
bound here) so that the tracer's wrappers, installed on the package's
modules, see them.

Why each workload exists, and what it leaves out, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import cuntzmod.algebra as algebra
import cuntzmod.cli as cli
import cuntzmod.endos as endos
import cuntzmod.expr as expr
import cuntzmod.flow as flow
import cuntzmod.matrices as matrices
import cuntzmod.modular as modular
import cuntzmod.numerics as numerics
from cuntzmod.scalars import QSqrt

from stats import RoundResult

CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Op:
    """One timed call.  ``check`` returns the number of cases the result
    proves, or None when the result is wrong."""

    shape: tuple
    call: Callable[[], object]
    check: Callable[[object], int | None]


def check_result(op: Op, result) -> int | None:
    try:
        return op.check(result)
    except Exception:  # a malformed result is a failed check, not a crash
        traceback.print_exc(limit=2, file=sys.stderr)
        return None


def run_round(ops: list[Op], clock, before_op=None) -> RoundResult:
    """Run ops in order, timing only the call; checks and ``before_op`` run
    outside the timer."""
    op_starts: list[float] = []
    op_seconds: list[float] = []
    cases = failed = 0
    for op in ops:
        if before_op is not None:
            before_op()
        t0 = clock()
        op_starts.append(t0)
        try:
            result = op.call()
        except Exception:  # counted as a failed op; the run goes on
            traceback.print_exc(limit=3, file=sys.stderr)
            op_seconds.append(clock() - t0)
            failed += 1
            continue
        op_seconds.append(clock() - t0)
        got = check_result(op, result)
        if got is None:
            failed += 1
        else:
            cases += got
    return RoundResult(op_starts, op_seconds, cases, failed)


def _word(rng, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(length))


def _letters(word) -> str:
    return ",".join(map(str, word))


# -- sf_sweep ------------------------------------------------------------------

# Criterion 1's 36 classes (n, |mu|, |nu|); class (n, a, b) holds n^(a+b)
# unitaries, 53,276 in all.  A round draws each class in proportion to its
# size, at least once, so n = 4 is about 86% of a round.
SF_CLASSES = tuple(
    (n, lm, ln) for n in (2, 3, 4) for lm in range(1, 5) for ln in range(1, 5) if lm != ln
)
SF_TOTAL = sum(n ** (lm + ln) for n, lm, ln in SF_CLASSES)
SF_ROUND_TARGET = 500
SF_ROUND_COUNTS = {
    c: max(1, round(SF_ROUND_TARGET * c[0] ** (c[1] + c[2]) / SF_TOTAL)) for c in SF_CLASSES
}


def _sf_call(n, mu, nu):
    return flow.spectral_flow(matrices.build_u_mu_nu(n, mu, nu))


def _sf_check(n, mu, nu, sf) -> int | None:
    ok = sf == flow.closed_form_sf(n, mu, nu) and sf > 0 and flow.k0_membership(sf, n)
    return 1 if ok else None


def sf_round(rng) -> list[Op]:
    ops = []
    for shape, count in SF_ROUND_COUNTS.items():
        n, lm, ln = shape
        for _ in range(count):
            mu, nu = _word(rng, n, lm), _word(rng, n, ln)
            ops.append(Op(shape, partial(_sf_call, n, mu, nu), partial(_sf_check, n, mu, nu)))
    rng.shuffle(ops)
    return ops


# -- equality ------------------------------------------------------------------

# (n, |w|) with n^|w| between 1k and 4k terms after expansion.  The text
# round trip renders every expanded term, which costs several times an
# equality query of the same shape, so it runs on the 1k shapes only.
EQ_SHAPES = ((2, 10), (2, 12), (3, 7), (4, 5), (4, 6))
EQ_ROUNDTRIP_SHAPES = ((2, 10), (4, 5))


def _projection_text(v) -> str:
    return f"S[{_letters(v)}].S[{_letters(v)}]'"


def complement_text(n: int, w) -> str:
    """The canonical text of 1 - P_w: every P_v with |v| = |w|, v != w, in
    lexicographic order, written here without the package's renderer."""
    return " + ".join(
        _projection_text(v) for v in itertools.product(range(1, n + 1), repeat=len(w)) if v != w
    )


def branch_decomposition(n: int, w, deepest_coeff=1) -> algebra.AlgebraElement:
    """sum_j sum_{a != w_j} P_{w_1..w_{j-1} a}, which equals 1 - P_w; the
    branches at depth |w| get ``deepest_coeff``."""
    pairs = []
    for j, letter in enumerate(w):
        for a in range(1, n + 1):
            if a != letter:
                c = deepest_coeff if j == len(w) - 1 else 1
                pairs.append((c, algebra.projection(n, w[:j] + (a,))))
    return algebra.linear_combine(pairs)


def _equals_call(lhs, rhs):
    return algebra.equals(lhs, rhs)


def _expect(expected, result) -> int | None:
    return 1 if result == expected else None


def _roundtrip_call(text, n):
    return expr.render(algebra.canonical_form(expr.parse(text, n)))


def equality_round(rng) -> list[Op]:
    """Per shape: 1 - P_w against its branch decomposition (equal), with one
    deepest branch dropped, with one deepest coefficient shifted by sqrt n,
    and, on the 1k shapes, the text round trip of 1 - P_w.  Dropped and shifted branches are
    always at depth |w|, so the expansion cost does not depend on the seed."""
    ops = []
    for n, k in EQ_SHAPES:
        w = _word(rng, n, k)
        lhs = algebra.one(n) - algebra.projection(n, w)
        equal = branch_decomposition(n, w)
        a = rng.choice([x for x in range(1, n + 1) if x != w[-1]])
        dropped = equal - algebra.projection(n, w[:-1] + (a,))
        shifted = branch_decomposition(n, w, QSqrt(n, 1, 1))
        for variant, rhs, expected in (("equal", equal, True), ("dropped", dropped, False), ("shifted", shifted, False)):
            ops.append(Op((n, k, variant), partial(_equals_call, lhs, rhs), partial(_expect, expected)))
        if (n, k) not in EQ_ROUNDTRIP_SHAPES:
            continue
        v = _word(rng, n, k)
        text = f"I - {_projection_text(v)}"
        ops.append(
            Op((n, k, "roundtrip"), partial(_roundtrip_call, text, n), partial(_expect, complement_text(n, v)))
        )
    rng.shuffle(ops)
    return ops


# -- invariants ----------------------------------------------------------------

# One public sweep per op at acceptance size, with the case count its size
# fixes.  tomita_sweep(3, 2) is left out: it runs the same code as (2, 2)
# and would make a round several seconds long.
INVARIANT_SWEEPS = (
    (modular, "kms_sweep", (2, 2), 2401),
    (modular, "kms_sweep", (3, 2), 28561),
    (modular, "tomita_sweep", (2, 2), 14749),
    (flow, "cocycle_sweep", (2, 1), 738),
    (endos, "tracesplit_sweep", (2, 2), 308),
    (endos, "tracesplit_sweep", (3, 2), 1288),
    (endos, "keyfact_sweep", (2, 2), 245),
    (flow, "hochschild_sweep", (2,), 4),
    (flow, "hochschild_sweep", (3,), 4),
)


def _sweep_call(module, name, args):
    return getattr(module, name)(*args)


def _sweep_check(expected_cases, report) -> int | None:
    ok = report["cases"] == expected_cases and report["failures"] == 0
    return report["cases"] if ok else None


def invariants_round(rng) -> list[Op]:
    ops = [
        Op((name, args), partial(_sweep_call, module, name, args), partial(_sweep_check, cases))
        for module, name, args, cases in INVARIANT_SWEEPS
    ]
    rng.shuffle(ops)
    return ops


# -- cli -----------------------------------------------------------------------

DIXMIER_S = (1.1, 1.05, 1.02, 1.01)


def cli_argvs(rng) -> list[tuple[str, list[str]]]:
    """One cycle of verbs in a fixed order; the seed draws letters only."""
    return [
        ("eval-text", ["eval", "--n", "2", f"I - {_projection_text(_word(rng, 2, 6))}"]),
        ("eval-json", ["eval", "--n", "3", "--output", "json", f"I - {_projection_text(_word(rng, 3, 4))}"]),
        ("sf", ["sf", "--n", "3", "--mu", _letters(_word(rng, 3, 3)), "--nu", _letters(_word(rng, 3, 1))]),
        ("entropy", ["entropy", "--n", "3", "--mu", _letters(_word(rng, 3, 2)), "--nu", _letters(_word(rng, 3, 3))]),
        ("aps", ["aps", "--n", "2", "--mu", _letters(_word(rng, 2, 2)), "--nu", _letters(_word(rng, 2, 1))]),
        ("check", ["check", "kms", "--n", "2", "--max-len", "1"]),
        ("dixmier", ["dixmier", "--n", "2", "--s-list", ",".join(map(str, DIXMIER_S)), "--cutoff", "100000"]),
        (
            "sfint",
            ["sfint", "--n", "2", "--mu", _letters(_word(rng, 2, 2)), "--nu", _letters(_word(rng, 2, 1)),
             "--r", "0.5", "--cutoff", "10000"],
        ),
    ]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _word_arg(argv, flag):
    return tuple(int(x) for x in _arg(argv, flag).split(","))


def _complement_word(text: str):
    """w from the text "I - S[w].S[w]'"."""
    return tuple(int(x) for x in text[text.index("[") + 1 : text.index("]")].split(","))


@lru_cache(maxsize=64)
def _cli_reference(argv: tuple):
    """In-process reference for one CLI call, computed outside any timer."""
    verb, n = argv[0], int(_arg(argv, "--n"))
    if verb == "eval":
        return complement_text(n, _complement_word(argv[-1]))
    if verb in ("sf", "entropy"):
        return flow.flow_report(n, _word_arg(argv, "--mu"), _word_arg(argv, "--nu")).as_dict()
    if verb == "aps":
        v = algebra.monomial(n, _word_arg(argv, "--mu"), _word_arg(argv, "--nu"))
        range_trace, source_trace = flow.aps_index_traces(v)
        return range_trace, source_trace, flow.spectral_flow(matrices.build_u_v(v))
    if verb == "dixmier":
        return numerics.dixmier_limit(n, list(DIXMIER_S), numerics.SummationConfig(cutoff=100_000))
    if verb == "sfint":
        mu, nu = _word_arg(argv, "--mu"), _word_arg(argv, "--nu")
        data = numerics.ProjectionPerturbation.from_pairs(flow.projection_perturbation_data(n, mu, nu))
        value = numerics.sf_integral(data, float(_arg(argv, "--r")), numerics.SummationConfig(cutoff=10_000))
        return value, flow.closed_form_sf(n, mu, nu)
    return None


def cli_check(argv: list[str], result) -> int | None:
    """Exit code 0, stdout valid JSON (or the expected text for eval text)
    and equal to the in-process reference."""
    code, stdout = result
    if code != 0:
        return None
    argv = tuple(argv)
    verb = argv[0]
    ref = _cli_reference(argv)
    if verb == "eval" and "--output" not in argv:
        return 1 if stdout == ref + "\n" else None
    report = json.loads(stdout)
    if verb == "eval":
        ok = report == {"n": int(_arg(argv, "--n")), "expr": argv[-1], "result": ref}
    elif verb in ("sf", "entropy"):
        ok = report == ref and report["in_k0_range"] is True
    elif verb == "aps":
        range_trace, source_trace, sf_uv = ref
        ok = (
            Fraction(report["range_index_trace"]) == range_trace
            and Fraction(report["source_index_trace"]) == source_trace
            and Fraction(report["sf_u_v"]) == sf_uv == range_trace + source_trace
            and report["consistent"] is True
        )
    elif verb == "check":
        ok = report["check"] == "kms" and report["cases"] == 81 and report["failures"] == 0
    elif verb == "dixmier":
        ok = report["value"] == ref and abs(ref - 2.0) < 1e-2
    elif verb == "sfint":
        value, exact = ref
        ok = report["sf_integral"] == value and abs(value - float(exact)) < 1e-4
    else:
        ok = False
    return 1 if ok else None


def _cli_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cuntzmod.cli", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _cli_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_ops(rng, call) -> list[Op]:
    return [Op((verb,), partial(call, argv), partial(cli_check, argv)) for verb, argv in cli_argvs(rng)]


def cli_round(rng) -> list[Op]:
    """One fresh process per op, one child at a time."""
    return _cli_ops(rng, _cli_process)


def cli_trace_round(rng) -> list[Op]:
    """The same argument cycle through ``cli.main`` in this process, so the
    tracer sees inside it."""
    return _cli_ops(rng, _cli_in_process)


@dataclass(frozen=True)
class Workload:
    """``tail_permille`` is the tail percentile, fixed per workload: the
    highest of p50, p75, p90, p95 and p99 that has at least ten samples
    beyond it in a 15-second run and that held from run to run (for ``cli``
    none has, so p90 is flagged as too few samples).  A percentile picked
    from each run's sample count would jump between op classes in a round
    of mixed op sizes.  ``in_process`` is False when ops run in child
    processes, which are scaled by the reference start-up rather than the
    kernel (calibrate.py)."""

    name: str
    round: Callable
    trace_round: Callable
    tail_permille: int
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # ~60,000 ops a run, but p90 and above moved with the machine's speed
        Workload("sf_sweep", sf_round, sf_round, 750),
        # ~1,500 ops a run; p95 and p99 moved between runs
        Workload("equality", equality_round, equality_round, 900),
        # ~130 ops a run; p90 sits on the edge between keyfact_sweep and the rest
        Workload("invariants", invariants_round, invariants_round, 750),
        # 16-24 ops a run: no percentile has ten beyond it, so it is flagged;
        # p90 lands on the slowest verbs (dixmier, sfint), which p50 misses
        Workload("cli", cli_round, cli_trace_round, 900, in_process=False),
    )
}
