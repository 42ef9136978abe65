"""Per-layer figures of a traced run: counts and self-time shares from the
tracer, fixed-input microbenchmarks of the exact stack from the bottom up,
the start-up decomposition and in-process ``cli.main`` times per verb.

Every microbenchmark checks its result before it is timed.  The
microbenchmark inputs are the same on every workload and every seed.
Times are returned as :data:`Timed` samples, which the worker scales to
nominal machine speed one by one with the calibration taken between them,
as it does op times: by the kernel for work in this process, by the
reference start-up for the start-up figures, which come from child
processes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import resource
import subprocess
import sys
import time
import timeit
from fractions import Fraction

import cuntzmod.algebra as algebra
import cuntzmod.cli as cli
import cuntzmod.flow as flow
import cuntzmod.matrices as matrices
import cuntzmod.numerics as numerics
from cuntzmod.scalars import QSqrt

import workloads
from calibrate import Calibration, cpu_clock
from tracer import Tracer

# Layers whose calls per op of the traced sample are reported.
CALLS = (
    "algebra.multiply_into", "algebra.multiply", "algebra.canonical_form", "algebra.equals",
    "matrices.matmul", "matrices.in_fixed_algebra", "modular.state_psi", "modular.delta_power",
    "modular.commutator_D", "modular.inner_product", "endos.compose_left_mult", "numerics.lattice_sum",
)
# Layers whose self time is reported as a share of traced op time.
SELF_SHARES = (
    "algebra.multiply_into", "algebra.multiply", "algebra.canonical_form", "algebra.equals",
    "matrices.matmul", "matrices.is_modular_unitary", "matrices.build_u_mu_nu",
    "modular.state_psi", "modular.delta_power", "modular.commutator_D", "modular.inner_product",
    "flow.spectral_flow", "flow.cocycle_b_defect", "endos.key_fact_check", "endos.tau_delta_endo",
    "expr.parse", "expr.render",
)
CLI_MAIN_VERBS = ("eval-text", "sf", "entropy", "aps", "check", "dixmier", "sfint")

U_FIXED = (4, (1, 2, 3, 4), (2, 3, 1))
CANONICAL_FIXED_WORD = (1,) * 12
LATTICE_FIXED = (0.3, 1.0)
SFINT_FIXED = ((Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2)))  # u_{(1,1),(2)}, n = 2
STARTUP_REPEATS = 3
CLI_MAIN_REPEATS = 3

# ``(CPU start, CPU seconds)`` samples of one figure, and the factor that
# turns their median in seconds into the figure's unit.
Timed = tuple[list[tuple[float, float]], float]


def trace_counts(tracer: Tracer) -> dict[str, float]:
    """Count figures per op: these repeat exactly for one seed."""
    ops = tracer.ops
    out = {f"{name}.calls": tracer.calls[name] / ops for name in CALLS}
    out["scalars.mul.calls"] = tracer.counts["scalars.mul"] / ops
    out["scalars.add.calls"] = tracer.counts["scalars.add"] / ops
    out["algebra.multiply_into.term_pairs"] = tracer.counts["algebra.multiply_into.term_pairs"] / ops
    cf_calls = tracer.calls["algebra.canonical_form"]
    out["algebra.canonical_form.fast_path_share"] = (
        tracer.counts["algebra.canonical_form.fast_path"] / cf_calls if cf_calls else 0.0
    )
    out["algebra.canonical_form.expanded_terms"] = tracer.counts["algebra.canonical_form.expanded_terms"] / ops
    out["algebra.canonical_form.terms_out"] = tracer.counts["algebra.canonical_form.terms_out"] / ops
    out["trace.spans"] = float(tracer.span_count)
    return out


def trace_shares(tracer: Tracer) -> dict[str, float]:
    return {f"{name}.self_share": tracer.self_seconds[name] / tracer.op_seconds for name in SELF_SHARES}


def traced_sample(workload, seed: int) -> tuple[Tracer, int, float]:
    """Run the workload's fixed, seeded op sample three times: a warm-up
    pass that fills the reference caches, an untraced pass and a traced
    pass.  Returns the tracer, the failed-op count of all passes and the
    traced pass's op CPU time over the untraced pass's."""
    ops = workload.trace_round(random.Random(seed))
    warm = workloads.run_round(ops, time.thread_time)
    plain = workloads.run_round(ops, time.thread_time)
    tracer = Tracer()
    tracer.install()
    failed = warm.failed + plain.failed
    try:
        for op in ops:
            try:
                result = tracer.run_op(op.call)
            except Exception:  # counted, as in an untraced run
                failed += 1
                continue
            if workloads.check_result(op, result) is None:
                failed += 1
    finally:
        tracer.uninstall()
    return tracer, failed, tracer.op_seconds / sum(plain.op_seconds)


# -- fixed-input microbenchmarks --------------------------------------------------


def _samples(cal: Calibration, run, repeats: int) -> list[tuple[float, float]]:
    """``repeats`` samples of the CPU seconds ``run`` returns, each with its
    start; ``run`` measures its own time, so it may time part of what it
    does (a batch).  Calibrates between repeats."""
    samples = []
    for _ in range(repeats):
        cal.mark_if_due()
        start = cpu_clock()
        samples.append((start, run()))
    return samples


def _cpu_seconds(fn) -> float:
    t0 = time.thread_time()
    fn()
    return time.thread_time() - t0


def _per_call(cal, stmt, budget_s: float, unit: float, number_per_call: int = 1, **names) -> Timed:
    """Seven batches timing the CPU time per call, in ``unit`` per second,
    batches sized to fill the budget; timeit switches the collector off
    while it times."""
    timer = timeit.Timer(stmt, timer=time.thread_time, globals=names or None)
    loops, elapsed = timer.autorange()
    batch = max(1, int(loops * budget_s / 7 / max(elapsed, 1e-9)))
    return _samples(cal, lambda: timer.timeit(batch), 7), unit / batch / number_per_call


def _semantic_identity(m) -> bool:
    k = m.k
    return all(
        algebra.equals(m.rows[i][j], algebra.one(m.n) if i == j else algebra.zero(m.n))
        for i in range(k)
        for j in range(k)
    )


def microbenchmarks(cal: Calibration, budget_s: float) -> tuple[dict[str, Timed], list[str]]:
    """Fixed inputs, each result checked before it is timed.  Returns the
    figures and the names of failed checks."""
    failures: list[str] = []
    out: dict[str, Timed] = {}
    each = budget_s / 8

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    # QSqrt: one integral and one non-integral operand pair per statement.
    x1, y1 = QSqrt(2, 3), QSqrt(2, -5)
    x2, y2 = QSqrt(2, Fraction(3, 7), Fraction(2, 5)), QSqrt(2, Fraction(-1, 3), Fraction(5, 2))
    check("scalars.mul", x1 * y1 == QSqrt(2, -15)
          and x2 * y2 == QSqrt(2, Fraction(-1, 7) + 2 * Fraction(2, 5) * Fraction(5, 2),
                               Fraction(3, 7) * Fraction(5, 2) - Fraction(2, 5) / 3))
    check("scalars.add", x1 + y1 == QSqrt(2, -2)
          and x2 + y2 == QSqrt(2, Fraction(3, 7) - Fraction(1, 3), Fraction(2, 5) + Fraction(5, 2)))
    pairs = dict(x1=x1, y1=y1, x2=x2, y2=y2)
    out["scalars.mul.fixed_ns"] = _per_call(cal, "x1 * y1; x2 * y2", each, 1e9, 2, **pairs)
    out["scalars.add.fixed_ns"] = _per_call(cal, "x1 + y1; x2 + y2", each, 1e9, 2, **pairs)

    u = matrices.build_u_mu_nu(*U_FIXED)
    k = u.k

    def square_by_multiply_into():
        rows = [[{} for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    algebra._multiply_into(rows[i][j], u.rows[i][l].terms, u.rows[l][j].terms, True)
        return rows

    square = matrices.AlgMatrix([[algebra.AlgebraElement(u.n, t) for t in row] for row in square_by_multiply_into()])
    check("algebra.multiply_into", _semantic_identity(square))
    out["algebra.multiply_into.fixed_us"] = _per_call(cal, square_by_multiply_into, each, 1e6, k**3)
    check("matrices.matmul", _semantic_identity(u @ u))
    out["matrices.matmul.fixed_us"] = _per_call(cal, lambda: u @ u, each, 1e6)
    check("matrices.is_modular_unitary", matrices.is_modular_unitary(u) is True)
    out["matrices.is_modular_unitary.fixed_us"] = _per_call(cal, lambda: matrices.is_modular_unitary(u), each, 1e6)
    check("flow.spectral_flow", flow.spectral_flow(u) == Fraction(3, 256))
    out["flow.spectral_flow.fixed_us"] = _per_call(cal, lambda: flow.spectral_flow(u), each, 1e6)

    complement = algebra.one(2) - algebra.projection(2, CANONICAL_FIXED_WORD)
    canon = algebra.canonical_form(complement)
    expected = {(v, v) for v in algebra.words(2, 12) if v != CANONICAL_FIXED_WORD}
    check("algebra.canonical_form", set(canon.terms) == expected
          and all(c == QSqrt.one(2) for c in canon.terms.values()))
    out["algebra.canonical_form.fixed_us"] = _per_call(cal, lambda: algebra.canonical_form(complement), each, 1e6)

    # sum_k 1/(1 + (k + a)^2) = pi sinh(2 pi) / (cosh(2 pi) - cos(2 pi a))
    shift, expo = LATTICE_FIXED
    cfg = numerics.SummationConfig()
    exact = math.pi * math.sinh(2 * math.pi) / (math.cosh(2 * math.pi) - math.cos(2 * math.pi * shift))
    check("numerics.lattice_sum", abs(numerics.lattice_sum(shift, expo, cfg) - exact) < 1e-9 * exact)
    out["numerics.lattice_sum.fixed_us"] = _per_call(cal, lambda: numerics.lattice_sum(shift, expo, cfg), each, 1e6)

    perturbation = numerics.ProjectionPerturbation.from_pairs(SFINT_FIXED)
    check("numerics.sf_integral", abs(numerics.sf_integral(perturbation, 0.5, numerics.SummationConfig(cutoff=10_000)) - 0.25) < 1e-4)
    out["numerics.sf_integral_ms"] = _samples(
        cal, lambda: _cpu_seconds(lambda: numerics.sf_integral(perturbation, 0.5, numerics.SummationConfig(cutoff=10_000))), 3), 1e3
    dix_cfg = numerics.SummationConfig(cutoff=100_000)
    check("numerics.dixmier_limit", abs(numerics.dixmier_limit(2, list(workloads.DIXMIER_S), dix_cfg) - 2.0) < 1e-2)
    out["numerics.dixmier_limit_ms"] = _samples(
        cal, lambda: _cpu_seconds(lambda: numerics.dixmier_limit(2, list(workloads.DIXMIER_S), dix_cfg)), 3), 1e3
    return out, failures


# -- start-up and the CLI in process ----------------------------------------------


def _child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on ``argv``; return the child's CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, proc


def parse_importtime(stderr: str, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Cumulative ms per prefix from ``python -X importtime`` output: the sum
    over the outermost entries whose module is the prefix or below it."""
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def outermost(node, prefix) -> float:
        _, name, cumulative, children = node
        if name == prefix or name.startswith(prefix + "."):
            return cumulative / 1e3
        return sum(outermost(child, prefix) for child in children)

    return {prefix: sum(outermost(root, prefix) for root in pending) for prefix in prefixes}


IMPORT_PROBE = "import time; t = time.process_time(); import cuntzmod.cli; print(time.process_time() - t)"


def startup(cal: Calibration) -> tuple[dict[str, Timed], list[str]]:
    """A bare interpreter, ``import cuntzmod.cli`` (CPU time inside the
    child), and the cumulative import times of ``cuntzmod.numerics`` and
    ``scipy`` from ``python -X importtime``, which reports wall time."""
    failures = []

    def interpreter():
        return _child(["-c", "pass"])[0]

    def import_cli():
        _, proc = _child(["-c", IMPORT_PROBE])
        if proc.returncode != 0:
            failures.append("startup.import")
            return 0.0
        return float(proc.stdout)

    out = {
        "startup.interpreter_ms": (_samples(cal, interpreter, STARTUP_REPEATS), 1e3),
        "startup.import_ms": (_samples(cal, import_cli, STARTUP_REPEATS), 1e3),
    }
    cal.mark_if_due()
    start = cpu_clock()
    _, proc = _child(["-X", "importtime", "-c", "import cuntzmod.cli"])
    if proc.returncode != 0:
        failures.append("startup.importtime")
    cumulative = parse_importtime(proc.stderr, ("cuntzmod.numerics", "scipy"))
    out["startup.import_numerics_ms"] = [(start, cumulative["cuntzmod.numerics"])], 1.0
    out["startup.import_scipy_ms"] = [(start, cumulative["scipy"])], 1.0
    return out, failures


def cli_main_times(cal: Calibration) -> tuple[dict[str, Timed], list[str]]:
    """``cli.main`` in this process after import, stdout captured, on the
    fixed argument cycle of seed 0."""
    failures = []
    out = {}
    argvs = dict(workloads.cli_argvs(random.Random(0)))
    for verb in CLI_MAIN_VERBS:
        argv = argvs[verb]
        results = []

        def main_once():
            t0 = time.thread_time()
            results.append(workloads._cli_in_process(argv))
            return time.thread_time() - t0

        out[f"cli.main_ms.{verb.split('-')[0]}"] = _samples(cal, main_once, CLI_MAIN_REPEATS), 1e3
        if workloads.cli_check(argv, results[-1]) is None:
            failures.append(f"cli.main.{verb}")
    return out, failures


PER_LAYER_UNITS = {
    **{f"{name}.calls": "calls/op" for name in CALLS},
    "scalars.mul.calls": "calls/op",
    "scalars.add.calls": "calls/op",
    "algebra.multiply_into.term_pairs": "pairs/op",
    "algebra.canonical_form.fast_path_share": "share",
    "algebra.canonical_form.expanded_terms": "terms/op",
    "algebra.canonical_form.terms_out": "terms/op",
    **{f"{name}.self_share": "share" for name in SELF_SHARES},
    "scalars.mul.fixed_ns": "ns",
    "scalars.add.fixed_ns": "ns",
    "algebra.multiply_into.fixed_us": "us",
    "matrices.matmul.fixed_us": "us",
    "matrices.is_modular_unitary.fixed_us": "us",
    "flow.spectral_flow.fixed_us": "us",
    "algebra.canonical_form.fixed_us": "us",
    "numerics.lattice_sum.fixed_us": "us",
    "numerics.sf_integral_ms": "ms",
    "numerics.dixmier_limit_ms": "ms",
    "startup.interpreter_ms": "ms",
    "startup.import_ms": "ms",
    "startup.import_numerics_ms": "ms",
    "startup.import_scipy_ms": "ms",
    **{f"cli.main_ms.{verb.split('-')[0]}": "ms" for verb in CLI_MAIN_VERBS},
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "machine.steal_share": "share",
    "machine.loadavg_1m": "load",
}
