"""Command-line front-end.

Verbs: eval, sf, entropy, aps, check, dixmier, sfint.  Reports go to
stdout (JSON by default for everything except ``eval``), diagnostics to
stderr.  Exit codes: 0 success/pass, 1 check failure, 2 usage error.

Output is deterministic: dict keys keep a fixed order, rationals are
serialized as "p/q" strings (Q(sqrt n) values as "p/q+p'/q'r") and doubles
with 17 significant digits.  CUNTZ_TERM_BUDGET overrides the term budget
of the canonical-form expansion that ``eval`` prints (and of Phi_k); the
equality and membership tests behind the other verbs never expand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .algebra import canonical_form, check_word, monomial
from .endos import KEYFACT_PROBE_LEN, keyfact_sweep, tracesplit_sweep
from .errors import CuntzError, DomainError, UsageError
from .expr import parse, render
from .flow import (
    aps_index_traces,
    closed_form_sf,
    cocycle_sweep,
    flow_report,
    hochschild_sweep,
    projection_perturbation_data,
    spectral_flow,
)
from .matrices import build_u_v, homotopy_sweep
from .modular import kms_sweep, tomita_sweep
from .numerics import ProjectionPerturbation, SummationConfig, dixmier_limit, sf_integral
from .scalars import scalar_str

CHECKS = {
    "kms": lambda args: kms_sweep(args.n, args.max_len),
    "tomita": lambda args: tomita_sweep(args.n, args.max_len),
    "cocycle": lambda args: cocycle_sweep(args.n, args.max_len),
    "hochschild": lambda args: hochschild_sweep(args.n),
    "keyfact": lambda args: keyfact_sweep(args.n, args.max_len),
    "homotopy": lambda args: homotopy_sweep(args.n, args.samples),
    "tracesplit": lambda args: tracesplit_sweep(args.n, args.max_len),
}

# Largest sweep ``check`` starts: about 1e6 of the cheapest cases, tens of
# seconds of kms or tomita work.  A keyfact case counts once per probe.
CHECK_CASE_BUDGET = 1_000_000


def _word_count(n: int, max_len: int) -> int:
    """len(words_upto(n, max_len)) without listing the words; stops once
    past the budget, which every estimate below grows with."""
    total, level = 0, 1
    for _ in range(max_len + 1):
        total += level
        level *= max(n, 0)
        if not level or total > CHECK_CASE_BUDGET:
            break
    return total


def _monomial_count(args) -> int:
    """The sweeps' inputs: every S_mu S_nu^* with legs up to --max-len."""
    return _word_count(args.n, args.max_len) ** 2


# Cases each suite would run, by the loops of its sweep: pairs, triples,
# the k ranges of the endomorphism sweeps and, for homotopy, the sampled
# matrices of its four paths.
CHECK_CASES = {
    "kms": lambda args: _monomial_count(args) ** 2,
    "tomita": lambda args: 7 * _monomial_count(args) + 6 * _monomial_count(args) ** 2,
    "cocycle": lambda args: _monomial_count(args) + _monomial_count(args) ** 3,
    "hochschild": lambda args: 4,
    "keyfact": lambda args: 5 * _monomial_count(args),
    "homotopy": lambda args: 4 * args.samples,
    "tracesplit": lambda args: 7 * (2 + 2 * _word_count(args.n * args.n, args.max_len)),
}

# Probes per case, for the suites whose case is not one unit of work: a
# keyfact case checks its identity on every S_a S_b^* with legs up to
# KEYFACT_PROBE_LEN.
CASE_PROBES = {
    "keyfact": lambda args: _word_count(args.n, KEYFACT_PROBE_LEN) ** 2,
}


def render_json(obj) -> str:
    """Minimal deterministic JSON: insertion-ordered keys, %.17g doubles;
    a non-finite double is an error, never output."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"{obj} has no JSON representation")
        return f"{obj:.17g}"
    if isinstance(obj, Fraction):
        return f'"{scalar_str(obj)}"'
    if isinstance(obj, dict):
        inner = ",".join(f"{render_json(str(k))}:{render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    return render_json(str(obj))


def _emit(report: dict, mode: str) -> None:
    if mode == "json":
        print(render_json(report))
    else:
        print("\n".join(
            f"{key}: {render_json(value) if isinstance(value, (float, dict, list, tuple)) else value}"
            for key, value in report.items()
        ))


def _word(text: str, n: int):
    if text == "":
        return ()
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CuntzError(f"multi-index {text!r} is not comma-separated integers") from None
    return check_word(n, letters)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cuntzmod", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, output_default):
        p.add_argument("--n", type=int, required=True, help="number of generators (>= 2)")
        p.add_argument("--output", choices=("json", "text"), default=output_default)

    p = sub.add_parser("eval", help="evaluate an element expression to canonical form")
    common(p, "text")
    p.add_argument("expr", help="element text, e.g. \"S[1]'.S[1]\"")

    for verb, helptext in (
        ("sf", "spectral flow report for u_{mu,nu}"),
        ("entropy", "relative entropy report for u_{mu,nu}"),
        ("aps", "APS index traces for v = S_mu S_nu^*"),
    ):
        p = sub.add_parser(verb, help=helptext)
        common(p, "json")
        p.add_argument("--mu", required=True, help="comma-separated letters; empty for the empty word")
        p.add_argument("--nu", required=True)

    p = sub.add_parser("check", help="run a named invariant suite")
    p.add_argument("suite", choices=CHECKS)
    common(p, "json")
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--samples", type=int, default=21, help="grid size for homotopy paths")

    p = sub.add_parser("dixmier", help="extrapolated Dixmier limit")
    common(p, "json")
    p.add_argument("--s-list", required=True, help="comma-separated s values in (1, 2]")
    p.add_argument("--cutoff", type=int, default=100_000)
    p.add_argument("--no-tail", action="store_true")

    p = sub.add_parser("sfint", help="numeric spectral-flow integral for u_{mu,nu}")
    common(p, "json")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=10_000)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except CuntzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "eval":
        element = canonical_form(parse(args.expr, args.n))
        if args.output == "text":
            print(render(element))
        else:
            _emit({"n": args.n, "expr": args.expr, "result": render(element)}, "json")
        return 0

    if verb in ("sf", "entropy"):
        report = flow_report(args.n, _word(args.mu, args.n), _word(args.nu, args.n))
        _emit(report.as_dict(), args.output)
        return 0

    if verb == "aps":
        mu = _word(args.mu, args.n)
        nu = _word(args.nu, args.n)
        v = monomial(args.n, mu, nu)
        range_trace, source_trace = aps_index_traces(v)
        sf_uv = spectral_flow(build_u_v(v))
        report = {
            "n": args.n,
            "mu": list(mu),
            "nu": list(nu),
            "range_index_trace": range_trace,
            "source_index_trace": source_trace,
            "sum": range_trace + source_trace,
            "sf_u_v": sf_uv,
            "consistent": range_trace + source_trace == sf_uv,
        }
        _emit(report, args.output)
        return 0 if report["consistent"] else 1

    if verb == "check":
        if args.max_len < 0:
            raise UsageError(f"--max-len must be >= 0, got {args.max_len}")
        estimate = CHECK_CASES[args.suite](args)
        size = f"{estimate} cases"
        if args.suite in CASE_PROBES:
            probes = CASE_PROBES[args.suite](args)
            estimate *= probes
            size += f" of {probes} probes each, {estimate} probes in all"
        if estimate > CHECK_CASE_BUDGET:
            raise UsageError(
                f"check {args.suite} would run at least {size}, "
                f"above the budget of {CHECK_CASE_BUDGET}"
            )
        report = CHECKS[args.suite](args)
        if report["cases"] == 0:
            raise UsageError(f"check {args.suite} ran zero cases")
        _emit(report, args.output)
        return 0 if report["failures"] == 0 else 1

    if verb == "dixmier":
        try:
            schedule = [float(s) for s in args.s_list.split(",") if s]
        except ValueError:
            raise CuntzError(f"--s-list {args.s_list!r} is not comma-separated floats") from None
        cfg = SummationConfig(cutoff=args.cutoff, tail_correction=not args.no_tail)
        value = dixmier_limit(args.n, schedule, cfg)
        report = {
            "n": args.n,
            "s_list": schedule,
            "cutoff": args.cutoff,
            "tail_correction": not args.no_tail,
            "value": value,
            "target": 2.0,
            "abs_error": abs(value - 2.0),
        }
        _emit(report, args.output)
        return 0

    if verb == "sfint":
        mu = _word(args.mu, args.n)
        nu = _word(args.nu, args.n)
        data = projection_perturbation_data(args.n, mu, nu)
        if not data:
            raise CuntzError("u_{mu,nu} with |mu| == |nu| has zero perturbation; nothing to integrate")
        cfg = SummationConfig(cutoff=args.cutoff)
        value = sf_integral(ProjectionPerturbation.from_pairs(data), args.r, cfg)
        exact = closed_form_sf(args.n, mu, nu)
        report = {
            "n": args.n,
            "mu": list(mu),
            "nu": list(nu),
            "r": args.r,
            "cutoff": args.cutoff,
            "sf_integral": value,
            "sf_exact": exact,
            "abs_error": abs(value - float(exact)),
        }
        _emit(report, args.output)
        return 0

    raise CuntzError(f"unknown verb {verb!r}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
