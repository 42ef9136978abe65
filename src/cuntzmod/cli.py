"""Command-line front-end.

Verbs: eval, sf, entropy, aps, check, dixmier, sfint.  Reports go to
stdout (JSON by default for everything except ``eval``), diagnostics to
stderr.  Exit codes: 0 success/pass, 1 check failure, 2 usage error.

Output is deterministic: dict keys keep a fixed order, rationals are
serialized as "p/q" strings (Q(sqrt n) values as "p/q+p'/q'r") and doubles
with 17 significant digits.  CUNTZ_TERM_BUDGET overrides the term budget
of the canonical-form expansion that ``eval`` prints (and of Phi_k); the
equality and membership tests behind the other verbs never expand.

Most of a CLI process's time is interpreter start-up and imports, so this
module imports only what parsing needs, and ``scalars`` only when a
Fraction is rendered.  Each verb imports its own functions when it runs,
and each ``check`` suite its own module: ``eval`` loads algebra, expr and
scalars; ``sf`` and ``entropy`` the exact flow stack without endos;
``sfint`` algebra, scalars and numerics; and ``dixmier`` numerics and no
exact module.  No verb loads a third-party module: the numerics are pure
Python too.

``tally.sweep`` counts the cases each ``<suite>_sweep`` yields; ``<suite>_plan``
beside it estimates them, and the work the budget charges, before it starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from fractions import Fraction

from .errors import CuntzError, DomainError, UsageError


def _load(module: str, name: str):
    """``name`` from the submodule ``module``, imported on first use."""
    return getattr(importlib.import_module(f".{module}", __package__), name)


# Each suite's module, home of its plan and sweep; the plan's parameters name their options.
CHECKS = {
    "kms": "modular",
    "tomita": "modular",
    "cocycle": "flow",
    "hochschild": "flow",
    "keyfact": "endos",
    "homotopy": "matrices",
    "tracesplit": "endos",
}

# Largest sweep check starts: about 1e6 units of work, each about one (a
# keyfact probe) to tens (a kms or tomita case) of CPU microseconds.
CHECK_CASE_BUDGET = 1_000_000


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
        from .scalars import scalar_str

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
    from .algebra import check_word

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
    if args.n < 2:  # every verb takes --n; refuse it before any work
        raise UsageError(f"need n >= 2, got --n {args.n}")
    verb = args.verb
    if verb == "eval":
        from .algebra import canonical_form
        from .expr import parse, render

        element = canonical_form(parse(args.expr, args.n))
        if args.output == "text":
            print(render(element))
        else:
            _emit({"n": args.n, "expr": args.expr, "result": render(element)}, "json")
        return 0

    if verb in ("sf", "entropy"):
        from .flow import flow_report

        report = flow_report(args.n, _word(args.mu, args.n), _word(args.nu, args.n))
        _emit(report.as_dict(), args.output)
        return 0

    if verb == "aps":
        from .algebra import monomial
        from .flow import aps_index_traces, spectral_flow
        from .matrices import build_u_v

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
        plan = _load(CHECKS[args.suite], f"{args.suite}_plan")
        sweep_args = [getattr(args, name) for name in plan.__code__.co_varnames[:plan.__code__.co_argcount]]
        cases, work = plan(*sweep_args)
        if work > CHECK_CASE_BUDGET:
            raise UsageError(
                f"check {args.suite} would run at least {cases} cases, {work} units of work, "
                f"above the budget of {CHECK_CASE_BUDGET}"
            )
        report = _load(CHECKS[args.suite], f"{args.suite}_sweep")(*sweep_args)
        if report["cases"] == 0:
            raise UsageError(f"check {args.suite} ran zero cases")
        _emit(report, args.output)
        return 0 if report["failures"] == 0 else 1

    if verb == "dixmier":
        from .numerics import SummationConfig, dixmier_limit

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

    # sfint: the parser admits only the seven registered verbs, so it is the last
    from .algebra import closed_form_sf, projection_perturbation_data
    from .numerics import ProjectionPerturbation, SummationConfig, sf_integral

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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
