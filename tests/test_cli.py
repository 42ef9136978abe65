import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzmod import cli
from cuntzmod.cli import main, render_json
from cuntzmod.errors import CuntzError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "S[1]'.S[1]")
    assert code == 0 and out == "I\n"
    code, out, _ = run(capsys, "eval", "--n", "2", "S[1].S[1]' + S[2].S[2]' - I")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "eval", "--n", "2", "--output", "json", "I")
    assert code == 0
    assert json.loads(out) == {"n": 2, "expr": "I", "result": "I"}


def test_sf_report(capsys):
    code, out, _ = run(capsys, "sf", "--n", "2", "--mu", "1,1", "--nu", "2")
    assert code == 0
    report = json.loads(out)
    assert report["sf"] == "1/4"
    assert report["eta_diff"] == "0" and report["kernel_diff"] == "0"
    assert report["in_k0_range"] is True
    assert abs(report["entropy"] - 0.17328679513998632) < 1e-15
    assert list(report) == ["n", "mu", "nu", "sf", "eta_diff", "kernel_diff", "in_k0_range", "entropy"]


def test_entropy_verb(capsys):
    code, out, _ = run(capsys, "entropy", "--n", "3", "--mu", "1,2", "--nu", "3")
    assert code == 0
    report = json.loads(out)
    assert report["sf"] == "2/9"


def test_aps_verb(capsys):
    code, out, _ = run(capsys, "aps", "--n", "2", "--mu", "1,1", "--nu", "2")
    assert code == 0
    report = json.loads(out)
    assert report["range_index_trace"] == "-1/4"
    assert report["source_index_trace"] == "1/2"
    assert report["sum"] == "1/4" and report["consistent"] is True


def test_check_verbs(capsys):
    code, out, _ = run(capsys, "check", "kms", "--n", "3", "--max-len", "1")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0 and report["cases"] > 0
    code, out, _ = run(capsys, "check", "hochschild", "--n", "4")
    assert code == 0
    code, out, _ = run(capsys, "check", "tracesplit", "--n", "2", "--max-len", "1")
    assert code == 0
    code, out, _ = run(capsys, "check", "homotopy", "--n", "2", "--samples", "5")
    assert code == 0


def test_text_output_mode(capsys):
    code, out, _ = run(capsys, "sf", "--n", "2", "--mu", "1,1", "--nu", "2", "--output", "text")
    assert code == 0
    assert "sf: 1/4" in out and "entropy: 0.17328679513998632" in out


def test_remaining_check_verbs(capsys):
    code, out, _ = run(capsys, "check", "cocycle", "--n", "2", "--max-len", "1")
    assert code == 0 and json.loads(out)["failures"] == 0
    code, out, _ = run(capsys, "check", "tomita", "--n", "2", "--max-len", "1")
    assert code == 0 and json.loads(out)["failures"] == 0
    code, out, _ = run(capsys, "check", "keyfact", "--n", "2", "--max-len", "1")
    assert code == 0 and json.loads(out)["failures"] == 0


def test_dixmier_verb(capsys):
    code, out, _ = run(capsys, "dixmier", "--n", "2", "--s-list", "1.1,1.05,1.02,1.01", "--cutoff", "100000")
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"] - 2.0) < 1e-2
    code, out, _ = run(capsys, "dixmier", "--n", "2", "--s-list", "2.0", "--cutoff", "10000", "--no-tail")
    assert code == 0
    assert json.loads(out)["tail_correction"] is False


def test_dixmier_refuses_degenerate_schedule(capsys):
    code, out, err = run(capsys, "dixmier", "--n", "2", "--s-list", "1.1,1.1", "--cutoff", "100000")
    assert code == 2 and out == ""
    assert err == "error: dixmier_limit extrapolates a line and needs two distinct s, got [1.1, 1.1]\n"


def test_cutoffs_answer_up_to_the_double_limit(capsys):
    # lattice sums cost the same at any cutoff, so 10^12 answers; integer
    # coefficients never sum a lattice, and sfint at 10^30 answers as before
    code, out, _ = run(capsys, "dixmier", "--n", "2", "--s-list", "1.1,1.05,1.02,1.01", "--cutoff", str(10**12))
    assert code == 0 and abs(json.loads(out)["value"] - 2.0) < 1e-2
    code, out, _ = run(capsys, "sfint", "--n", "2", "--mu", "1,2", "--nu", "1", "--r", "0.5", "--cutoff", str(10**30))
    assert code == 0 and json.loads(out)["sf_integral"] == 0.25
    # past 10^153 the sums' doubles overflow: refused, where sfint once raised OverflowError
    for argv in (
        ["dixmier", "--n", "2", "--s-list", "1.1", "--cutoff", str(10**400)],
        ["sfint", "--n", "2", "--mu", "1,2", "--nu", "1", "--r", "0.5", "--cutoff", str(10**400)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: cutoff must be <= 10**153, past which the lattice sums' doubles overflow; got a 401-digit cutoff\n"


def test_sfint_past_the_lgamma_overflow_answers(capsys):
    # 1/2 + r past 2.56e305, where math.lgamma overflows, once raised
    # OverflowError and then was refused; C_s takes no lgamma there
    code, out, err = run(capsys, "sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "1.7e308")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["sf_integral"], report["sf_exact"], report["abs_error"]) == (0.25, "1/4", 0)


def test_sfint_verb(capsys):
    code, out, _ = run(capsys, "sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "0.5", "--cutoff", "10000")
    assert code == 0
    report = json.loads(out)
    assert report["sf_exact"] == "1/4"
    assert report["abs_error"] < 1e-4


def test_empty_word_flag(capsys):
    code, out, _ = run(capsys, "sf", "--n", "2", "--mu", "1", "--nu", "")
    assert code == 0
    assert json.loads(out)["nu"] == []


def test_determinism(capsys):
    _, first, _ = run(capsys, "sf", "--n", "2", "--mu", "1,1", "--nu", "2")
    _, second, _ = run(capsys, "sf", "--n", "2", "--mu", "1,1", "--nu", "2")
    assert first == second
    _, third, _ = run(capsys, "check", "hochschild", "--n", "3")
    _, fourth, _ = run(capsys, "check", "hochschild", "--n", "3")
    assert third == fourth


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--n", "2", "S[3]")
    assert code == 2 and "byte 2" in err
    code, _, err = run(capsys, "eval", "--n", "2", "S[1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sf", "--n", "2", "--mu", "1,x", "--nu", "2")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    for argv in (("check", "unknown-suite", "--n", "2"), ("frobnicate", "--n", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "invalid choice" in err and "Traceback" not in err
    code, _, err = run(capsys, "dixmier", "--n", "2", "--s-list", "abc", "--cutoff", "10000")
    assert code == 2
    code, _, err = run(capsys, "sfint", "--n", "2", "--mu", "1", "--nu", "2", "--r", "0.5")
    assert code == 2 and "zero perturbation" in err
    for n, mu in (("1", "1"), ("0", "")):
        code, out, err = run(capsys, "sfint", "--n", n, "--mu", mu, "--nu", "", "--r", "0.5")
        assert code == 2 and out == "" and "n >= 2" in err


@pytest.mark.parametrize(
    "text, message",
    [("S[\u00b2]", "expected digits (at byte 2)"), ("1" * 5000 + "*I", "5000 digits is too long (at byte 0)")],
)
def test_eval_refuses_unreadable_digits(capsys, text, message):
    # a superscript passes str.isdigit, and int() refuses 5,000 digits
    code, out, err = run(capsys, "eval", "--n", "2", text)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_sfint_refusal_names_r(capsys):
    code, out, err = run(capsys, "sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "1e-17")
    assert code == 2 and out == ""
    assert err == "error: sf_integral needs 1/2 + r > 1/2 in floats, got r=1e-17, which rounds 1/2 + r to 1/2\n"


# Exact values whose text passes the interpreter's 4,300-digit limit on printing
# an int: u_{mu,nu} with |mu| = 14,300 has sf of denominator 2^14300, and the sum
# of 1/P and 1/Q has denominator P Q of about 8,000 digits.
OVERLONG_ARGV = {
    "sf": ["sf", "--n", "2", "--mu", ",".join(["1"] * 14300), "--nu", "2"],
    "entropy_text": ["entropy", "--n", "2", "--mu", ",".join(["1"] * 14300), "--nu", "2", "--output", "text"],
    "eval": ["eval", "--n", "2", "1/" + "7" * 4000 + "*I + 1/" + "3" * 3999 + "1*I"],
}


@pytest.mark.parametrize("name", OVERLONG_ARGV)
def test_values_past_the_digit_limit_are_refused(capsys, name):
    code, out, err = run(capsys, *OVERLONG_ARGV[name])
    assert code == 2 and out == ""
    assert err.startswith("error: an exact value has a part of about ") and err.count("\n") == 1
    assert f"past the limit of {sys.get_int_max_str_digits()} digits on printing an integer" in err


def test_the_longest_printable_word_meets_no_power_budget(capsys):
    # sf = 14272 (2^14272 - 1)/2^14273 has a 4,299-digit numerator in lowest
    # terms: the longest such word whose report prints (one more letter is
    # refused).  Its powers of n stay inside scalars.HALF_POWER_BUDGET
    code, out, err = run(capsys, "sf", "--n", "2", "--mu", ",".join(["1"] * 14273), "--nu", "2")
    assert code == 0 and err == ""
    assert Fraction(json.loads(out)["sf"]) == Fraction(14272 * (2**14272 - 1), 2**14273)
    code, _, err = run(capsys, "sf", "--n", "2", "--mu", ",".join(["1"] * 14274), "--nu", "2")
    assert code == 2 and "past the limit of" in err


# one command line per verb, each check suite included; --n is appended
N_BELOW_TWO_ARGV = {
    "eval": ["eval", "I"],
    "sf": ["sf", "--mu", "1", "--nu", ""],
    "entropy": ["entropy", "--mu", "1", "--nu", ""],
    "aps": ["aps", "--mu", "1", "--nu", ""],
    **{f"check {suite}": ["check", suite] for suite in cli.CHECKS},
    "dixmier": ["dixmier", "--s-list", "1.1,1.05", "--cutoff", "1000"],
    "sfint": ["sfint", "--mu", "1", "--nu", "", "--r", "0.5"],
}


@pytest.mark.parametrize("n", ["1", "0", "-2"])
@pytest.mark.parametrize("verb", N_BELOW_TWO_ARGV)
def test_every_verb_refuses_n_below_two(capsys, verb, n):
    code, out, err = run(capsys, *N_BELOW_TWO_ARGV[verb], "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: need n >= 2, got --n {n}\n"


def test_term_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "3")
    code, _, err = run(capsys, "eval", "--n", "2", "I - S[1,1].S[1,1]'")
    assert code == 2 and "budget" in err.lower()
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "100")
    code, out, _ = run(capsys, "eval", "--n", "2", "I - S[1,1].S[1,1]'")
    assert code == 0
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "0")
    code, out, err = run(capsys, "eval", "--n", "2", "I - S[1,1].S[1,1]'")
    assert (code, out, err) == (2, "", "error: CUNTZ_TERM_BUDGET must be positive\n")


def test_render_json_floats():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json({"a": [1, True, None, "x\"y"]}) == '{"a":[1,true,null,"x\\"y"]}'
    assert json.loads(render_json({"v": 0.1}))["v"] == 0.1


def test_render_json_escapes_control_characters():
    text = "a\tb\x01c\r\u2028\"\\"
    assert json.loads(render_json({"s": text})) == {"s": text}
    assert render_json("plain 'ascii' text") == '"plain \'ascii\' text"'


def test_eval_json_with_tab_is_valid_json(capsys):
    code, out, _ = run(capsys, "eval", "--output", "json", "--n", "2", "S[1] \t+ S[2]")
    assert code == 0
    assert json.loads(out) == {"n": 2, "expr": "S[1] \t+ S[2]", "result": "S[1] + S[2]"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_render_json_refuses_non_finite(value):
    with pytest.raises(CuntzError):
        render_json({"x": [value]})


def test_sfint_rejects_infinite_r(capsys):
    code, out, err = run(capsys, "sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "inf")
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "kms", "--n", "2", "--max-len", "-1"],
        ["check", "tomita", "--n", "2", "--max-len", "-3"],
    ],
)
def test_check_rejects_negative_max_len(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--max-len" in err


def test_zero_case_check_is_a_usage_error(capsys, monkeypatch):
    from cuntzmod import modular

    monkeypatch.setattr(modular, "kms_sweep", lambda n, max_len: {"check": "kms", "cases": 0, "failures": 0})
    code, out, err = run(capsys, "check", "kms", "--n", "2", "--max-len", "0")
    assert code == 2 and out == "" and "zero cases" in err


def test_oversized_check_is_refused_before_it_runs(capsys):
    start = time.process_time()
    code, out, err = run(capsys, "check", "tomita", "--n", "4", "--max-len", "4")
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert str(cli.CHECK_CASE_BUDGET) in err and str(7 * 341**2 + 6 * 341**4) in err


def plan_options(suite):
    """The option names a check suite's plan takes, as cli reads them."""
    code = cli._load(cli.CHECKS[suite], f"{suite}_plan").__code__
    return code.co_varnames[:code.co_argcount]


@pytest.mark.parametrize(
    "argv",
    [
        ["hochschild", "--n", "62500"],
        *([suite, "--n", "2", "--max-len", "1000000000"] for suite in cli.CHECKS if "max_len" in plan_options(suite)),
    ],
    ids=" ".join,
)
def test_huge_check_is_refused_at_once(capsys, argv):
    start = time.process_time()
    code, out, err = run(capsys, "check", *argv)
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert f"above the budget of {cli.CHECK_CASE_BUDGET}" in err


@pytest.mark.parametrize(
    "n, max_len, cases, probes",
    [(4, 4, 5 * 341**2, 85**2), (3, 2, 5 * 13**2, 40**2)],
)
def test_keyfact_check_is_charged_for_its_probes(capsys, n, max_len, cases, probes):
    # every keyfact case checks S_a S_b^* for all legs a, b up to length 3
    start = time.process_time()
    code, out, err = run(capsys, "check", "keyfact", "--n", str(n), "--max-len", str(max_len))
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert f"at least {cases} cases, {cases * probes} units of work" in err


@pytest.mark.parametrize("argv, power", [
    (["eval", "--n", "2", f"I - S[{','.join('1' * 20000)}].S[{','.join('1' * 20000)}]'"], "2**20000 (6021 digits)"),
    (["aps", "--n", "2", "--mu", "1", "--nu", ",".join("1" * 15000)], "2**14999 (4516 digits)"),
])
def test_budget_refusal_of_a_power_str_cannot_print(capsys, argv, power):
    # canonical_form and phi_k_endo need a power of 2 of more than the 4,300
    # digits str writes out; the refusal gives its digit count instead
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and power in err


def test_tracesplit_check_is_charged_for_phi_k(capsys):
    # every tracesplit case walks the n^|k| rank-one terms of Phi_k, |k| <= 3
    start = time.process_time()
    code, out, err = run(capsys, "check", "tracesplit", "--n", "60", "--max-len", "0")
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    work = 4 * (1 + 2 * (60 + 60**2 + 60**3))  # 2 + 2 cases per k, times sum_k 60^|k|
    assert f"at least 28 cases, {work} units of work" in err


def test_homotopy_check_is_charged_for_n(capsys):
    # a homotopy path certifies matrices over all n letters: n^2 a sample
    start = time.process_time()
    code, out, err = run(capsys, "check", "homotopy", "--n", "1000", "--samples", "2")
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert "at least 4 cases, 8000000 units of work" in err
    code, out, _ = run(capsys, "check", "homotopy", "--n", "40", "--samples", "21")
    assert code == 0 and json.loads(out)["failures"] == 0


@pytest.mark.parametrize(
    "n, max_len, suite",
    [(n, max_len, suite) for suite in cli.CHECKS for n, max_len in ((2, 0), (2, 1), (3, 1))]
    + [(4, 0, "hochschild")],
)
def test_check_case_estimate_is_the_reported_count(suite, n, max_len):
    module = cli.CHECKS[suite]
    args = [{"n": n, "max_len": max_len, "samples": 3}[name] for name in plan_options(suite)]
    cases, work = cli._load(module, f"{suite}_plan")(*args)
    assert cases == cli._load(module, f"{suite}_sweep")(*args)["cases"]
    assert work >= cases


def test_check_case_budget_is_a_strict_bound(capsys, monkeypatch):
    # check kms --n 2 --max-len 1: 3 words, 9 monomials, 81 pairs
    monkeypatch.setattr(cli, "CHECK_CASE_BUDGET", 81)
    assert run(capsys, "check", "kms", "--n", "2", "--max-len", "1")[0] == 0
    monkeypatch.setattr(cli, "CHECK_CASE_BUDGET", 80)
    code, _, err = run(capsys, "check", "kms", "--n", "2", "--max-len", "1")
    assert code == 2
    assert err == "error: check kms would run at least 81 cases, 81 units of work, above the budget of 80\n"
    code, _, err = run(capsys, "check", "homotopy", "--n", "2", "--samples", "21")
    assert code == 2 and "at least 4 cases, 336 units of work" in err


JSON_COMMANDS = [
    ["eval", "--output", "json", "--n", "2", "S[1]'.S[1]"],
    ["sf", "--n", "2", "--mu", "1", "--nu", ""],
    ["entropy", "--n", "3", "--mu", "1,2", "--nu", "3"],
    ["aps", "--n", "2", "--mu", "2", "--nu", "1,1"],
    *(["check", suite, "--n", "2", "--max-len", "0"] for suite in cli.CHECKS),
    ["dixmier", "--n", "2", "--s-list", "1.5,1.2", "--cutoff", "1000"],
    ["sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "0.5", "--cutoff", "1000"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_every_json_stdout_parses(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert isinstance(json.loads(out), dict)


WHITESPACE = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028", max_size=3)


@st.composite
def spaced_expressions(draw):
    """(n, expression text) with drawn whitespace between every token."""
    n = draw(st.integers(2, 3))
    letter = st.integers(1, n).map(str)
    tokens = []
    for t in range(draw(st.integers(1, 3))):
        if t:
            tokens.append(draw(st.sampled_from(["+", "-"])))
        coeff = draw(st.sampled_from([[], ["2", "*"], ["1", "/", "2", "*"], ["3", "r", "*"]]))
        tokens += coeff
        for f in range(draw(st.integers(1, 2))):
            if f:
                tokens.append(".")
            if draw(st.booleans()):
                tokens.append("I")
                continue
            tokens += ["S", "[", draw(letter)]
            for _ in range(draw(st.integers(0, 1))):
                tokens += [",", draw(letter)]
            tokens.append("]")
            if draw(st.booleans()):
                tokens.append("'")
    text = ""
    for token in tokens:
        text += draw(WHITESPACE) + token
    return n, text + draw(WHITESPACE)


@settings(max_examples=60, deadline=None)
@given(spaced_expressions())
def test_eval_json_parses_for_any_whitespace(case):
    n, text = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--output", "json", "--n", str(n), text])
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["expr"] == text and report["n"] == n
