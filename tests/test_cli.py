import argparse
import contextlib
import io
import json
import math
import time

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
    code, _, _ = run(capsys, "check", "unknown-suite", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "dixmier", "--n", "2", "--s-list", "abc", "--cutoff", "10000")
    assert code == 2
    code, _, err = run(capsys, "sfint", "--n", "2", "--mu", "1", "--nu", "2", "--r", "0.5")
    assert code == 2 and "zero perturbation" in err
    for n, mu in (("1", "1"), ("0", "")):
        code, out, err = run(capsys, "sfint", "--n", n, "--mu", mu, "--nu", "", "--r", "0.5")
        assert code == 2 and out == "" and "n >= 2" in err


def test_term_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "3")
    code, _, err = run(capsys, "eval", "--n", "2", "I - S[1,1].S[1,1]'")
    assert code == 2 and "budget" in err.lower()
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "100")
    code, out, _ = run(capsys, "eval", "--n", "2", "I - S[1,1].S[1,1]'")
    assert code == 0


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
    monkeypatch.setitem(cli.CHECKS, "kms", lambda args: {"check": "kms", "cases": 0, "failures": 0})
    code, out, err = run(capsys, "check", "kms", "--n", "2", "--max-len", "0")
    assert code == 2 and out == "" and "zero cases" in err


def test_oversized_check_is_refused_before_it_runs(capsys):
    start = time.process_time()
    code, out, err = run(capsys, "check", "tomita", "--n", "4", "--max-len", "4")
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert str(cli.CHECK_CASE_BUDGET) in err and str(7 * 341**2 + 6 * 341**4) in err


@pytest.mark.parametrize("suite", [s for s in cli.CHECKS if s != "homotopy"])
@pytest.mark.parametrize("n, max_len", [(2, 0), (2, 1), (3, 1)])
def test_check_case_estimate_is_the_reported_count(suite, n, max_len):
    args = argparse.Namespace(n=n, max_len=max_len, samples=5)
    assert cli.CHECK_CASES[suite](args) == cli.CHECKS[suite](args)["cases"]


def test_check_case_budget_is_a_strict_bound(capsys, monkeypatch):
    # check kms --n 2 --max-len 1: 3 words, 9 monomials, 81 pairs
    monkeypatch.setattr(cli, "CHECK_CASE_BUDGET", 81)
    assert run(capsys, "check", "kms", "--n", "2", "--max-len", "1")[0] == 0
    monkeypatch.setattr(cli, "CHECK_CASE_BUDGET", 80)
    code, _, err = run(capsys, "check", "kms", "--n", "2", "--max-len", "1")
    assert code == 2 and "at least 81 cases" in err and "budget of 80" in err
    code, _, err = run(capsys, "check", "homotopy", "--n", "2", "--samples", "21")
    assert code == 2 and "at least 84 cases" in err


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
