import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cuntzmod.algebra import (
    AlgebraElement,
    adjoint,
    canonical_form,
    gen,
    monomial,
    multiply,
    one,
    projection,
    term_sort_key,
    zero,
)
from cuntzmod.errors import CuntzError, ExprSyntaxError
from cuntzmod.expr import parse, render
from cuntzmod.scalars import QSqrt


def test_parse_examples():
    assert parse("S[1].S[2]'", 2) == monomial(2, (1,), (2,))
    assert parse("1/2*S[1,1] - S[2]'", 2) == monomial(2, (1, 1), (), Fraction(1, 2)) - monomial(2, (), (2,))
    assert parse("I", 2) == one(2)
    assert parse("0", 2) == zero(2)
    assert parse(" 0 ", 2) == zero(2)


def test_parse_products_and_adjoint_blocks():
    # the apostrophe adjoins the whole generator block
    assert parse("S[1,2]'", 2) == monomial(2, (), (1, 2))
    # '.' is the algebra product, evaluated left to right
    assert parse("S[1]'.S[1]", 2) == one(2)
    assert parse("S[1]'.S[2]", 2) == zero(2)
    assert parse("S[1].S[1]'.S[2]", 2) == multiply(projection(2, (1,)), gen(2, 2))


def test_parse_coefficients():
    assert parse("3/2r*S[1]", 2) == monomial(2, (1,), (), QSqrt(2, 0, Fraction(3, 2)))
    assert parse("1r*I", 2) == one(2).scale(QSqrt(2, 0, 1))
    assert parse("-2*I", 2) == one(2).scale(-2)
    assert parse("2*I - 3/4*S[2]'", 3) == one(3).scale(2) - monomial(3, (), (2,), Fraction(3, 4))
    # unary minus on the first term is accepted on input
    assert parse("-S[2]'", 2) == -monomial(2, (), (2,))


def test_parse_whitespace_insensitive():
    a = parse("1/2 * S[1,1]  -  S[2] '", 2)
    b = parse("1/2*S[1,1]-S[2]'", 2)
    assert a == b


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("S[3]", 2)
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse("S[1", 2)
    assert "expected" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("1/0*I", 2)
    assert "rational" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("S[1] ? S[2]", 2)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("", 2)
    with pytest.raises(ExprSyntaxError):
        parse("1/2", 2)  # a bare nonzero rational is not an element


def test_parse_reads_decimal_digits_only():
    # int() reads every Unicode decimal digit, but not a superscript
    assert parse("\u0663*S[\uff11]", 2) == gen(2, 1).scale(3)
    with pytest.raises(ExprSyntaxError) as err:
        parse("S[\u00b2]", 2)
    assert err.value.offset == 2 and "expected digits" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("S[1] + " + "1" * 5000 + "*I", 2)  # past int()'s digit limit
    assert err.value.offset == 7 and "5000 digits is too long" in str(err.value)


# the grammar's characters, spaces, a superscript and two non-ASCII decimal digits
_PARSER_ALPHABET = "SI[],.'+-*/r0123456789 \u00b2\uff11\u0663"


@settings(max_examples=400, deadline=None)
@given(st.text(_PARSER_ALPHABET, max_size=24), st.sampled_from((2, 3, 12)))
@example("S[\u00b2]", 2)
def test_parse_raises_only_package_errors(text, n):
    try:
        parse(text, n)
    except CuntzError:
        pass


def test_render_examples():
    assert render(monomial(2, (1,), (2,))) == "S[1].S[2]'"
    assert render(zero(2)) == "0"
    assert render(one(2).scale(Fraction(1, 2))) == "1/2*I"
    assert render(one(2)) == "I"
    assert render(gen(2, 1)) == "S[1]"
    assert render(adjoint(gen(2, 1))) == "S[1]'"


def test_render_signs_stay_in_grammar():
    a = -monomial(2, (), (2,)) + monomial(2, (1, 1), (), Fraction(1, 2))
    text = render(a)
    assert text == "-1*S[2]' + 1/2*S[1,1]"
    assert parse(text, 2) == a


def test_render_mixed_coefficient_splits():
    c = QSqrt(2, Fraction(1, 2), Fraction(-3, 4))
    a = monomial(2, (1,), (), c)
    text = render(a)
    assert text == "1/2*S[1] - 3/4r*S[1]"
    assert parse(text, 2) == a


def test_render_deterministic_order():
    a = monomial(2, (2,), ()) + one(2) + monomial(2, (), (1,)) + monomial(2, (1,), ())
    # degree ascending: S[1]' (-1), I (0), then degree 1 terms by mu
    assert render(a) == "S[1]' + I + S[1] + S[2]"


def test_multi_digit_letters_round_trip():
    a = monomial(12, (10, 11), (12,))
    assert render(a) == "S[10,11].S[12]'"
    assert parse(render(a), 12) == a


# -- the integer renderer against the Fraction-based one it replaced ---------


def _oracle_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _oracle_mono(mu, nu) -> str:
    if not mu and not nu:
        return "I"
    parts = []
    if mu:
        parts.append("S[" + ",".join(map(str, mu)) + "]")
    if nu:
        parts.append("S[" + ",".join(map(str, nu)) + "]'")
    return ".".join(parts)


def oracle_render(a) -> str:
    """The renderer as it was before it worked on integer triples: every
    coefficient part goes through Fraction, every leg through str.join."""
    if a.is_zero:
        return "0"
    pieces = []
    for key in sorted(a.terms, key=term_sort_key):
        c = a.terms[key]
        text = _oracle_mono(*key)
        if c.na != 0:
            pieces.append((Fraction(c.na, c.den), False, text))
        if c.nb != 0:
            pieces.append((Fraction(c.nb, c.den), True, text))
    out = []
    for i, (coeff, is_root, text) in enumerate(pieces):
        if i == 0:
            value = coeff
            explicit = value != 1 or is_root
        else:
            out.append(" - " if coeff < 0 else " + ")
            value = abs(coeff)
            explicit = value != 1 or is_root
        if explicit:
            out.append(f"{_oracle_frac(value)}{'r' if is_root else ''}*{text}")
        else:
            out.append(text)
    return "".join(out)


_PART = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


@st.composite
def render_elements(draw):
    """Elements over n in {2, 3, 4, 9, 10, 12}: perfect squares fold the
    root part, 10 and 12 have two-digit letters; legs up to 6 letters,
    the empty word included; both coefficient parts with any sign and
    denominators up to 12."""
    n = draw(st.sampled_from((2, 3, 4, 9, 10, 12)))
    word = st.lists(st.integers(1, n), max_size=6).map(tuple)
    keys = draw(st.lists(st.tuples(word, word), max_size=8, unique=True))
    return AlgebraElement(n, {key: QSqrt(n, draw(_PART), draw(_PART)) for key in keys})


@settings(max_examples=400, deadline=None)
@given(render_elements())
def test_render_matches_the_fraction_oracle(a):
    text = render(a)
    assert text == oracle_render(a)
    assert parse(text, a.n) == a


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_render_deep_words_without_recursion():
    mu = tuple(1 + (i * 7) % 3 for i in range(2100))
    nu = mu[:2000] + (3,)
    a = monomial(3, mu, nu, QSqrt(3, Fraction(-2, 3), 5)) + monomial(3, mu, mu)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)  # far below the word length
    try:
        text = render(a)
        back = parse(text, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert back == a
    assert text == oracle_render(a)


@pytest.mark.parametrize("n, w", [(2, (1, 1, 2)), (3, (2, 1, 3)), (10, (10, 3)), (2, (1,) * 10)])
def test_render_complement_of_a_projection(n, w):
    # canonical 1 - P_w: P_v for every v != w of length |w|, in lexicographic order
    expected = " + ".join(
        "S[{0}].S[{0}]'".format(",".join(map(str, v)))
        for v in itertools.product(range(1, n + 1), repeat=len(w))
        if v != w
    )
    assert render(canonical_form(one(n) - projection(n, w))) == expected
