import math
import operator
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_half_power
from cuntzmod import scalars
from cuntzmod.errors import BackendError, UsageError
from cuntzmod.scalars import QSqrt, n_power, scalar_str


def test_basic_arithmetic():
    a = QSqrt(2, 1, 2)  # 1 + 2 sqrt2
    b = QSqrt(2, 3, -1)  # 3 - sqrt2
    assert a + b == QSqrt(2, 4, 1)
    assert a - b == QSqrt(2, -2, 3)
    # (1 + 2r)(3 - r) = 3 - r + 6r - 2*2 = -1 + 5r
    assert a * b == QSqrt(2, -1, 5)
    assert -a == QSqrt(2, -1, -2)
    assert 1 - QSqrt(2, 0, 1) == QSqrt(2, 1, -1)
    assert bool(QSqrt.zero(2)) is False and bool(QSqrt(2, 0, 1)) is True


def test_rational_fast_paths():
    half = QSqrt(2, Fraction(1, 2))
    third = QSqrt(2, Fraction(1, 3))
    assert half * third == Fraction(1, 6)
    assert half + third == Fraction(5, 6)
    assert QSqrt.one(2) * half == half
    assert half * QSqrt.one(2) == half


_FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 9)), _FRACTIONS, _FRACTIONS,
       st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30)))
def test_int_product_matches_the_qsqrt_product(n, a, b, k):
    # the int branch scales the parts directly; it must land on the same
    # normalised triple as the product with QSqrt(n, k), in either order
    x = QSqrt(n, a, b)
    for k in (k, 0, -1, -7, 10**40):
        expected = x * QSqrt(n, k)
        for value in (x * k, k * x):
            assert type(value) is QSqrt
            assert (value.na, value.nb, value.den) == (expected.na, expected.nb, expected.den)


def test_int_product_skips_the_coercion_but_bool_does_not(monkeypatch):
    seen = []
    coerce = QSqrt._coerce
    monkeypatch.setattr(QSqrt, "_coerce", lambda self, other: seen.append(other) or coerce(self, other))
    x = QSqrt(3, Fraction(2, 3), -1)
    assert x * 3 == QSqrt(3, 2, -3) and not seen
    assert x * True == x and seen == [True]


def test_inverse_and_division():
    a = QSqrt(2, 1, 1)  # 1 + sqrt2, norm -1
    assert a * a.inverse() == 1
    assert (QSqrt(3, 2, 5) / QSqrt(3, 2, 5)) == 1
    with pytest.raises(ZeroDivisionError):
        QSqrt.zero(2).inverse()
    assert 1 / QSqrt(2, 0, 1) == QSqrt(2, 0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


def test_perfect_square_folding():
    assert QSqrt(4, 0, 1) == 2  # sqrt4 folds
    assert QSqrt(9, Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    assert n_power(4, Fraction(1, 2)) == 2
    assert n_power(4, Fraction(-3, 2)) == Fraction(1, 8)


def test_n_power():
    assert n_power(2, 3) == 8
    assert n_power(2, -2) == Fraction(1, 4)
    assert n_power(2, Fraction(1, 2)) == QSqrt(2, 0, 1)
    assert n_power(2, Fraction(-1, 2)) == QSqrt(2, 0, Fraction(1, 2))
    assert n_power(3, Fraction(5, 2)) == QSqrt(3, 0, 9)
    with pytest.raises(BackendError):
        n_power(2, Fraction(1, 3))


def _triple(x: QSqrt) -> tuple:
    return x.n, x.na, x.nb, x.den


@pytest.mark.parametrize("n", [2, 3, 4, 9])  # 4 and 9 fold the root into the rational part
def test_half_power_table_against_repeated_roots(n):
    for e in range(-12, 13):
        value = scalars._HALF_POWERS[(n, e)]
        assert _triple(value) == _triple(oracle_half_power(n, e)), (n, e)
        assert n_power(n, Fraction(e, 2)) is value
        if e % 2 == 0:
            assert n_power(n, e // 2) is value


def test_half_power_budget_refuses_before_building():
    # n^(10^8) would take 0.56 CPU s and 40 MB and stay in the table for good
    from cuntzmod.algebra import monomial
    from cuntzmod.modular import delta_power

    before = len(scalars._HALF_POWERS)
    for call, shown in (
        (lambda: n_power(2, 10**8), "n^(100000000) needs at least 100000000 bits"),
        (lambda: n_power(3, Fraction(-(10**8) + 1, 2)), "n^(-99999999/2) needs at least 49999999 bits"),
        (lambda: delta_power(monomial(2, (1,), ()), 10**8), "n^(-100000000) needs at least 100000000 bits"),
    ):
        start = time.process_time()
        with pytest.raises(UsageError, match=rf"{re.escape(shown)}, past the budget of 131072 bits on one power of n"):
            call()
        assert time.process_time() - start < 0.1
    assert len(scalars._HALF_POWERS) == before
    # the budget's edge: 2^131072 is built, 2^131073 is not
    assert n_power(2, scalars.HALF_POWER_BUDGET).na == 2**scalars.HALF_POWER_BUDGET
    with pytest.raises(UsageError, match="past the budget"):
        n_power(2, scalars.HALF_POWER_BUDGET + 1)


@pytest.mark.parametrize("exponent", [0.5, "1/2", 1.0, 1j, None, "a", float("nan"), Fraction(1, 3), Fraction(-5, 4)])
def test_n_power_refuses_anything_but_an_exact_half_integer(exponent):
    with pytest.raises(BackendError, match=r"needs an int or Fraction exponent in \(1/2\)Z"):
        n_power(2, exponent)


_EXPONENTS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4, 9)), _EXPONENTS)
def test_n_power_gives_the_exact_power_or_backend_error(n, exponent):
    if isinstance(exponent, int) or isinstance(exponent, Fraction) and exponent.denominator <= 2:
        assert _triple(n_power(n, exponent)) == _triple(oracle_half_power(n, int(2 * exponent)))
    else:
        with pytest.raises(BackendError):  # any other exception fails the test
            n_power(n, exponent)


def test_sign_and_abs():
    assert QSqrt(2, 1, 1).sign() == 1
    assert QSqrt(2, -1, -1).sign() == -1
    assert QSqrt(2, 0, 0).sign() == 0
    # 3 - 2 sqrt2 = 0.17... > 0 ; 2 - 2 sqrt2 < 0
    assert QSqrt(2, 3, -2).sign() == 1
    assert QSqrt(2, 2, -2).sign() == -1
    assert QSqrt(2, -3, 2).sign() == -1
    assert QSqrt(2, -2, 2).sign() == 1
    v = QSqrt(2, 2, -2)
    assert v.abs_exact() == -v
    assert float(v.abs_exact()) == pytest.approx(abs(float(v)))


def test_galois_and_conjugate():
    a = QSqrt(2, 1, 3)
    assert (a * QSqrt(2, 1, -3)).nb == 0  # times its Galois conjugate: the rational field norm


def test_as_fraction():
    assert QSqrt(2, Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(BackendError):
        QSqrt(2, 0, 1).as_fraction()


def test_float_value():
    assert float(QSqrt(2, 1, 1)) == pytest.approx(1 + math.sqrt(2))


def test_mixed_fields_rejected():
    with pytest.raises(UsageError):
        QSqrt(2, 1) + QSqrt(3, 1)
    with pytest.raises(TypeError):
        QSqrt(2, 1) + 0.5  # floats never coerce into the exact backend


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (1.0, 0), (Fraction(1, 2), 2.0), (1j,), ("1/2",)])
def test_constructor_refuses_inexact_parts(parts):
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(BackendError):
        QSqrt(2, *parts)


def test_equality_hash_against_rationals():
    assert QSqrt(2, 5) == 5
    assert hash(QSqrt(2, 5)) == hash(5)
    assert QSqrt(2, Fraction(1, 2)) == Fraction(1, 2)
    assert hash(QSqrt(2, Fraction(1, 2))) == hash(Fraction(1, 2))
    assert QSqrt(2, 0, 1) != 1


def test_scalar_str():
    assert scalar_str(QSqrt(2, Fraction(1, 2))) == "1/2"
    assert scalar_str(QSqrt(2, 0, Fraction(3, 4))) == "3/4r"
    assert scalar_str(QSqrt(2, Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4r"
    assert scalar_str(QSqrt(2, Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4r"
    assert scalar_str(QSqrt(2, 0, -1)) == "-1r"
    assert scalar_str(QSqrt(2)) == "0"
    assert scalar_str(Fraction(-7, 3)) == "-7/3"
    assert scalar_str(4) == "4"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_mixed_fields_are_refused(op):
    # + and * check the field themselves; - and / through the coercion
    with pytest.raises(UsageError, match=r"^mixed quadratic fields Q\(sqrt 2\) and Q\(sqrt 3\)$"):
        op(QSqrt(2, 1, 1), QSqrt(3, 1, 1))


def test_scalar_str_refuses_an_inexact_value():
    with pytest.raises(UsageError, match=r"^not an exact scalar: 0\.5$"):
        scalar_str(0.5)


@pytest.mark.parametrize("make", [lambda: QSqrt(1, 2), lambda: QSqrt.one(1), lambda: QSqrt.zero(0)])
def test_no_field_below_two(make):
    # the cached zero and one are made by the constructor, so they refuse n < 2 too
    with pytest.raises(UsageError, match=r"^quadratic field needs n >= 2, got [01]$"):
        make()
