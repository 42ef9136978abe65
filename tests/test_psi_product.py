"""psi of a product without the product.

``modular.psi_product(a, b)`` sums c_a c_b n^(-|w|) over the matched term
pairs whose product is S_w S_w^*.  It must equal ``oracle_psi_product``,
which builds a b and reads psi off it: exactly on the exact backend, and up
to rounding on the numeric one, where the kernel adds the pairs grouped by
|w| rather than key by key.  The pairing, the twisted cocycle and the two
endomorphism traces read psi of a product through the kernel; each must
still equal the formula that built the product.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monomial_elements, oracle_psi_product, random_element
from cuntzmod.algebra import adjoint, gen, monomial, multiply, zero
from cuntzmod.endos import EndoSum, RankOne, compose_left_mult, phi_k_endo, tau_delta_endo, tau_tilde
from cuntzmod.errors import UsageError
from cuntzmod.flow import twisted_theta
from cuntzmod.modular import commutator_D, delta_power, inner_product, psi_product, state_psi
from cuntzmod.scalars import QSqrt

NUMERIC_RTOL = 1e-12


def _coeff_mass(a) -> float:
    return sum(abs(complex(c)) for c in a.terms.values())


def _assert_psi_product(a, b):
    value, expected = psi_product(a, b), oracle_psi_product(a, b)
    if a.exact:
        assert type(value) is QSqrt and value == expected
    else:
        assert type(value) is complex
        assert abs(value - expected) <= NUMERIC_RTOL * max(1.0, _coeff_mass(a) * _coeff_mass(b))


@st.composite
def _elements(draw, n):
    """0-4 terms with legs up to length 3 and coefficients in Q(sqrt n)."""
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    acc = zero(n)
    for _ in range(draw(st.integers(0, 4))):
        coeff = QSqrt(n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))), draw(st.integers(-2, 2)))
        acc = acc + monomial(n, draw(word), draw(word), coeff)
    return acc


@st.composite
def operand_pairs(draw):
    """(a, b) in O_n, n in {2, 3, 4}, on either backend; a numeric pair
    gets complex coefficients."""
    n = draw(st.sampled_from((2, 3, 4)))
    a, b = draw(_elements(n)), draw(_elements(n))
    if draw(st.booleans()):
        a = a.to_numeric().scale(complex(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))) or 1j)
        b = b.to_numeric().scale(complex(draw(st.integers(-2, 2)), 1))
    return a, b


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_psi_product_matches_the_product_oracle(pair):
    a, b = pair
    _assert_psi_product(a, b)
    _assert_psi_product(b, a)


def test_psi_product_on_every_monomial_pair():
    monos = monomial_elements(3, 2)
    for a in monos:
        for b in monos:
            value = psi_product(a, b)
            assert type(value) is QSqrt and value == oracle_psi_product(a, b), (a, b)


def test_psi_product_hand_values():
    n = 3
    third = QSqrt(n, Fraction(1, 3))
    assert psi_product(gen(n, 1).adjoint(), gen(n, 1)) == 1  # S_1^* S_1 = 1
    assert psi_product(gen(n, 1), gen(n, 1).adjoint()) == third  # P_1
    assert psi_product(gen(n, 1), gen(n, 2).adjoint()).is_zero  # S_1 S_2^*, off the diagonal
    # nu = al + lam: (S_1 S_{12}^*)(S_1) = S_1 S_2^*, off the diagonal; (S_2 S_{12}^*)(S_1) = P_2
    assert psi_product(monomial(n, (1,), (1, 2)), gen(n, 1)).is_zero
    assert psi_product(monomial(n, (2,), (1, 2)), gen(n, 1)) == third
    # al = nu + gam: S_1^* (S_{12} S_2^*) = P_2 and (S_3 S_1^*)(S_{12} S_{32}^*) = P_{32}
    assert psi_product(monomial(n, (), (1,)), monomial(n, (1, 2), (2,))) == third
    assert psi_product(monomial(n, (3,), (1,)), monomial(n, (1, 2), (3, 2))) == QSqrt(n, Fraction(1, 9))
    # every length weighted by its own power: P_1 + P_{12} at 1/3 + 1/9
    a = monomial(n, (1,), ()) + monomial(n, (1, 2), (2,))
    assert psi_product(a, gen(n, 1).adjoint()) == QSqrt(n, Fraction(4, 9))


def test_psi_product_on_empty_operands():
    for n, exact in ((2, True), (3, False)):
        x = gen(n, 1) if exact else gen(n, 1).to_numeric()
        empty = zero(n, exact)
        for a, b in ((empty, x), (x, empty), (empty, zero(n, exact))):
            value = psi_product(a, b)
            assert value == 0 and type(value) is (QSqrt if exact else complex)


def test_psi_product_rejects_mixed_contexts():
    # the context checks run even when an operand is empty
    for a, b in ((gen(2, 1), gen(3, 1)), (zero(2), gen(3, 1)), (gen(2, 1), zero(3)), (zero(2), zero(3)),
                 (gen(2, 1), gen(2, 1).to_numeric()), (zero(2), gen(2, 1).to_numeric()),
                 (zero(2, False), gen(2, 1)), (zero(2), zero(2, False))):
        with pytest.raises(UsageError):
            psi_product(a, b)


# -- the call sites against the formulas that built the product ------------------


def _random_pairs(rng, count=60):
    for i in range(count):
        n = 2 + i % 3
        yield n, random_element(rng, n, max_terms=4, max_len=3), random_element(rng, n, max_terms=4, max_len=3)


def test_inner_product_equals_psi_of_the_built_product(rng):
    for _, a, b in _random_pairs(rng):
        assert inner_product(a, b) == state_psi(multiply(adjoint(a), b))
        an, bn = a.to_numeric().scale(1 - 2j), b.to_numeric().scale(3 + 1j)
        expected = state_psi(multiply(adjoint(an), bn))
        assert abs(inner_product(an, bn) - expected) <= NUMERIC_RTOL * max(1.0, 10 * _coeff_mass(a) * _coeff_mass(b))


def test_twisted_theta_equals_psi_of_the_built_product(rng):
    for n, a0, a1 in _random_pairs(rng):
        assert twisted_theta(a0, a1) == state_psi(multiply(a0, commutator_D(a1)))
        assert twisted_theta(a1, a0) == state_psi(multiply(a1, commutator_D(a0)))


def _random_endo(rng, n):
    legs = [(random_element(rng, n, 3, 3, allow_zero=False), random_element(rng, n, 3, 3, allow_zero=False))
            for _ in range(rng.randint(1, 3))]
    e = EndoSum(n, [(QSqrt(n, rng.randint(-3, 3), rng.randint(-1, 1)), RankOne(x, y)) for x, y in legs])
    f = random_element(rng, n, 3, 2, allow_zero=False)
    return e + compose_left_mult(f, phi_k_endo(rng.randint(-2, 2), n))


def test_endo_traces_equal_psi_of_the_built_product(rng):
    for i in range(40):
        n = 2 + i % 3
        e = _random_endo(rng, n)
        tilde = sum((c * state_psi(multiply(adjoint(th.y), th.x)) for c, th in e.terms), QSqrt.zero(n))
        delta = sum((c * state_psi(multiply(adjoint(th.y), delta_power(th.x, 1))) for c, th in e.terms),
                    QSqrt.zero(n))
        assert tau_tilde(e) == tilde
        assert tau_delta_endo(e) == delta


def test_psi_product_is_exported():
    import cuntzmod

    assert cuntzmod.psi_product is psi_product and "psi_product" in cuntzmod.__all__
    assert len(set(cuntzmod.__all__)) == len(cuntzmod.__all__)
    assert all(hasattr(cuntzmod, name) for name in cuntzmod.__all__)
