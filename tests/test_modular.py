from fractions import Fraction

import pytest

from conftest import monomial_elements, oracle_half_power, random_element
from cuntzmod.algebra import adjoint, equals, gen, monomial, multiply, one, projection
from cuntzmod.errors import BackendError, DomainError
from cuntzmod.modular import (
    commutator_D,
    delta_power,
    expectation,
    gauge_component,
    inner_product,
    kms_sweep,
    modular_conjugation_J,
    sigma,
    state_psi,
    tomita_F,
    tomita_S,
    tomita_sweep,
    trace_F,
)
from cuntzmod.scalars import QSqrt, n_power


def test_gauge_component():
    a = gen(2, 1) + monomial(2, (1,), (2,))
    assert gauge_component(a, 1) == gen(2, 1)
    assert gauge_component(gen(2, 1), 0).is_zero
    assert gauge_component(one(2), 0) == one(2)
    # components sum back to the element
    b = a + monomial(2, (), (1, 2)) - one(2)
    assert sum((gauge_component(b, k) for k in b.degrees()), gen(2, 1).scale(0)) == b


def test_expectation():
    assert expectation(monomial(2, (1,), (2,))) == monomial(2, (1,), (2,))
    assert expectation(gen(2, 1)).is_zero
    assert expectation(one(2) + monomial(2, (1, 2), ())) == one(2)
    a = gen(2, 1) + one(2)
    assert expectation(expectation(a)) == expectation(a)
    assert expectation(adjoint(a)) == adjoint(expectation(a))


def test_expectation_bimodule_property(rng):
    for _ in range(40):
        f = monomial(2, (1,), (2,)) + one(2).scale(Fraction(1, 2))
        g = monomial(2, (2,), (1,)) - projection(2, (1,))
        a = random_element(rng, 2)
        lhs = expectation(multiply(multiply(f, a), g))
        rhs = multiply(multiply(f, expectation(a)), g)
        assert equals(lhs, rhs)


def test_trace_F():
    assert trace_F(monomial(2, (1, 2), (1, 2))) == Fraction(1, 4)
    assert trace_F(monomial(2, (1,), (2,))).is_zero
    assert trace_F(one(2)) == 1
    with pytest.raises(DomainError):
        trace_F(gen(2, 1))


def test_trace_F_tracial():
    monos = monomial_elements(2, 2)
    degree_zero = [m for m in monos if m.degrees() <= {0}]
    for f in degree_zero[:20]:
        for g in degree_zero[:20]:
            assert trace_F(multiply(f, g)) == trace_F(multiply(g, f))


def test_state_psi():
    assert state_psi(projection(2, (1,))) == Fraction(1, 2)
    assert state_psi(gen(2, 1)).is_zero
    assert state_psi(one(2)) == 1
    assert state_psi(monomial(3, (1, 2), (1, 2))) == Fraction(1, 9)


def test_psi_faithful_positive(rng):
    for _ in range(60):
        a = random_element(rng, 2, max_terms=4, allow_zero=False)
        if a.is_zero:
            continue
        value = state_psi(multiply(adjoint(a), a))
        assert value.sign() > 0


def test_inner_product():
    assert inner_product(gen(2, 1), gen(2, 1)) == 1
    assert inner_product(one(2), projection(2, (1,))) == Fraction(1, 2)
    assert inner_product(gen(2, 1), gen(2, 2)).is_zero
    # linear in the second slot
    a, b, c = gen(2, 1), gen(2, 2), monomial(2, (1,), (2,))
    lhs = inner_product(a, b.scale(Fraction(2, 3)) + c)
    rhs = Fraction(2, 3) * inner_product(a, b) + inner_product(a, c)
    assert lhs == rhs


def test_commutator_D():
    assert commutator_D(gen(2, 1)) == gen(2, 1)
    assert commutator_D(projection(2, (1,))).is_zero
    s1s = adjoint(gen(2, 1))
    assert commutator_D(s1s) == -s1s
    assert commutator_D(monomial(2, (1, 1), (2,))) == monomial(2, (1, 1), (2,))


def test_commutator_D_leibniz(rng):
    for _ in range(40):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        lhs = commutator_D(multiply(a, b))
        rhs = multiply(commutator_D(a), b) + multiply(a, commutator_D(b))
        assert equals(lhs, rhs)


def test_delta_power():
    assert delta_power(gen(2, 1), 1) == gen(2, 1).scale(Fraction(1, 2))
    lhs = delta_power(monomial(2, (1,), (1, 2)), Fraction(1, 2))
    assert lhs == monomial(2, (1,), (1, 2), QSqrt(2, 0, 1))
    for z in (-1, Fraction(1, 2), 2):
        assert delta_power(monomial(2, (1,), (2,)), z) == monomial(2, (1,), (2,))
    assert delta_power(gen(2, 1), 0) == gen(2, 1)


def test_delta_power_multiplicative(rng):
    for z in (Fraction(1, 2), -1, 2):
        for _ in range(25):
            a = random_element(rng, 2)
            b = random_element(rng, 2)
            assert equals(delta_power(multiply(a, b), z), multiply(delta_power(a, z), delta_power(b, z)))
            assert delta_power(a, z).terms.keys() == a.terms.keys()  # n^(zd) c is never 0


def test_delta_power_backend_rules():
    # n^(z d) stays in Q(sqrt n) only for z in (1/2)Z; the refusal names the rule
    for z in (Fraction(1, 3), 0.25, 1j):
        with pytest.raises(BackendError, match=r"needs z in \(1/2\)Z"):
            delta_power(gen(2, 1), z)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modular_maps_term_by_term_against_repeated_roots(rng, n):
    # Each map against its formula, with every scale n^(e/2) from
    # oracle_half_power rather than n_power or its table.  The sweep
    # oracles call these same maps, so this is their cross-check.
    zs = [Fraction(k, 2) for k in range(-4, 5)]
    zs += [int(z) for z in zs if z.denominator == 1]
    for _ in range(20):
        a = random_element(rng, n, max_terms=6, max_len=3)
        degree = {key: len(key[0]) - len(key[1]) for key in a.terms}

        def scaled(halves, swap):
            # c S_mu S_nu^* -> c n^(halves(d)/2) on the key or on its swap
            return {((nu, mu) if swap else (mu, nu)): c * oracle_half_power(n, halves(degree[(mu, nu)]))
                    for (mu, nu), c in a.terms.items()}

        for z in zs:
            assert delta_power(a, z).terms == scaled(lambda d: int(-2 * z * d), False), z
        assert sigma(a).terms == scaled(lambda d: 2 * d, False)
        assert modular_conjugation_J(a).terms == scaled(lambda d: d, True)
        assert tomita_F(a).terms == scaled(lambda d: 2 * d, True)


def test_delta_is_n_to_minus_D():
    # Delta^z scales a term by n^(-z * deg), where deg drives [D, .]
    for a in (gen(2, 1), monomial(2, (1, 1), (2,)), adjoint(gen(2, 1)), projection(2, (2,))):
        (key,) = a.terms
        deg = len(key[0]) - len(key[1])
        assert commutator_D(a) == a.scale(deg) if deg else commutator_D(a).is_zero
        for z in (1, Fraction(1, 2), -2):
            assert delta_power(a, z) == a.scale(n_power(2, -z * deg))


def test_modular_conjugation_J():
    assert modular_conjugation_J(monomial(2, (1,), (2,))) == monomial(2, (2,), (1,))
    assert modular_conjugation_J(gen(2, 1)) == monomial(2, (), (1,), QSqrt(2, 0, 1))
    assert modular_conjugation_J(modular_conjugation_J(gen(2, 1))) == gen(2, 1)


def test_tomita_operators():
    assert tomita_S(monomial(2, (1,), (2,))) == monomial(2, (2,), (1,))
    assert tomita_F(gen(2, 1)) == monomial(2, (), (1,), 2)
    assert tomita_F(one(2)) == one(2)
    for a in monomial_elements(2, 2)[:30]:
        assert tomita_S(a) == modular_conjugation_J(delta_power(a, Fraction(1, 2)))
        assert tomita_F(a) == delta_power(modular_conjugation_J(a), Fraction(1, 2))


def test_sigma_regular_automorphism():
    assert sigma(gen(2, 1)) == gen(2, 1).scale(2)
    assert sigma(projection(2, (1,))) == projection(2, (1,))
    for a in monomial_elements(2, 2)[:40]:
        # regularity: sigma(a)^* = sigma^{-1}(a^*)
        assert adjoint(sigma(a)) == delta_power(adjoint(a), 1)


def test_kms_identity_spot():
    # psi(a b) == psi(sigma(b) a) on a couple of handpicked pairs
    a = monomial(2, (1,), ())
    b = monomial(2, (), (1,))
    assert state_psi(multiply(a, b)) == state_psi(multiply(sigma(b), a))
    report = kms_sweep(2, 1)
    assert report["failures"] == 0 and report["cases"] == 81


def test_tomita_sweep_smoke():
    report = tomita_sweep(2, 1)
    assert report["failures"] == 0
