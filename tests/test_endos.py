import itertools
from fractions import Fraction

import pytest

from conftest import monomial_elements, random_element
from cuntzmod.algebra import adjoint, equals, gen, monomial, one, s_word, words_upto
from cuntzmod.endos import (
    EndoSum,
    RankOne,
    compose_left_mult,
    endo_apply,
    endo_compose,
    key_fact_check,
    keyfact_sweep,
    phi_k_endo,
    tau_delta_endo,
    tau_delta_truncated,
    tau_tilde,
    tracesplit_sweep,
)
from cuntzmod.errors import DomainError, TermBudgetExceeded
from cuntzmod.modular import gauge_component, trace_F
from cuntzmod.scalars import QSqrt, n_power


def theta(x, y):
    return EndoSum.rank_one(x, y)


def test_endo_apply_examples():
    assert endo_apply(theta(gen(2, 1), gen(2, 1)), gen(2, 1)) == gen(2, 1)
    assert endo_apply(theta(gen(2, 1), gen(2, 1)), gen(2, 2)).is_zero
    x = monomial(2, (1,), (2,))
    assert endo_apply(theta(one(2), one(2)), x) == x


def test_endo_compose_examples():
    t11 = theta(gen(2, 1), gen(2, 1))
    composed = endo_compose(t11, t11)
    assert len(composed.terms) == 1
    for z in (gen(2, 1), gen(2, 2), one(2)):
        assert endo_apply(composed, z) == endo_apply(t11, z)
    # orthogonal legs compose to the zero sum
    zero_sum = endo_compose(theta(gen(2, 1), gen(2, 2)), t11)
    assert not zero_sum.terms
    # Phi_0 is the projection Theta_{1,1}
    t00 = theta(one(2), one(2))
    for z in monomial_elements(2, 1):
        assert endo_apply(endo_compose(t00, t00), z) == endo_apply(t00, z)


def test_endo_compose_is_application_composition(rng):
    for _ in range(25):
        e1 = theta(random_element(rng, 2, 2), random_element(rng, 2, 2))
        e2 = theta(random_element(rng, 2, 2), random_element(rng, 2, 2))
        v = random_element(rng, 2, 3)
        lhs = endo_apply(endo_compose(e1, e2), v)
        rhs = endo_apply(e1, endo_apply(e2, v))
        assert equals(lhs, rhs)


def test_phi_k_structure():
    p1 = phi_k_endo(1, 2)
    assert len(p1.terms) == 2
    assert all(th.x == th.y == s_word(2, mu) for (_, th), mu in zip(p1.terms, [(1,), (2,)]))
    p0 = phi_k_endo(0, 2)
    assert len(p0.terms) == 1 and p0.terms[0][1].x == one(2)
    pm1 = phi_k_endo(-1, 2)
    assert all(c == Fraction(1, 2) for c, _ in pm1.terms)
    assert all(th.x == th.y == adjoint(s_word(2, mu)) for (_, th), mu in zip(pm1.terms, [(1,), (2,)]))


def test_phi_k_application_is_gauge_projection(rng):
    for k in range(-2, 3):
        e = phi_k_endo(k, 2)
        for _ in range(10):
            z = random_element(rng, 2, 3)
            assert equals(endo_apply(e, z), gauge_component(z, k))


def test_phi_k_projection_laws(rng):
    probes = [random_element(rng, 2, 2) for _ in range(6)]
    for k in range(-2, 3):
        for l in range(-2, 3):
            composed = endo_compose(phi_k_endo(k, 2), phi_k_endo(l, 2))
            for z in probes:
                expected = gauge_component(z, k) if k == l else None
                got = endo_apply(composed, z)
                if k == l:
                    assert equals(got, expected)
                else:
                    assert equals(got, z.scale(0))


def test_phi_k_budget():
    with pytest.raises(TermBudgetExceeded) as err:
        phi_k_endo(30, 2)
    assert "phi_k_endo" in str(err.value) and str(2**30) in str(err.value)


def test_tau_tilde_values():
    assert tau_tilde(theta(gen(2, 1), gen(2, 1))) == 1
    assert tau_tilde(phi_k_endo(1, 2)) == 2
    assert tau_tilde(phi_k_endo(-1, 2)) == Fraction(1, 2)
    for n in (2, 3):
        for k in range(-3, 4):
            assert tau_tilde(phi_k_endo(k, n)) == n_power(n, k)


def test_tau_tilde_trace_property():
    legs = [s_word(2, w) for w in words_upto(2, 2)] + [adjoint(s_word(2, w)) for w in words_upto(2, 2)]
    rank_ones = [theta(x, y) for x, y in itertools.product(legs, repeat=2)]
    for e1 in rank_ones[:40]:
        for e2 in rank_ones[:40]:
            assert tau_tilde(endo_compose(e1, e2)) == tau_tilde(endo_compose(e2, e1))


def test_tau_delta_values():
    for n in (2, 3):
        for k in (-3, -1, 0, 1, 2):
            assert tau_delta_endo(phi_k_endo(k, n)) == 1
    assert tau_delta_endo(theta(one(2), one(2))) == 1


def test_tau_delta_vs_truncated_sup():
    # the direct evaluation equals the truncated-sup definition once the
    # cutoff covers the gauge degrees present; below that it undershoots
    e = phi_k_endo(-3, 2)
    assert tau_delta_truncated(e, 2).is_zero
    for cutoff in (3, 4, 5, 6):
        assert tau_delta_truncated(e, cutoff) == tau_delta_endo(e)
    mixed = theta(gen(2, 1) + monomial(2, (1, 1), ()), gen(2, 1))
    for cutoff in (2, 3, 6):
        assert tau_delta_truncated(mixed, cutoff) == tau_delta_endo(mixed)


def test_tau_delta_truncated_monotone_stabilises(rng):
    for _ in range(10):
        e = theta(random_element(rng, 2, 3), random_element(rng, 2, 3))
        direct = tau_delta_endo(e)
        assert tau_delta_truncated(e, 6) == direct


def test_trace_split_identities():
    for n in (2, 3):
        for k in range(-3, 4):
            phi_k = phi_k_endo(k, n)
            for f in (monomial(n, (1,), (1,)), monomial(n, (1, 2), (1, 2)), monomial(n, (1,), (2,))):
                fused = compose_left_mult(f, phi_k)
                assert tau_tilde(fused) == n_power(n, k) * trace_F(f)
                assert tau_delta_endo(fused) == trace_F(f)


def test_key_fact_examples():
    probes = monomial_elements(2, 2)
    assert key_fact_check(monomial(2, (1, 1), (2,)), 0, probes)
    assert key_fact_check(one(2), 5, probes)
    assert key_fact_check(gen(2, 1), -1, probes)
    with pytest.raises(DomainError):
        key_fact_check(gen(2, 1) + gen(2, 2), 0, probes)
    with pytest.raises(DomainError):
        key_fact_check(gen(2, 1).scale(2), 0, probes)


def test_sweeps():
    r = tracesplit_sweep(2, 2)
    assert r["failures"] == 0
    r = keyfact_sweep(2, 1, probe_len=2)
    assert r["failures"] == 0


def test_rank_one_context_checks():
    with pytest.raises(Exception):
        RankOne(gen(2, 1), gen(3, 1))
    e = EndoSum(2, [(QSqrt.one(2), RankOne(gen(2, 1), gen(2, 1)))])
    assert len(e.terms) == 1
    # zero coefficients and zero legs are dropped
    e2 = EndoSum(2, [(QSqrt.zero(2), RankOne(gen(2, 1), gen(2, 1)))])
    assert not e2.terms
