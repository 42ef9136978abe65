import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import monomial_elements, oracle_endo_traces, oracle_key_fact, random_element
from cuntzmod import endos
from cuntzmod.algebra import (
    AlgebraElement,
    _multiply_into,
    _right_index,
    adjoint,
    equals,
    gen,
    monomial,
    multiply,
    one,
    s_word,
    words,
    words_upto,
    zero,
)
from cuntzmod.endos import (
    EndoSum,
    _left_rows,
    _legs,
    _row_product,
    _split_traces,
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
from cuntzmod.errors import DomainError, TermBudgetExceeded, UsageError
from cuntzmod.modular import gauge_component, trace_F
from cuntzmod.scalars import QSqrt, n_power


def theta(x, y):
    return EndoSum(x.n, [(1, RankOne(x, y))])


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


def test_phi_k_budget_builds_no_power():
    # n**|k| is compared with the budget by exponent: 2**(10**9) would be a 125 MB integer
    start = time.process_time()
    with pytest.raises(TermBudgetExceeded) as err:
        phi_k_endo(10**9, 2)
    assert time.process_time() - start < 0.05
    assert "needs 2**1000000000 (301029996 digits) rank-one terms" in str(err.value)


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


_LEG = gen(3, 1) + monomial(3, (2,), (2, 1), QSqrt(3, 1, 1))  # terms of degree 1 and -1


@pytest.mark.parametrize("e", [
    EndoSum(3),
    EndoSum(3, [(2, RankOne(_LEG, _LEG + one(3))), (-2, RankOne(_LEG, _LEG + one(3)))]),
], ids=["empty", "legs_cancel"])
def test_traces_of_a_zero_endomorphism_are_an_exact_zero(e):
    # read from the unit row of the split table; the cancelling legs alone
    # have nonzero traces, so their per-level sums cancel to zero
    if e.terms:
        assert not tau_tilde(EndoSum(3, e.terms[:1])).is_zero
        assert not tau_delta_endo(EndoSum(3, e.terms[:1])).is_zero
    for value in (tau_tilde(e), tau_delta_endo(e)):
        assert type(value) is QSqrt and value.is_zero and value == 0


def test_fused_products_drop_a_zero_leg():
    # S_1^* S_2 = 0 in O_2: pi(S_1^*) Theta_{S_2, S_2} keeps no leg, and
    # neither does Theta_{S_1^*, 1} . Theta_{S_2 S_2^*, 1}, whose pairing
    # (1|S_2 S_2^*)_R = S_2 S_2^* is not zero but whose leg S_1^* S_2 S_2^* is
    s1_star, s2 = adjoint(gen(2, 1)), gen(2, 2)
    for e in (compose_left_mult(s1_star, theta(s2, s2)),
              endo_compose(theta(s1_star, one(2)), theta(multiply(s2, adjoint(s2)), one(2)))):
        assert e.terms == []
        for value in (tau_tilde(e), tau_delta_endo(e)):
            assert type(value) is QSqrt and value.is_zero and value == 0


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


@st.composite
def _key_fact_cases(draw):
    """(v, probes): a monomial partial isometry of O_n, n in {2, 3}, and one
    to three probes of two to four terms of mixed degrees."""
    n = draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    v = monomial(n, draw(word.filter(lambda w: len(w) <= 2)), draw(word.filter(lambda w: len(w) <= 2)))
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        x = zero(n)
        for _ in range(draw(st.integers(2, 4))):
            x = x + monomial(n, draw(word), draw(word), Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        probes.append(x)
    return v, probes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_key_fact_cases())
def test_key_fact_check_equals_the_formed_products(case):
    v, probes = case
    for k in range(-4, 5):
        assert key_fact_check(v, k, probes) == oracle_key_fact(v, k, probes)


def test_key_fact_check_on_drawn_probes_with_cancelling_terms(rng):
    # random_element sums terms whose keys may meet and cancel, of mixed degrees;
    # a zero probe sits among them.
    for n in (2, 3):
        ws = words_upto(n, 2)
        for _ in range(12):
            v = monomial(n, rng.choice(ws), rng.choice(ws))
            probes = [random_element(rng, n, max_terms=6, max_len=3) for _ in range(4)] + [zero(n)]
            for k in range(-3, 4):
                assert key_fact_check(v, k, probes) == oracle_key_fact(v, k, probes)


# The per-part forms of a row, the oracles of ``_row_product`` and ``_left_rows``.


def _side(a_terms: dict, b_terms: dict) -> dict:
    """a b by the term-map product of the pair scan."""
    out: dict = {}
    _multiply_into(out, a_terms, b_terms)
    return out


def _degree_parts(terms: dict) -> dict:
    """{d: the term map of the degree-d part} of a term map, over the degrees present."""
    parts: dict = {}
    for key, c in terms.items():
        parts.setdefault(len(key[0]) - len(key[1]), {})[key] = c
    return parts


def _graded(rows: dict) -> dict:
    """{d: {i: the degree-d part of rows[i]}}, the shape of _row_product, from {i: term map}."""
    graded: dict = {}
    for i, terms in rows.items():
        for d, part in _degree_parts(terms).items():
            graded.setdefault(d, {})[i] = part
    return graded


def _products(a, xs) -> dict:
    """_row_product(a, _right_index(xs)) by algebra.multiply, one operand at a time."""
    return _graded({i: p.terms for i, x in enumerate(xs) if (p := multiply(a, x)).terms})


@pytest.mark.parametrize("n, left_len, probe_len", [(2, 2, 3), (3, 1, 2)])
def test_row_product_of_every_monomial_against_every_probe(n, left_len, probe_len):
    probes = monomial_elements(n, probe_len)
    index = _right_index(probes)
    met = 0
    for a in monomial_elements(n, left_len):  # every monomial is some v^*
        rows = _row_product(a.terms, index)
        assert rows == _products(a, probes)
        met += sum(len(row) for row in rows.values())
    assert met < len(monomial_elements(n, left_len)) * len(probes)  # the pairs that meet nothing are left out


def test_row_product_of_drawn_elements(rng):
    for n in (2, 3):
        for _ in range(60):
            a = random_element(rng, n, max_terms=6, max_len=3)
            xs = [random_element(rng, n, max_terms=6, max_len=3) for _ in range(5)]
            assert _row_product(a.terms, _right_index(xs)) == _products(a, xs)


def test_row_product_drops_what_cancels():
    # (S_() S_1^* - S_1 S_11^*) S_11 S_21^* = S_1 S_21^* - S_1 S_21^* = 0
    a = monomial(2, (), (1,)) - monomial(2, (1,), (1, 1))
    x = monomial(2, (1, 1), (2, 1))
    y = monomial(2, (1,), (2,)) + x  # a y = a S_1 S_2^* = S_() S_2^* - S_1 S_21^*
    assert multiply(a, x).is_zero
    expected = {((), (2,)): QSqrt.one(2), ((1,), (2, 1)): -QSqrt.one(2)}
    assert _row_product(a.terms, _right_index([x, y, x])) == {-1: {1: expected}}


def test_row_product_of_empty_rows_and_zero_operands():
    probes = monomial_elements(2, 1)
    assert _row_product(gen(2, 1).terms, _right_index([])) == {}
    assert _row_product({}, _right_index(probes)) == {}
    assert _row_product(gen(2, 1).terms, _right_index([zero(2), zero(2)])) == {}
    assert _row_product(gen(2, 1).terms, _right_index([zero(2), one(2)])) == {1: {1: gen(2, 1).terms}}


@st.composite
def _row_cases(draw):
    """(a, xs) in O_n, n in {2, 3}: 0-4 elements xs, each element 0-4 terms
    with legs up to 2 letters, so that terms often meet and cancel, and
    coefficients in Q(sqrt n)."""
    n = draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, n), max_size=2).map(tuple)
    coeff = st.builds(lambda p, q: QSqrt(n, p, q), st.integers(-2, 2), st.integers(-1, 1))
    element = st.dictionaries(st.tuples(word, word), coeff, max_size=4).map(lambda terms: AlgebraElement(n, terms))
    return draw(element), draw(st.lists(element, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_row_cases())
@example((monomial(2, (), (1,)) - monomial(2, (1,), (1, 1)), [monomial(2, (1, 1), (2, 1)), zero(2)]))  # a x cancels
def test_row_product_on_the_shared_index_matches_the_pair_scan(case):
    a, xs = case
    expected = _graded({i: out for i, x in enumerate(xs) if (out := _side(a.terms, x.terms))})
    assert _row_product(a.terms, _right_index(xs)) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_split_traces_equal_the_walk_on_every_degree_zero_monomial(n):
    fs = [monomial(n, a, b) for length in range(3) for a in words(n, length) for b in words(n, length)]
    for k in range(-3, 4):
        phi_k = phi_k_endo(k, n)
        legs = _legs(phi_k)
        for f in fs:
            assert _split_traces(n, legs, f.terms) == oracle_endo_traces(compose_left_mult(f, phi_k))


def _left_rows_by_parts(v, probes) -> dict:
    """{d: {i: v times the degree-d part of v^* probes[i]}}, each product
    formed by _side, over the parts whose product is not zero."""
    rows: dict = {}
    for i, x in enumerate(probes):
        for d, part in _degree_parts(_side(adjoint(v).terms, x.terms)).items():
            if side := _side(v.terms, part):
                rows.setdefault(d, {})[i] = side
    return rows


def test_left_rows_equal_the_products_of_the_split_parts(rng):
    # x = S_2^* - S_1 S_21^* + S_12: S_1^* x = S_2, the other two terms cancel
    cancelling = monomial(2, (), (2,)) - monomial(2, (1,), (2, 1)) + monomial(2, (1, 2), ())
    assert multiply(adjoint(gen(2, 1)), cancelling) == gen(2, 2)
    # the cancelled degree -2 part leaves no row behind: only S_1 S_1^* S_12 = S_12
    assert _left_rows(gen(2, 1), _right_index([cancelling])) == {1: {0: s_word(2, (1, 2)).terms}}
    met = set()
    for n, max_len in ((2, 2), (3, 1)):
        for v in monomial_elements(n, max_len):
            probes = [random_element(rng, n, max_terms=6, max_len=3) for _ in range(4)] + [zero(n)]
            if n == 2:
                probes.append(cancelling)
            rows = _left_rows(v, _right_index(probes))
            assert rows == _left_rows_by_parts(v, probes)
            met |= {(i, len(part)) for row in rows.values() for i, part in row.items()}
    assert any(terms > 1 for _, terms in met)  # some parts have several terms


def test_key_fact_rows_compare_coefficients(monkeypatch):
    # a left side with the right terms and supports but doubled coefficients
    # must fail: rows of equal shape are still compared value by value
    left_rows = endos._left_rows
    v, probes = gen(2, 1), monomial_elements(2, 2)
    assert key_fact_check(v, 0, probes)
    monkeypatch.setattr(endos, "_left_rows", lambda v, index: {
        d: {i: {key: c + c for key, c in part.items()} for i, part in rows.items()}
        for d, rows in left_rows(v, index).items()})
    assert not key_fact_check(v, 0, probes)


def test_key_fact_check_refuses_an_empty_probe_list():
    # a check that ran on no probe must not report a pass
    with pytest.raises(UsageError, match="at least one probe"):
        key_fact_check(gen(2, 1), 0, [])
    with pytest.raises(UsageError, match="at least one probe"):
        key_fact_check(gen(2, 1), 0, iter(()))


def test_key_fact_check_refuses_a_probe_from_another_algebra():
    with pytest.raises(UsageError, match="mixed algebras O_2 and O_3"):
        key_fact_check(gen(2, 1), 0, [gen(3, 1)])
    # the foreign probe is refused wherever it sits in the list
    with pytest.raises(UsageError, match="mixed algebras O_2 and O_3"):
        key_fact_check(gen(2, 1), 0, [gen(2, 2), gen(3, 1)])


def test_sweeps():
    r = tracesplit_sweep(2, 2)
    assert r["failures"] == 0
    r = keyfact_sweep(2, 1)
    assert r["failures"] == 0


def test_endo_refusals_name_the_mismatch():
    e2, e3 = phi_k_endo(1, 2), phi_k_endo(1, 3)
    with pytest.raises(UsageError, match="^rank-one legs disagree with the EndoSum context$"):
        EndoSum(2, [(1, RankOne(gen(3, 1), gen(3, 1)))])
    with pytest.raises(UsageError, match="^mixed EndoSum contexts$"):
        e2 + e3
    with pytest.raises(UsageError, match="^mixed EndoSum contexts$"):
        endo_compose(e2, e3)
    with pytest.raises(UsageError, match=r"^element of O_3 fed to an EndoSum over O_2$"):
        endo_apply(e2, gen(3, 1))
    with pytest.raises(UsageError, match="^left multiplier disagrees with the EndoSum context$"):
        compose_left_mult(gen(3, 1), e2)
    with pytest.raises(UsageError, match="^cutoff must be nonnegative$"):
        tau_delta_truncated(e2, -1)


def test_rank_one_context_checks():
    with pytest.raises(Exception):
        RankOne(gen(2, 1), gen(3, 1))
    e = EndoSum(2, [(QSqrt.one(2), RankOne(gen(2, 1), gen(2, 1)))])
    assert len(e.terms) == 1
    # zero coefficients and zero legs are dropped
    e2 = EndoSum(2, [(QSqrt.zero(2), RankOne(gen(2, 1), gen(2, 1)))])
    assert not e2.terms
