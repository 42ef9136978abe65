"""psi of a product without the product.

One walk sums c_a c_b n^(-|w|) over the matched term pairs whose product is
S_w S_w^*.  ``psi_product(a, b)`` must equal ``oracle_psi_product``, which
builds a b and reads psi off it, exactly.  The pairing reads a's terms
swapped and the twisted cocycle weights each pair by a1's term degree, and
the two endomorphism traces are read from the split table's unit row; each
must still equal the formula that built a*, [D, a1] and the product.  The pairing table gives
psi(l' r) for every pair of two lists at once; each entry must equal the
walk on its pair.  The cocycle sweep reads each of the three terms of
b theta from its own table over all triples of a list; each entry must
equal ``oracle_b_terms``, which builds the products and sigma(a2) and
reads theta off them by the walk, term by term, since the three sum to 0
on every input.  No operand of psi or of anything read off it can carry a
float: the constructors refuse one with BackendError.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monomial_elements, oracle_b_terms, oracle_endo_traces, oracle_psi_product, random_element
from cuntzmod.algebra import adjoint, gen, monomial, multiply, projection, zero
from cuntzmod.endos import (
    EndoSum,
    RankOne,
    _legs,
    _split_traces,
    compose_left_mult,
    key_fact_check,
    phi_k_endo,
    tau_delta_endo,
    tau_tilde,
)
from cuntzmod.errors import BackendError, UsageError
from cuntzmod.flow import _b_tables, aps_index_traces, cocycle_b_defect, twisted_theta
from cuntzmod.modular import (
    _psi_table,
    _psi_walk,
    commutator_D,
    delta_power,
    inner_product,
    psi_product,
    state_psi,
    trace_F,
)
from cuntzmod.scalars import QSqrt


def _assert_psi_product(a, b):
    value = psi_product(a, b)
    assert type(value) is QSqrt and value == oracle_psi_product(a, b)


@st.composite
def _elements(draw, n, max_terms=4):
    """0-max_terms terms with legs up to length 3 and coefficients in Q(sqrt n)."""
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    acc = zero(n)
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = QSqrt(n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))), draw(st.integers(-2, 2)))
        acc = acc + monomial(n, draw(word), draw(word), coeff)
    return acc


@st.composite
def operand_pairs(draw):
    """(a, b) in O_n, n in {2, 3, 4}."""
    n = draw(st.sampled_from((2, 3, 4)))
    return draw(_elements(n)), draw(_elements(n))


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_psi_product_matches_the_product_oracle(pair):
    a, b = pair
    _assert_psi_product(a, b)
    _assert_psi_product(b, a)


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_inner_product_matches_psi_of_the_built_adjoint_product(pair):
    # the walk reads a's terms swapped; the oracle forms a* and a* b
    a, b = pair
    for x, y in ((a, b), (b, a)):
        value = inner_product(x, y)
        assert type(value) is QSqrt and value == state_psi(multiply(adjoint(x), y))


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_twisted_theta_matches_psi_of_the_built_commutator_product(pair):
    # the walk weights each pair by a1's term degree; the oracle forms [D, a1]
    a0, a1 = pair
    for x, y in ((a0, a1), (a1, a0)):
        value = twisted_theta(x, y)
        assert type(value) is QSqrt and value == state_psi(multiply(x, commutator_D(y)))


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


# -- the pairing table against the per-pair walk ----------------------------------


def _assert_psi_table(lefts, rights):
    for star in (False, True):
        rows = _psi_table(lefts, rights, star)
        assert len(rows) == len(lefts)
        for a, row in zip(lefts, rows):
            assert len(row) == len(rights)
            for b, value in zip(rights, row):
                assert type(value) is QSqrt and value == _psi_walk(a, b, star_a=star), (a, b, star)


@pytest.mark.parametrize("n, max_len", [(2, 2), (3, 2), (2, 3)])
def test_psi_table_on_every_monomial_pair(n, max_len):
    # legs of length 3 reach suffix entries t = 2, 3 that two-letter legs never build
    monos = monomial_elements(n, max_len)
    _assert_psi_table(monos, monos)


def test_psi_table_on_drawn_lists(rng):
    for i in range(150):
        n = 2 + i % 3
        lefts = [random_element(rng, n, max_terms=5, max_len=3) for _ in range(rng.randint(0, 4))]
        rights = [random_element(rng, n, max_terms=5, max_len=3) for _ in range(rng.randint(0, 4))]
        _assert_psi_table(lefts, rights)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(
    lambda n: st.tuples(st.lists(_elements(n), max_size=4), st.lists(_elements(n), max_size=4))))
def test_psi_table_matches_the_walk_on_irrational_coefficients(lists):
    _assert_psi_table(*lists)


def test_psi_table_on_empty_lists_and_zero_operands():
    x = gen(2, 1) + gen(2, 2).adjoint() + monomial(2, (1,), (2,))
    for star in (False, True):
        assert _psi_table([], [], star) == []
        assert _psi_table([], [x], star) == []
        assert _psi_table([x, zero(2)], [], star) == [[], []]
        rows = _psi_table([x, zero(2)], [zero(2), x, zero(2)], star)
        assert [[type(v) is QSqrt for v in row] for row in rows] == [[True] * 3] * 2
        assert rows[0][0] == rows[0][2] == 0 and rows[1] == [0, 0, 0]
    _assert_psi_table([x, zero(2)], [zero(2), x, zero(2)])


def test_psi_table_rejects_mixed_contexts():
    # the foreign operand, empty or not, on either side and in any place
    for native in (gen(2, 1), zero(2)):
        for foreign in (gen(3, 1), zero(3)):
            for lefts, rights in (([foreign], [native]), ([native], [foreign]), ([native, foreign], []),
                                  ([], [native, foreign]), ([native], [native, foreign])):
                for star in (False, True):
                    with pytest.raises(UsageError, match="mixed algebras"):
                        _psi_table(lefts, rights, star)


# -- the b theta tables against the terms formed per triple ------------------------


def _assert_b_tables(elements):
    # each term on its own: the three sum to 0 on every input
    left, right, twisted = _b_tables(elements)
    m = len(elements)
    assert [len(row) for row in left] == [len(row) for row in twisted] == [m] * (m * m)
    assert [len(row) for row in right] == [m * m] * m
    for i, j, k in itertools.product(range(m), repeat=3):
        terms = (left[i * m + j][k], right[i][j * m + k], twisted[k * m + i][j])
        a0, a1, a2 = elements[i], elements[j], elements[k]
        assert all(type(t) is QSqrt for t in terms) and terms == oracle_b_terms(a0, a1, a2), (a0, a1, a2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda n: st.lists(_elements(n, max_terms=5), max_size=3)))
def test_b_terms_match_the_product_oracle(elements):
    _assert_b_tables(elements)


def test_b_terms_on_every_criterion_4_monomial_triple():
    # the monomial triples of criterion 4 at n = 2 with legs up to 1
    _assert_b_tables(monomial_elements(2, 1))


def test_b_terms_on_every_monomial_triple_over_three_letters():
    # keys over three letters are indexed only here
    _assert_b_tables(monomial_elements(3, 1))


def test_b_terms_on_drawn_lists(rng):
    for i in range(100):
        n = 2 + i % 3
        _assert_b_tables([random_element(rng, n, max_terms=5, max_len=3) for _ in range(rng.randint(0, 4))])


# Every pairing is one call of the same walk, with its own reading of the operands.
PAIRINGS = (psi_product, inner_product, twisted_theta)


def test_psi_product_on_empty_operands():
    # an empty operand in any position gives the exact zero, for every pairing
    # and for the b-defect and its tables
    for n in (2, 3):
        x, empty = gen(n, 1) + gen(n, 2).adjoint() + monomial(n, (1,), (2,)), zero(n)
        for pairing in PAIRINGS:
            for a, b in ((empty, x), (x, empty), (empty, zero(n))):
                value = pairing(a, b)
                assert value == 0 and type(value) is QSqrt, pairing.__name__
        for triple in ((empty, x, x), (x, empty, x), (x, x, empty), (empty, zero(n), zero(n))):
            value = cocycle_b_defect(*triple)
            assert value == 0 and type(value) is QSqrt, triple
        assert _b_tables([]) == ([], [], [])
        left, right, twisted = _b_tables([x, empty])
        for i, j, k in itertools.product(range(2), repeat=3):
            if 1 in (i, j, k):  # the empty element in some position
                for value in (left[i * 2 + j][k], right[i][j * 2 + k], twisted[k * 2 + i][j]):
                    assert value == 0 and type(value) is QSqrt, (i, j, k)


def test_psi_product_rejects_mixed_contexts():
    # the context checks run even when an operand is empty, for every pairing
    for pairing in PAIRINGS:
        for a, b in ((gen(2, 1), gen(3, 1)), (zero(2), gen(3, 1)), (gen(2, 1), zero(3)), (zero(2), zero(3))):
            with pytest.raises(UsageError, match="mixed algebras"):
                pairing(a, b)
    # and for the b-defect and its tables, with the foreign operand in each of three positions
    for position in range(3):
        for native in (gen(2, 1), zero(2)):
            for foreign in (gen(3, 1), zero(3)):
                triple = [native] * 3
                triple[position] = foreign
                with pytest.raises(UsageError, match="mixed algebras"):
                    cocycle_b_defect(*triple)
                with pytest.raises(UsageError, match="mixed algebras"):
                    _b_tables(triple)


# -- the call sites against the formulas that built the product ------------------


def _random_pairs(rng, count=60):
    for i in range(count):
        n = 2 + i % 3
        yield n, random_element(rng, n, max_terms=4, max_len=3), random_element(rng, n, max_terms=4, max_len=3)


def test_inner_product_equals_psi_of_the_built_product(rng):
    for _, a, b in _random_pairs(rng):
        assert inner_product(a, b) == state_psi(multiply(adjoint(a), b))


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


def test_fused_traces_equal_psi_of_the_built_legs(rng):
    # pi(a) e for a of any degree: the legs (a x, y) are built and each read by state_psi
    for i in range(60):
        n = 2 + i % 3
        e = _random_endo(rng, n)
        a = random_element(rng, n, 3, 2)
        legs = [(c, multiply(a, th.x), th.y) for c, th in e.terms]
        tilde = sum((c * state_psi(multiply(adjoint(y), x)) for c, x, y in legs), QSqrt.zero(n))
        delta = sum((c * state_psi(multiply(adjoint(y), delta_power(x, 1))) for c, x, y in legs), QSqrt.zero(n))
        assert _split_traces(n, _legs(e), a.terms) == (tilde, delta)


def test_split_traces_equal_the_walk(rng):
    # the indexed traces of pi(a) e against the walk (inner_product) over its formed legs, on legs of several terms
    for i in range(60):
        n = 2 + i % 3
        e = _random_endo(rng, n)
        a = random_element(rng, n, 3, 2)
        assert _split_traces(n, _legs(e), a.terms) == oracle_endo_traces(compose_left_mult(a, e))


# -- float data never reaches an exact entry point --------------------------------
#
# No element holds a float or complex coefficient, so no entry point guards
# against one.  Each call below asks for the float operand its entry point
# would read (a degree-0 one where trace_F would object to the degree), and
# the constructor that would build it raises BackendError first; only
# EndoSum_coefficient reaches its entry point, whose own coefficient is the
# float.


def _x():
    return monomial(2, (1,), (2,), 1 - 2j)


def _p():
    return projection(2, (1,)).scale(0.5)


NUMERIC_CALLS = {
    "state_psi": lambda: state_psi(_p()),
    "psi_product": lambda: psi_product(_x(), projection(2, (1,))),
    "psi_product_empty": lambda: psi_product(zero(2).scale(0.5), zero(2)),
    "inner_product": lambda: inner_product(_x(), projection(2, (1,))),
    "trace_F": lambda: trace_F(_p()),
    "trace_F_off_degree": lambda: trace_F(monomial(2, (1,), (), 0.5)),
    "twisted_theta": lambda: twisted_theta(gen(2, 1), _x()),
    "EndoSum": lambda: EndoSum(2, [(1, RankOne(_p(), projection(2, (1,))))]),
    "EndoSum_coefficient": lambda: EndoSum(2, [(0.5, RankOne(gen(2, 1), gen(2, 1)))]),
    "compose_left_mult": lambda: compose_left_mult(_p(), phi_k_endo(1, 2)),
    "compose_left_mult_empty": lambda: compose_left_mult(_p(), EndoSum(2)),
    "key_fact_check": lambda: key_fact_check(gen(2, 1), 0, [_p()]),
    "aps_index_traces": lambda: aps_index_traces(monomial(2, (1, 1), (2,), 0.5)),
}


@pytest.mark.parametrize("name", NUMERIC_CALLS)
def test_numeric_operands_are_refused(name):
    with pytest.raises(BackendError):
        NUMERIC_CALLS[name]()


def test_psi_product_is_exported():
    import cuntzmod

    assert cuntzmod.psi_product is psi_product and "psi_product" in cuntzmod.__all__
    assert len(set(cuntzmod.__all__)) == len(cuntzmod.__all__)
    assert all(hasattr(cuntzmod, name) for name in cuntzmod.__all__)
