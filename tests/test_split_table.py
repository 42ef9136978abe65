"""``endos._split_table``, both traces of pi(a) e for a whole row of a at
once, against ``oracle_endo_traces`` over the legs that
``compose_left_mult`` forms, one a at a time."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from conftest import oracle_endo_traces
from cuntzmod.algebra import AlgebraElement, gen, monomial, one, zero
from cuntzmod.endos import EndoSum, RankOne, _legs, _split_table, compose_left_mult, phi_k_endo
from cuntzmod.scalars import QSqrt, n_power


def _walked(e: EndoSum, row: list) -> tuple[list, list]:
    """The table's two rows, each entry from oracle_endo_traces of the formed pi(a) e."""
    traces = [oracle_endo_traces(compose_left_mult(a, e)) for a in row]
    return [tilde for tilde, _ in traces], [delta for _, delta in traces]


@st.composite
def _split_cases(draw):
    """(e, row) over O_n, n in {2, 3}.  e has 0-4 legs c Theta_{x,y}, with
    x and y of 1-3 terms whose legs have up to 2 letters, and c drawn from
    weights mostly other than one, sqrt n among them; the row holds 0-4
    elements of 0-3 terms of any degree, so that terms often meet and
    cancel."""
    n = draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, n), max_size=2).map(tuple)
    coeff = st.builds(lambda p, q: QSqrt(n, p, q), st.integers(-2, 2), st.integers(-1, 1))

    def element(min_size):
        return st.dictionaries(st.tuples(word, word), coeff, min_size=min_size, max_size=3).map(
            lambda terms: AlgebraElement(n, terms))

    weight = st.sampled_from([1, 2, Fraction(-1, 3), QSqrt(n, 0, 1), QSqrt(n, 1, -1), n_power(n, -2)])
    legs = st.lists(st.tuples(weight, element(1), element(1)), max_size=4)
    e = EndoSum(n, [(c, RankOne(x, y)) for c, x, y in draw(legs)])
    return e, draw(st.lists(element(0), max_size=4))


# a = S_() S_1^* - S_1 S_11^* against the leg x = S_11 S_21^*: the two terms of a x cancel
_CANCELLING = (monomial(2, (), (1,)) - monomial(2, (1,), (1, 1)), monomial(2, (1, 1), (2, 1)))


@settings(max_examples=300, deadline=None)
@given(_split_cases())
@example((EndoSum(2, [(1, RankOne(_CANCELLING[1], gen(2, 2)))]), [_CANCELLING[0], zero(2)]))
@example((phi_k_endo(2, 3), []))  # an empty row
@example((phi_k_endo(-1, 2), [zero(2), one(2), monomial(2, (1, 2), (), QSqrt(2, 0, 1))]))  # degree 2
@example((EndoSum(2, [(QSqrt(2, 0, 1), RankOne(gen(2, 1) + gen(2, 2), one(2) - monomial(2, (2,), (1,))))]),
          [monomial(2, (), (1,)) + monomial(2, (1, 1), (1,), 3), one(2)]))
@example((EndoSum(3, [(1, RankOne(gen(3, 1) + monomial(3, (2,), (2, 1)), one(3) + monomial(3, (1, 3), (3,)))),
                      (Fraction(-1, 3), RankOne(monomial(3, (), (2,), QSqrt(3, 0, 1)) + gen(3, 2), gen(3, 2) - one(3))),
                      (QSqrt(3, 1, -1), RankOne(monomial(3, (3, 3), (1,)) + one(3), monomial(3, (3, 3), (1,))))]),
           [one(3)]))  # the unit row: e's own traces, each leg of several terms and degrees
def test_split_table_equals_the_walk_over_the_formed_legs(case):
    e, row = case
    assert _split_table(e.n, _legs(e), [a.terms for a in row]) == _walked(e, row)
