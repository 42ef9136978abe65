import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import branch_decomposition, monomial_elements, random_element
from cuntzmod.algebra import (
    WORD_COUNT_CAP,
    AlgebraElement,
    _disjoint_terms,
    _multiply_into,
    adjoint,
    canonical_form,
    equals,
    gen,
    linear_combine,
    monomial,
    multiply,
    one,
    projection,
    word_count,
    words_upto,
    zero,
)
from cuntzmod.errors import BackendError, TermBudgetExceeded, UsageError
from cuntzmod.expr import parse, render
from cuntzmod.modular import state_psi
from cuntzmod.scalars import QSqrt


def test_isometry_relations():
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                prod = multiply(adjoint(gen(n, i)), gen(n, j))
                if i == j:
                    assert equals(prod, one(n))
                else:
                    assert prod.is_zero
        total = linear_combine([(1, projection(n, (i,))) for i in range(1, n + 1)])
        assert equals(total, one(n))


def test_multiply_path_matching():
    # (S_1 S_2^*)(S_2 S_1^*) = S_1 S_1^*
    assert multiply(monomial(2, (1,), (2,)), monomial(2, (2,), (1,))) == projection(2, (1,))
    # nu = alpha + lambda case: (S_1 S_{21}^*)(S_2 S_2^*) = S_1 S_{21}^*
    assert multiply(monomial(2, (1,), (2, 1)), projection(2, (2,))) == monomial(2, (1,), (2, 1))
    # alpha = nu + gamma case: (S_1 S_2^*)(S_{21} S_1^*) = S_{11} S_1^*
    assert multiply(monomial(2, (1,), (2,)), monomial(2, (2, 1), (1,))) == monomial(2, (1, 1), (1,))


def test_adjoint():
    assert adjoint(monomial(2, (1,), (2,))) == monomial(2, (2,), (1,))
    assert adjoint(one(2)) == one(2)
    c = QSqrt(2, Fraction(1, 2), Fraction(1, 2))
    assert adjoint(monomial(2, (1,), (), c)) == monomial(2, (), (1,), c)


def test_adjoint_involution_and_antihomomorphism(rng):
    for _ in range(50):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        assert adjoint(adjoint(a)) == a
        assert equals(adjoint(multiply(a, b)), multiply(adjoint(b), adjoint(a)))


def test_linear_combine():
    assert linear_combine([(1, gen(2, 1)), (-1, gen(2, 1))]).is_zero
    assert linear_combine([(Fraction(1, 2), gen(2, 1)), (Fraction(1, 2), gen(2, 1))]) == gen(2, 1)
    with pytest.raises(UsageError):
        linear_combine([])
    with pytest.raises(UsageError):
        linear_combine([(1, gen(2, 1)), (1, gen(3, 1))])


def test_canonical_form_examples():
    # 1 - S_1 S_1^* -> S_2 S_2^*
    diff = one(2) - projection(2, (1,))
    assert canonical_form(diff) == projection(2, (2,))
    # a lone monomial is already canonical
    assert canonical_form(gen(2, 1)) == gen(2, 1)
    # S_1 S_1^* + S_2 S_2^* - 1 -> 0
    s = projection(2, (1,)) + projection(2, (2,)) - one(2)
    assert canonical_form(s).is_zero


def test_canonical_form_idempotent(rng):
    for _ in range(100):
        a = random_element(rng, 2, max_terms=5)
        c = canonical_form(a)
        assert canonical_form(c) == c


def test_canonical_form_per_degree():
    # each gauge-degree group expands to its own deepest member
    a = gen(2, 1) + one(2) - projection(2, (2,)) + monomial(2, (1, 1), (1,))
    c = canonical_form(a)
    assert c.degrees() == {0, 1}
    for (mu, nu) in c.terms:
        assert min(len(mu), len(nu)) == 1


def _expand_then_filter(a) -> dict:
    """canonical_form's term map as it was computed before it deleted a key
    as soon as its coefficients cancelled: expand every term to the deepest
    min-level of its gauge degree, then drop every zero of the whole map."""
    levels: dict = {}
    for mu, nu in a.terms:
        d = len(mu) - len(nu)
        levels[d] = max(levels.get(d, 0), len(nu) if d >= 0 else len(mu))
    out: dict = {}
    for (mu, nu), c in a.terms.items():
        d = len(mu) - len(nu)
        need = levels[d] - (len(nu) if d >= 0 else len(mu))
        for sfx in itertools.product(range(1, a.n + 1), repeat=need):
            key = (mu + sfx, nu + sfx)
            out[key] = out[key] + c if key in out else c
    return {k: v for k, v in out.items() if not v.is_zero}


@st.composite
def canonical_inputs(draw):
    """Elements over n in {2, 3, 10} with diagonal and off-diagonal terms of
    mixed gauge degree at different levels and coefficients in Q(sqrt n),
    plus up to two relators c (sum_a S_{mu a} S_{nu a}^* - S_mu S_nu^*),
    which are zero, so their expansion cancels n keys at once."""
    n = draw(st.sampled_from((2, 3, 10)))
    max_len = 1 if n == 10 else 3
    word = st.lists(st.integers(1, n), max_size=max_len).map(tuple)
    coeff = st.builds(lambda p, q: QSqrt(n, p, q), st.integers(-3, 3), st.integers(-2, 2))
    acc = zero(n)
    for mu, nu, c in draw(st.lists(st.tuples(word, word, coeff), max_size=5)):
        if draw(st.booleans()):
            nu = mu
        acc = acc + monomial(n, mu, nu, c)
    for mu, nu, c in draw(st.lists(st.tuples(word, word, coeff), max_size=2)):
        if draw(st.booleans()):
            nu = mu
        children = linear_combine([(1, monomial(n, mu + (a,), nu + (a,))) for a in range(1, n + 1)])
        acc = acc + (children - monomial(n, mu, nu)).scale(c)
    return acc


@settings(max_examples=300, deadline=None)
@given(canonical_inputs())
@example(projection(2, (1,)) + projection(2, (2,)) - one(2))
@example(projection(3, (2,)) - projection(3, (1, 2)).scale(QSqrt(3, 0, 1)) + monomial(3, (1,), (3, 1)))
@example(one(2) - projection(2, (1,)) + projection(2, (1, 1)).scale(3))  # (11, 11) cancels, then gets 3
def test_canonical_form_matches_expand_then_filter(a):
    c = canonical_form(a)
    assert (c.n, c.terms) == (a.n, _expand_then_filter(a))


def test_equals_examples():
    assert equals(one(2), projection(2, (1,)) + projection(2, (2,)))
    assert not equals(gen(2, 1), gen(2, 2))
    lhs = monomial(2, (1,), (2,))
    rhs = monomial(2, (1, 1), (2, 1)) + monomial(2, (1, 2), (2, 2))
    assert equals(lhs, rhs)


def test_associativity_exhaustive_short():
    for n in (2, 3):
        monos = monomial_elements(n, 1)
        for a, b, c in itertools.product(monos, repeat=3):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_associativity_random_deep(rng):
    # full exhaustion at leg length 3 is ~10^9 triples; sample instead
    ws = words_upto(2, 3)
    for _ in range(3000):
        a, b, c = (
            monomial(2, rng.choice(ws), rng.choice(ws)),
            monomial(2, rng.choice(ws), rng.choice(ws)),
            monomial(2, rng.choice(ws), rng.choice(ws)),
        )
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_canonical_form_preserves_semantics(rng):
    for _ in range(60):
        a = random_element(rng, 2, max_terms=5)
        assert equals(a, canonical_form(a))


def test_equality_oracle_agreement(rng):
    for _ in range(300):
        a = random_element(rng, 2, max_terms=3)
        b = random_element(rng, 2, max_terms=3)
        if rng.random() < 0.3:
            # rewrite a semantically: pad with a multiple of (1 - sum P_i)
            relator = one(2) - projection(2, (1,)) - projection(2, (2,))
            b = a + multiply(relator, random_element(rng, 2, max_terms=2))
        diff = a - b
        psi_val = state_psi(multiply(adjoint(diff), diff))
        assert equals(a, b) == psi_val.is_zero


def test_mixed_backend_rejected():
    # a float or complex coefficient never enters an element
    for c in (0.5, 1j):
        with pytest.raises(BackendError):
            gen(2, 1).scale(c)
        with pytest.raises(BackendError):
            monomial(2, (1,), (), c)
    with pytest.raises(UsageError):
        multiply(gen(2, 1), gen(3, 1))
    with pytest.raises(UsageError):
        gen(2, 1) + gen(3, 1)


def test_multiply_by_an_empty_operand():
    for n in (2, 3):
        x = gen(n, 1)
        empty = zero(n)
        for a, b in ((empty, x), (x, empty), (empty, zero(n))):
            product = multiply(a, b)
            assert (product.n, product.terms) == (n, {})
            assert product.terms is not a.terms and product.terms is not b.terms
    # the context checks still run when an operand is empty
    for a, b in ((zero(2), gen(3, 1)), (gen(2, 1), zero(3)), (zero(2), zero(3))):
        with pytest.raises(UsageError):
            multiply(a, b)


def test_scale_and_operators():
    a = gen(2, 1)
    assert a.scale(0).is_zero
    assert (2 * a).coefficient((1,)) == 2
    assert (a * Fraction(1, 2)) + (a * Fraction(1, 2)) == a
    assert (-a) + a == zero(2)


def test_public_constructor_and_coefficient():
    a = AlgebraElement(2, {((1,), (2,)): Fraction(1, 2), ((), ()): 0})
    assert a == monomial(2, (1,), (2,), Fraction(1, 2))  # zero entries pruned
    assert a.coefficient((1,), (2,)) == Fraction(1, 2)
    assert a.coefficient((2,), (1,)).is_zero
    with pytest.raises(UsageError):
        AlgebraElement(2, {((3,), ()): 1})
    with pytest.raises(UsageError):
        AlgebraElement(1)
    with pytest.raises(UsageError):
        AlgebraElement(2, {((1,), ()): 0.5})  # float into the exact backend


def test_word_validation():
    with pytest.raises(UsageError):
        monomial(2, (3,), ())
    with pytest.raises(UsageError):
        monomial(2, (0,), ())


def test_word_count_is_the_number_of_words():
    for n in (2, 3, 4):
        for max_len in range(5):
            assert word_count(n, max_len) == len(words_upto(n, max_len))
    assert word_count(2, 62) == WORD_COUNT_CAP - 1  # exact up to the cap
    for n, max_len in ((2, 63), (2, 10**9), (10**6, 4)):
        assert word_count(n, max_len) == WORD_COUNT_CAP


def test_term_budget_guard(monkeypatch):
    deep = (1,) * 17  # would need 2^17 > 100000 terms
    with pytest.raises(TermBudgetExceeded):
        canonical_form(one(2) - projection(2, deep))
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "3")
    with pytest.raises(TermBudgetExceeded):
        canonical_form(one(2) - projection(2, (1, 1)))
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "not-a-number")
    with pytest.raises(UsageError):
        canonical_form(one(2) - projection(2, (1,)))


def test_term_budget_error_names_site_and_size(monkeypatch):
    with pytest.raises(TermBudgetExceeded) as err:
        canonical_form(one(2) - projection(2, (1,) * 17))
    message = str(err.value)
    assert "canonical_form" in message and "2-term input" in message
    assert "2**17 = 131072" in message and "budget of 100000" in message
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "3")
    with pytest.raises(TermBudgetExceeded) as err:
        canonical_form(one(3) + monomial(3, (1,), (2,)) - projection(3, (1, 1)))
    assert "3-term input" in str(err.value) and "3**2 = 9" in str(err.value)


def test_term_budget_counts_keys_that_cancelled(monkeypatch):
    # Degree 0 is I - sum_{|w|=4} P_w = 0: I expands to 16 keys, and all of
    # them cancel.  The expansion work still counts, so S_1 of degree 1,
    # which needs 16 more keys, trips a budget of 20.
    monkeypatch.setenv("CUNTZ_TERM_BUDGET", "20")
    words = itertools.product((1, 2), repeat=4)
    a = linear_combine([(1, one(2)), *((-1, projection(2, w)) for w in words),
                        (1, gen(2, 1)), (1, monomial(2, (1, 2, 2, 2, 2), (2, 2, 2, 2)))])
    with pytest.raises(TermBudgetExceeded) as err:
        canonical_form(a)
    assert str(err.value) == (
        "canonical_form: a 19-term input needs 2**4 = 16 terms for one monomial, past the "
        "term budget of 20 (16 already expanded); raise CUNTZ_TERM_BUDGET if this is intended"
    )


# -- equality over disjoint cones against the expansion oracle --------------------


def _expand(terms: dict, key, n: int, depth: int) -> dict:
    """S_mu S_nu^* -> sum_{|s| = depth} S_{mu s} S_{nu s}^*, applied to one
    term."""
    out = dict(terms)
    c = out.pop(key)
    mu, nu = key
    for s in itertools.product(range(1, n + 1), repeat=depth):
        child = (mu + s, nu + s)
        v = out.get(child)
        out[child] = c if v is None else v + c
    return out


@st.composite
def _elements(draw, n, max_terms):
    word = st.lists(st.integers(1, n), max_size=4).map(tuple)
    acc = zero(n)
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = QSqrt(n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))), draw(st.integers(-2, 2)))
        acc = acc + monomial(n, draw(word), draw(word), coeff)
    return acc


@st.composite
def equality_pairs(draw):
    """(a, b) in O_n, n in {2, 3, 4}, with legs up to 4, mixed degrees and
    coefficients in Q(sqrt n).  b is a with one term expanded by one or two
    levels (and maybe one of the new terms again), or a plus
    y (1 - sum_i P_i) x, or independent; then, half the time, b is nudged
    by one monomial."""
    n = draw(st.sampled_from((2, 3, 4)))
    a = draw(_elements(n, 4))
    how = draw(st.sampled_from(("expand", "relator", "independent")))
    if how == "expand" and a.terms:
        key = draw(st.sampled_from(sorted(a.terms)))
        depth = draw(st.integers(1, 2))
        terms = _expand(a.terms, key, n, depth)
        if draw(st.booleans()):
            s = tuple(draw(st.integers(1, n)) for _ in range(depth))
            terms = _expand(terms, (key[0] + s, key[1] + s), n, 1)
        b = AlgebraElement(n, terms)
    elif how == "relator":
        relator = one(n) - linear_combine([(1, projection(n, (i,))) for i in range(1, n + 1)])
        b = a + multiply(multiply(draw(_elements(n, 2)), relator), draw(_elements(n, 2)))
    else:
        b = draw(_elements(n, 4))
    if draw(st.booleans()):
        b = b + draw(_elements(n, 1))
    return a, b


@settings(max_examples=300, deadline=None)
@given(equality_pairs())
def test_equals_matches_expansion_and_psi_oracles(pair):
    a, b = pair
    diff = a - b
    expected = not canonical_form(diff).terms
    assert equals(a, b) == expected
    assert state_psi(multiply(adjoint(diff), diff)).is_zero == expected


@settings(max_examples=300, deadline=None)
@given(equality_pairs())
def test_disjoint_terms_carry_the_canonical_coefficients(pair):
    a, b = pair
    diff = a - b
    survivors = _disjoint_terms(diff.terms, diff.n)
    canonical = canonical_form(diff).terms
    assert set(survivors.values()) == set(canonical.values())
    assert max((abs(float(c)) for c in survivors.values()), default=0.0) == max(
        (abs(float(c)) for c in canonical.values()), default=0.0
    )
    assert not canonical_form(AlgebraElement(diff.n, survivors) - diff).terms


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiply_matches_the_term_map_product(data):
    n = data.draw(st.sampled_from((2, 3)))
    a = data.draw(_elements(n, 3))
    b = data.draw(st.one_of(st.just(zero(n)), _elements(n, 3)))
    expected: dict = {}
    _multiply_into(expected, a.terms, b.terms)
    product = multiply(a, b)
    assert (product.n, product.terms) == (n, expected)


def test_deep_equality_under_the_default_budget():
    import time

    w = (1,) * 12
    lhs = one(4) - projection(4, w)
    equal = branch_decomposition(4, w)
    dropped = equal - projection(4, w[:-1] + (3,))
    shifted = branch_decomposition(4, w, QSqrt(4, 1, 1))
    start = time.thread_time()
    answers = (equals(lhs, equal), equals(lhs, dropped), equals(lhs, shifted))
    elapsed = time.thread_time() - start
    assert answers == (True, False, False)
    assert elapsed < 0.010
    # the element canonical_form refuses in test_term_budget_guard
    deep = (1,) * 17
    assert equals(one(2) - projection(2, deep), branch_decomposition(2, deep))
    with pytest.raises(TermBudgetExceeded):
        canonical_form(one(2) - projection(2, deep) - branch_decomposition(2, deep))


@st.composite
def small_elements(draw):
    n = 2
    k = draw(st.integers(0, 4))
    acc = zero(n)
    for _ in range(k):
        mu = tuple(draw(st.lists(st.integers(1, n), max_size=2)))
        nu = tuple(draw(st.lists(st.integers(1, n), max_size=2)))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        root = draw(st.integers(-2, 2))
        acc = acc + monomial(n, mu, nu, QSqrt(n, Fraction(num, den), root))
    return acc


@settings(max_examples=150, deadline=None)
@given(small_elements())
def test_render_parse_round_trip(a):
    assert parse(render(a), 2) == a


@settings(max_examples=100, deadline=None)
@given(small_elements(), small_elements())
def test_equals_matches_psi_oracle(a, b):
    diff = a - b
    psi_val = state_psi(multiply(adjoint(diff), diff))
    assert equals(a, b) == psi_val.is_zero


def _word_space_matrix(el, basis, index):
    """The action of an element on the truncated word space l^2(words of
    length <= L): S_mu S_nu^* e_w = e_{mu+t} when w = nu+t.  Built from the
    definition alone; the engine's product rule is never consulted."""
    import numpy as np

    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for (mu, nu), c in el.terms.items():
        weight = float(c)
        for col, w in enumerate(basis):
            if w[: len(nu)] != nu:
                continue
            target = mu + w[len(nu):]
            row = index.get(target)
            if row is not None:
                mat[row, col] += weight
    return mat


def test_product_rule_against_word_space_representation(rng):
    import numpy as np

    n, depth = 2, 6
    basis = words_upto(n, depth)
    index = {w: i for i, w in enumerate(basis)}
    # interior columns: inputs short enough that no product escapes depth
    interior = [i for i, w in enumerate(basis) if len(w) <= depth - 4]
    for _ in range(40):
        a = random_element(rng, n, max_terms=3)
        b = random_element(rng, n, max_terms=3)
        engine = _word_space_matrix(multiply(a, b), basis, index)
        direct = _word_space_matrix(a, basis, index) @ _word_space_matrix(b, basis, index)
        assert np.allclose(engine[:, interior], direct[:, interior], atol=1e-12)


def test_adjoint_against_word_space_representation(rng):
    import numpy as np

    n, depth = 2, 4
    basis = words_upto(n, depth)
    index = {w: i for i, w in enumerate(basis)}
    for _ in range(25):
        a = random_element(rng, n, max_terms=4)
        lhs = _word_space_matrix(adjoint(a), basis, index)
        rhs = _word_space_matrix(a, basis, index).conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)
