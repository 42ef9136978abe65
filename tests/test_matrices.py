from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import branch_decomposition, oracle_certificate, oracle_flow
from cuntzmod.algebra import (
    AlgebraElement,
    adjoint,
    canonical_form,
    equals,
    gen,
    monomial,
    multiply,
    one,
    projection,
    words_upto,
    zero,
)
from cuntzmod.errors import DomainError, UsageError
from cuntzmod.expr import render
from cuntzmod.matrices import (
    AlgMatrix,
    _certify,
    apply_sigma,
    branch_shift_unitary,
    build_u_mu_nu,
    build_u_v,
    cartan_rotation,
    constant_path,
    find_nonmodular_product_witness,
    homotopy_path_check,
    in_fixed_algebra,
    homotopy_sweep,
    is_modular_unitary,
    is_unitary,
    modular_certificate,
    modular_defect_exact,
    rotation_direct_sum_path,
    swap_two_stage_path,
    whitehead_path,
)
from cuntzmod.modular import sigma
from cuntzmod.scalars import QSqrt


def test_matrix_arithmetic():
    ident = AlgMatrix.identity(2, 2)
    u = build_u_mu_nu(2, (1,), (2,))
    assert ident @ u == u
    assert u.adjoint().adjoint() == u
    s = u.direct_sum(AlgMatrix.identity(2, 1))
    assert s.k == 3 and s.rows[2][2] == one(2) and s.rows[0][2].is_zero
    assert (u - u).rows[0][0].is_zero
    with pytest.raises(UsageError):
        u @ AlgMatrix.identity(2, 3)
    with pytest.raises(UsageError):
        u - AlgMatrix.identity(2, 3)
    with pytest.raises(UsageError):
        AlgMatrix([[one(2), one(2)]])  # not square


def test_is_unitary():
    assert is_unitary(AlgMatrix.identity(2, 2))
    assert is_unitary(build_u_mu_nu(2, (1,), (2,)))
    broken = AlgMatrix(
        [[one(2) - projection(2, (1,)), zero(2)], [monomial(2, (2,), (1,)), one(2) - projection(2, (2,))]]
    )
    assert not is_unitary(broken)


def test_build_u_mu_nu_structure():
    u = build_u_mu_nu(2, (1,), (2,))
    assert u.rows[0][0] == one(2) - projection(2, (1,))
    assert u.rows[0][1] == monomial(2, (1,), (2,))
    assert u.rows[1][0] == monomial(2, (2,), (1,))
    assert u.rows[1][1] == one(2) - projection(2, (2,))
    assert u == u.adjoint()  # self-adjoint
    # the degenerate empty/empty case collapses to the flip
    flip = build_u_mu_nu(2, (), ())
    assert flip.rows[0][0].is_zero and flip.rows[0][1] == one(2)
    assert is_modular_unitary(flip)
    assert is_modular_unitary(build_u_mu_nu(2, (1, 1), (2,)))


def test_build_u_v():
    uv = build_u_v(gen(2, 1))
    assert uv.rows[0][0].is_zero  # 1 - v^*v = 0 for an isometry
    assert uv.rows[0][1] == adjoint(gen(2, 1))
    assert uv.rows[1][0] == gen(2, 1)
    assert uv.rows[1][1] == one(2) - projection(2, (1,))
    assert is_modular_unitary(uv)
    assert build_u_v(zero(2)) == AlgMatrix.identity(2, 2)
    with pytest.raises(DomainError, match="v\\*v"):
        build_u_v(gen(2, 1) + gen(2, 2))


def test_build_u_v_matches_swapped_u_mu_nu():
    v = monomial(2, (1, 1), (2,))
    assert build_u_v(v) == build_u_mu_nu(2, (2,), (1, 1))


def test_apply_sigma():
    ident = AlgMatrix.identity(2, 2)
    assert apply_sigma(ident) == ident
    d = AlgMatrix([[gen(2, 1), zero(2)], [zero(2), adjoint(gen(2, 1))]])
    s = apply_sigma(d)
    assert s.rows[0][0] == gen(2, 1).scale(2)
    assert s.rows[1][1] == adjoint(gen(2, 1)).scale(Fraction(1, 2))
    over_f = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    assert apply_sigma(over_f) == over_f


def test_is_modular_unitary_families():
    # any unitary over F is modular
    assert is_modular_unitary(AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,))))
    assert is_modular_unitary(build_u_mu_nu(2, (1, 1), (2,)))
    assert is_modular_unitary(AlgMatrix.single(cartan_rotation(2, Fraction(3, 5), Fraction(4, 5))))
    assert is_modular_unitary(AlgMatrix.single(branch_shift_unitary(2)))
    assert is_modular_unitary(AlgMatrix.single(branch_shift_unitary(3)))


def test_reflection_of_mixed_degree_projection_is_modular():
    # 1 - 2p for p = vv^*, v = (S_1 + S_21)/sqrt2: p mixes gauge degrees,
    # yet both modular products land in F exactly, so the reflection is a
    # modular unitary; this pins the exact computation.
    n = 2
    half = Fraction(1, 2)
    p = (
        monomial(n, (1,), (1,), half)
        + monomial(n, (1,), (2, 1), half)
        + monomial(n, (2, 1), (1,), half)
        + monomial(n, (2, 1), (2, 1), half)
    )
    assert equals(multiply(p, p), p) and equals(adjoint(p), p)
    u = one(n) - p.scale(2)
    mat = AlgMatrix.single(u)
    assert is_unitary(mat)
    assert is_modular_unitary(mat)
    prod = multiply(u, sigma(u))
    expected = one(n) + projection(n, (1,)) - monomial(n, (2, 1), (2, 1), half)
    assert equals(prod, expected)


def test_direct_sum_preserves_modularity():
    u = build_u_mu_nu(2, (1,), (2,))
    v = build_u_mu_nu(2, (1, 1), (2,))
    assert is_modular_unitary(u.direct_sum(v))


def test_scalar_conjugation_preserves_modularity():
    u = build_u_mu_nu(2, (1, 1), (2,))
    x = AlgMatrix.from_scalars(2, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]], exact=True)
    assert is_unitary(x)
    assert is_modular_unitary(x @ u @ x.adjoint())


def test_defects_on_modular_inputs_vanish():
    u = build_u_mu_nu(2, (1, 1), (2,))
    unitarity, modular = modular_certificate(u)
    assert unitarity.is_zero and modular.is_zero
    assert modular_defect_exact(u).is_zero
    assert modular_certificate(u.to_numeric()) == (0.0, 0.0)


def test_monomial_unitary_products_stay_modular():
    # closure fact: products within the u_{mu,nu} family never break the
    # modular condition (the corner identities kill every cross term)
    ws = [w for w in words_upto(2, 2) if w]
    pairs = [(m, n_) for m in ws for n_ in ws if m != n_]
    for m1, n1 in pairs:
        left = build_u_mu_nu(2, m1, n1)
        for m2, n2 in pairs[:8]:
            assert modular_defect_exact(left @ build_u_mu_nu(2, m2, n2)).is_zero
    # every pair of length-1 words in O_3
    letters = [(a,) for a in range(1, 4)]
    pairs = [(m, n_) for m in letters for n_ in letters if m != n_]
    for m1, n1 in pairs:
        left = build_u_mu_nu(3, m1, n1)
        for m2, n2 in pairs:
            assert modular_defect_exact(left @ build_u_mu_nu(3, m2, n2)).is_zero


def test_nonmodular_product_witness():
    for n in (2, 3):
        w = find_nonmodular_product_witness(n)
        assert w is not None
        assert w["defect_float"] > 0
        from cuntzmod.expr import parse

        left = AlgMatrix.single(parse(w["left_expr"], n))
        right = AlgMatrix.single(parse(w["right_expr"], n))
        assert is_modular_unitary(left) and is_modular_unitary(right)
        product = left @ right
        assert is_unitary(product)
        assert not is_modular_unitary(product)
        assert str(modular_defect_exact(product)) == w["defect"]


def test_homotopy_rotation_path():
    u = build_u_mu_nu(2, (1, 1), (2,))
    v = build_u_mu_nu(2, (1,), (2,))
    report = homotopy_path_check(rotation_direct_sum_path(u, v), samples=11)
    assert report["passed"]
    assert all(s["modular_defect"] < 1e-12 for s in report["samples"])


def test_homotopy_two_stage_swap_path():
    path = swap_two_stage_path(2, (1, 1), (2,))
    report = homotopy_path_check(path, samples=21)
    assert report["passed"]
    # endpoints are u_{mu,nu} and u_{nu,mu}
    start, end = path(0.0), path(1.0)
    target0 = build_u_mu_nu(2, (1, 1), (2,)).to_numeric()
    target1 = build_u_mu_nu(2, (2,), (1, 1)).to_numeric()
    for got, want in ((start, target0), (end, target1)):
        for i in range(2):
            for j in range(2):
                assert (got.rows[i][j] - want.rows[i][j]).max_coeff_abs() < 1e-12


def test_homotopy_whitehead_path():
    u = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    path = whitehead_path(u)
    report = homotopy_path_check(path, samples=21)
    assert report["passed"]
    end = path(1.0)
    ident = AlgMatrix.identity(2, 2, exact=False)
    from cuntzmod.algebra import canonical_form

    for i in range(2):
        for j in range(2):
            diff = canonical_form(end.rows[i][j] - ident.rows[i][j])
            assert diff.max_coeff_abs() < 1e-12


def test_homotopy_constant_paths():
    exact_const = homotopy_path_check(constant_path(build_u_mu_nu(2, (1,), (2,))), samples=3)
    assert exact_const["passed"]
    w = find_nonmodular_product_witness(2)
    from cuntzmod.expr import parse

    bad = multiply(parse(w["left_expr"], 2), parse(w["right_expr"], 2))
    report = homotopy_path_check(constant_path(AlgMatrix.single(bad)), samples=3)
    assert not report["passed"]
    with pytest.raises(UsageError):
        homotopy_path_check(constant_path(build_u_mu_nu(2, (1,), (2,))), samples=1)


def test_homotopy_sweep():
    report = homotopy_sweep(2, samples=11)
    assert report["failures"] == 0
    assert report["details"]["nonmodular_witness"] is not None


def test_map_entries_rederives_backend():
    u = build_u_mu_nu(2, (1,), (2,))
    converted = u.map_entries(lambda x: x.to_numeric())
    assert converted.exact is False
    assert u.to_numeric().exact is False
    # and numeric matrices multiply without touching the exact machinery
    prod = converted @ converted.adjoint()
    assert prod.exact is False


def test_spectral_flow_additivity_mixed_blocks():
    from cuntzmod.flow import spectral_flow

    u = build_u_mu_nu(2, (1, 1), (2,))
    swap = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    assert spectral_flow(u.direct_sum(swap)) == spectral_flow(u)


def test_single_entry_render_helper():
    u = branch_shift_unitary(2)
    assert render(u)  # serialisable via the element grammar


def test_matrix_grammar_serialisation():
    import json

    u = build_u_mu_nu(2, (1, 1), (2,))
    wire = json.dumps(u.as_strings())
    assert json.loads(wire)[0][1] == "S[1,1].S[2]'"
    assert AlgMatrix.from_strings(2, json.loads(wire)) == u


# -- the single pair pass against explicit products -----------------------------


def _assert_matches_oracle(u):
    """The pair-pass certificate and flow sum equal the explicit-product
    oracle exactly, and on the numeric backend within 1e-12."""
    unitarity, modular, flow = _certify(u)
    assert (unitarity, modular) == oracle_certificate(u)
    assert flow == oracle_flow(u)
    nu = u.to_numeric()
    unitarity, modular, flow = _certify(nu)
    assert modular_certificate(nu) == (unitarity, modular)
    for got, want in zip((unitarity, modular, flow), (*oracle_certificate(nu), oracle_flow(nu))):
        assert abs(got - want) <= 1e-12


def _assert_fixed_algebra_matches_oracle(u):
    """in_fixed_algebra on each entry of U sigma(U^*) and U^* sigma(U)
    agrees with the canonical form of its off-degree part, and all of them
    lie in F iff the oracle's modular defect is zero."""
    u_star = u.adjoint()
    entries = [x for p in (u @ apply_sigma(u_star), u_star @ apply_sigma(u)) for row in p.rows for x in row]
    verdicts = [in_fixed_algebra(x) for x in entries]
    for x, verdict in zip(entries, verdicts):
        off = {k: c for k, c in x.terms.items() if len(k[0]) != len(k[1])}
        assert verdict == (not canonical_form(AlgebraElement(x.n, off)).terms)
    assert all(verdicts) == (oracle_certificate(u)[1] == 0)


@st.composite
def _words(draw, n, max_len=4):
    return tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))


@st.composite
def _u_mu_nu(draw, n=None):
    n = draw(st.sampled_from((2, 3, 4))) if n is None else n
    return build_u_mu_nu(n, draw(_words(n)), draw(_words(n)))


@settings(max_examples=120, deadline=None)
@given(_u_mu_nu())
def test_pair_pass_matches_oracle_on_u_mu_nu(u):
    _assert_matches_oracle(u)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda n: st.tuples(st.just(n), _words(n), _words(n))))
def test_pair_pass_matches_oracle_on_u_v(drawn):
    n, mu, nu = drawn
    _assert_matches_oracle(build_u_v(monomial(n, mu, nu)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(_u_mu_nu(n), _u_mu_nu(n))))
def test_pair_pass_matches_oracle_on_products(pair):
    # products of u_{mu,nu} are modular and, in general, not self-adjoint
    left, right = pair
    _assert_matches_oracle(left @ right)


def _modular_unitaries() -> dict:
    """Modular unitaries outside the u_{mu,nu} and u_v families; all but
    x_u_x* are not self-adjoint, so the U^* @ U pass runs for them."""
    rot = AlgMatrix.from_scalars(2, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]], exact=True)
    u = build_u_mu_nu(2, (1, 1), (2,))
    out = {}
    for n in (2, 3):
        out[f"branch_shift_{n}"] = AlgMatrix.single(branch_shift_unitary(n))
        out[f"cartan_rotation_{n}"] = AlgMatrix.single(cartan_rotation(n, Fraction(3, 5), Fraction(4, 5)))
    out["x_u_x*"] = rot @ u @ rot.adjoint()
    out["x_u"] = rot @ u
    out["branch_shift+u"] = out["branch_shift_2"].direct_sum(u)
    out["x_u+cartan+branch_shift"] = out["x_u"].direct_sum(out["cartan_rotation_2"]).direct_sum(out["branch_shift_2"])
    return out


MODULAR_UNITARIES = _modular_unitaries()


@pytest.mark.parametrize("name", MODULAR_UNITARIES)
def test_pair_pass_matches_oracle_on_modular_unitaries(name):
    u = MODULAR_UNITARIES[name]
    assert is_modular_unitary(u) and (u == u.adjoint()) == (name == "x_u_x*")
    _assert_matches_oracle(u)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_pass_matches_oracle_on_nonmodular_witness(n):
    from cuntzmod.expr import parse

    w = find_nonmodular_product_witness(n)
    u = AlgMatrix.single(multiply(parse(w["left_expr"], n), parse(w["right_expr"], n)))
    assert is_unitary(u) and not is_modular_unitary(u)
    _assert_matches_oracle(u)
    _assert_fixed_algebra_matches_oracle(u)


@st.composite
def _elements(draw, n):
    acc = zero(n)
    for _ in range(draw(st.integers(0, 3))):
        coeff = QSqrt(n, Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))), draw(st.integers(-2, 2)))
        acc = acc + monomial(n, draw(_words(n, 2)), draw(_words(n, 2)), coeff)
    return acc


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda n: st.lists(_elements(n), min_size=4, max_size=4)))
def test_pair_pass_matches_oracle_on_drawn_matrices(entries):
    u = AlgMatrix([entries[:2], entries[2:]])
    _assert_matches_oracle(u)
    _assert_fixed_algebra_matches_oracle(u)


def test_in_fixed_algebra_decides_deep_off_degree_elements():
    # S_1 (1 - P_w) against S_1 times the branch decomposition of 1 - P_w:
    # the expansion oracle would need 4^12 terms for S_1 P_w
    n, w = 4, (2,) * 12
    s1 = monomial(n, (1,), ())
    lhs = multiply(s1, one(n) - projection(n, w))
    zero_off_degree = lhs - multiply(s1, branch_decomposition(n, w)) + projection(n, (3,))
    assert in_fixed_algebra(zero_off_degree)
    assert not in_fixed_algebra(zero_off_degree - monomial(n, (1,) + w[:-1] + (4,), w[:-1] + (4,)))
