import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import branch_decomposition, oracle_certificate, oracle_flow
from cuntzmod import matrices
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
    _pair_pass,
    _realify,
    _rotation_block,
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
    modular_certificate,
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


def is_unitary(u):
    """U U^* == I and U^* U == I: the certificate's unitarity defect is zero."""
    return modular_certificate(u)[0] == 0


def scalar_matrix(n, entries):
    """The exact matrix with constant entries c * 1."""
    return AlgMatrix([[one(n).scale(c) for c in row] for row in entries])


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
    with pytest.raises(DomainError, match="v\\*v is not over the fixed-point algebra"):
        build_u_v(adjoint(gen(2, 1)).scale(2) + monomial(2, (1, 1), (2, 2)))
    with pytest.raises(DomainError, match="v\\*v is not a projection"):
        build_u_v(monomial(2, (2, 2), (2, 2)).scale(2) + gen(2, 1).scale(2))


def test_cartan_rotation_refuses_a_point_off_the_circle():
    with pytest.raises(UsageError, match="^[(]3/5, 3/5[)] is not on the unit circle$"):
        cartan_rotation(2, Fraction(3, 5), Fraction(3, 5))


@pytest.mark.parametrize("n", [2, 3])
def test_build_u_v_refuses_a_unitary_that_is_not_modular(n):
    # s (R s R^*) is unitary, so v^*v = vv^* = 1 pass, but the rotation moves
    # v sigma(v^*) off F, as in find_nonmodular_product_witness
    s = branch_shift_unitary(n)
    rot = cartan_rotation(n, Fraction(3, 5), Fraction(4, 5))
    v = multiply(s, multiply(multiply(rot, s), adjoint(rot)))
    assert equals(multiply(adjoint(v), v), one(n)) and equals(multiply(v, adjoint(v)), one(n))
    with pytest.raises(DomainError, match=r"v sigma\(v\*\) is not over the fixed-point algebra"):
        build_u_v(v)


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
    x = scalar_matrix(2, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    assert is_unitary(x)
    assert is_modular_unitary(x @ u @ x.adjoint())


def test_defects_on_modular_inputs_vanish():
    u = build_u_mu_nu(2, (1, 1), (2,))
    unitarity, modular = modular_certificate(u)
    assert unitarity.is_zero and modular.is_zero


def test_unitarity_defect_reads_off_diagonal_entries():
    # unit rows that are not orthogonal: U U^* = [[1, 1], [1, 1]] is exactly
    # 1 on its diagonal, so the largest defect sits off the diagonal
    u = scalar_matrix(2, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(3, 5), Fraction(4, 5)]])
    assert modular_certificate(u)[0] == 1 == oracle_certificate(u)[0]
    _assert_matches_oracle(u)


def test_monomial_unitary_products_stay_modular():
    # closure fact: products within the u_{mu,nu} family never break the
    # modular condition (the corner identities kill every cross term)
    ws = [w for w in words_upto(2, 2) if w]
    pairs = [(m, n_) for m in ws for n_ in ws if m != n_]
    for m1, n1 in pairs:
        left = build_u_mu_nu(2, m1, n1)
        for m2, n2 in pairs[:8]:
            assert modular_certificate(left @ build_u_mu_nu(2, m2, n2))[1].is_zero
    # every pair of length-1 words in O_3
    letters = [(a,) for a in range(1, 4)]
    pairs = [(m, n_) for m in letters for n_ in letters if m != n_]
    for m1, n1 in pairs:
        left = build_u_mu_nu(3, m1, n1)
        for m2, n2 in pairs:
            assert modular_certificate(left @ build_u_mu_nu(3, m2, n2))[1].is_zero


def test_nonmodular_product_witness():
    for n in range(2, 7):
        w = find_nonmodular_product_witness(n)
        assert w is not None
        assert (w["left"], w["right"]) == ("branch_shift", "rotated_branch_shift")
        assert w["defect_float"] > 0
        from cuntzmod.expr import parse

        left = AlgMatrix.single(parse(w["left_expr"], n))
        right = AlgMatrix.single(parse(w["right_expr"], n))
        assert is_modular_unitary(left) and is_modular_unitary(right)
        product = left @ right
        assert is_unitary(product)
        assert not is_modular_unitary(product)
        assert str(modular_certificate(product)[1]) == w["defect"]


def matrices_equal(a, b):
    """Entrywise semantic equality of two exact matrices."""
    return a.k == b.k and all(equals(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s", [0.0, math.pi / 4, math.pi / 2, 1.234, math.pi, -0.7, 3 * math.pi / 2])
def test_rotation_block_matches_scaled_identities(k, s):
    # each float is a dyadic rational, so Fraction(s) is an exact rational s;
    # oracle: three scaled exact identities glued row by row
    s = Fraction(s)
    c, d = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    assert c * c + d * d == 1

    def scaled_identity(x):
        return [[e.scale(x) for e in row] for row in AlgMatrix.identity(2, k).rows]

    cos_rows, sin_rows, neg_sin_rows = scaled_identity(c), scaled_identity(d), scaled_identity(-d)
    oracle = AlgMatrix([a + b for a, b in zip(cos_rows, sin_rows)] + [a + b for a, b in zip(neg_sin_rows, cos_rows)])
    block = _rotation_block(2, k, s)
    assert block == oracle
    assert block @ block.adjoint() == AlgMatrix.identity(2, 2 * k)


def test_homotopy_rotation_path():
    for n in (2, 3):
        u = build_u_mu_nu(n, (1, 1), (2,))
        v = build_u_mu_nu(n, (1,), (2,))
        path = rotation_direct_sum_path(u, v)
        report = homotopy_path_check(path, samples=11)
        assert report["passed"]
        assert all(s["unitarity_defect"] == s["modular_defect"] == 0.0 for s in report["samples"])
        # a quarter turn: from u (+) v to v (+) u, exactly
        assert path(Fraction(0)) == u.direct_sum(v)
        assert path(Fraction(1)) == v.direct_sum(u)


def test_homotopy_two_stage_swap_path():
    mu, nu = (1, 1), (2,)
    for n in (2, 3):
        path = swap_two_stage_path(n, mu, nu)
        report = homotopy_path_check(path, samples=21)
        assert report["passed"]
        assert all(s["unitarity_defect"] == s["modular_defect"] == 0.0 for s in report["samples"])
        # the end points are realify(u_{mu,nu}) and realify(u_{nu,mu}); both
        # are real, so realify(X) = X (+) X
        start, swapped = build_u_mu_nu(n, mu, nu), build_u_mu_nu(n, nu, mu)
        assert path(Fraction(0)) == start.direct_sum(start)
        assert path(Fraction(1)) == swapped.direct_sum(swapped)
        # the stages meet at t = 1/2: the quarter turn of u_{mu,nu} is
        # u_{nu,mu} with phase -1 on its off-diagonal entries, where the
        # phase stage starts
        (a, b), (c, d) = swapped.rows
        meet = AlgMatrix([[a, -b], [-c, d]])
        assert path(Fraction(1, 2)) == meet.direct_sum(meet)
        # and neither stage jumps there: each moves O(eps) away from the meeting
        # point (the rotation at speed 2, the phase at speed 4)
        eps = Fraction(1, 1000)
        for t in (Fraction(1, 2) - eps, Fraction(1, 2) + eps):
            diff = path(t) - path(Fraction(1, 2))
            assert max(abs(c.as_fraction()) for row in diff.rows for x in row for c in x.terms.values()) < 5 * eps
        # past the meeting point the samples carry an imaginary part, and the
        # phase and its conjugate keep them self-adjoint, like u_{mu,nu}
        late = path(Fraction(3, 4))
        assert not late.rows[2][1].is_zero and late == late.adjoint()


def test_homotopy_whitehead_path():
    # a self-adjoint unitary over F, and one that is not
    swap = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    rot = AlgMatrix.single(cartan_rotation(2, Fraction(3, 5), Fraction(4, 5)))
    for u in (swap, rot):
        path = whitehead_path(u)
        report = homotopy_path_check(path, samples=21)
        assert report["passed"]
        assert matrices_equal(path(Fraction(0)), u.direct_sum(u.adjoint()))
        assert matrices_equal(path(Fraction(1)), AlgMatrix.identity(2, 2))


def test_homotopy_path_check_samples_exact_points():
    seen = []
    u = build_u_mu_nu(2, (1,), (2,))
    report = homotopy_path_check(lambda t: seen.append(t) or u, samples=4)
    assert seen == [Fraction(i, 3) for i in range(4)] and all(type(t) is Fraction for t in seen)
    assert [s["t"] for s in report["samples"]] == [0.0, 1 / 3, 2 / 3, 1.0]
    assert report["passed"] and set(report) == {"passed", "samples"}


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


@pytest.mark.parametrize("passed, failures", [(True, 1), (False, 3)])
def test_homotopy_sweep_counts_a_failing_check(monkeypatch, passed, failures):
    # the constant non-modular path is the control: a check that passes
    # everything fails it, and a check that fails everything fails the rest
    monkeypatch.setattr(matrices, "homotopy_path_check", lambda path, samples: {"passed": passed, "samples": []})
    report = homotopy_sweep(2, samples=3)
    assert (report["cases"], report["failures"]) == (4, failures)
    assert report["details"]["nonmodular_witness"] == find_nonmodular_product_witness(2)


def _everything_modular(u):
    return QSqrt.zero(u.n), QSqrt.zero(u.n)


def _not_unitary_where_not_modular(u, certificate=modular_certificate):
    unitarity, modular = certificate(u)
    return (unitarity if modular.is_zero else modular), modular


def _factor_not_modular(side):
    """A certificate that finds the witness's ``side`` factor, and nothing
    else, not modular."""
    from cuntzmod.expr import parse

    factor = parse(find_nonmodular_product_witness(2)[f"{side}_expr"], 2)

    def certificate(u, real=modular_certificate):
        unitarity, modular = real(u)
        return unitarity, (QSqrt.one(u.n) if u.k == 1 and equals(u.rows[0][0], factor) else modular)

    return certificate


@pytest.mark.parametrize(
    "certificate",
    [_everything_modular, _not_unitary_where_not_modular, _factor_not_modular("left"), _factor_not_modular("right")],
    ids=["product modular", "product not unitary", "left not modular", "right not modular"],
)
def test_homotopy_sweep_fails_when_the_witness_does_not_certify(monkeypatch, capsys, certificate):
    # a certificate that finds the witness's product modular or not
    # unitary, or one of its factors not modular, refuses the witness, and
    # its case fails; the real paths still pass
    monkeypatch.setattr(matrices, "modular_certificate", certificate)
    assert find_nonmodular_product_witness(2) is None
    report = homotopy_sweep(2, samples=3)
    assert (report["cases"], report["failures"]) == (4, 1)
    assert report["details"]["nonmodular_witness"] is None
    from cuntzmod import cli

    assert cli.main(["check", "homotopy", "--n", "2", "--samples", "3"]) == 1
    assert '"nonmodular_witness":null' in capsys.readouterr().out


def _path_pieces(n):
    """(name, path, t of each sample, s of each sample) for every piece of
    the homotopy suite's paths; each piece is equally spaced in its circle
    parameter s, and t = 1/2 belongs to the swap path's first stage."""
    u = build_u_mu_nu(n, (1, 1), (2,))
    v = build_u_mu_nu(n, (1,), (2,))
    over_f = AlgMatrix.single(monomial(n, (1,), (2,)) + monomial(n, (2,), (1,)) + matrices.sum_rest_projections(n))
    swap = swap_two_stage_path(n, (1, 1), (2,))
    whole = [Fraction(i, 11) for i in range(12)]
    first = [Fraction(i, 22) for i in range(12)]
    second = [Fraction(1, 2) + Fraction(i, 22) for i in range(1, 12)]
    return [
        ("rotation", rotation_direct_sum_path(u, v), whole, whole),
        ("whitehead", whitehead_path(over_f), whole, whole),
        ("swap stage 1", swap, first, [2 * t for t in first]),
        ("swap stage 2", swap, second, [2 - 2 * t for t in second]),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_path_pieces_have_degree_four_in_the_circle_parameter(n):
    # every entry coefficient of each piece, times (1 + s^2)^2, is a
    # polynomial of degree at most 4 in s: its 5th finite difference over
    # equally spaced s vanishes, and its 4th does not everywhere
    for name, path, ts, ss in _path_pieces(n):
        scaled = []
        for t, s in zip(ts, ss):
            weight = (1 + s * s) ** 2
            scaled.append({(i, j, key): c * weight
                           for i, row in enumerate(path(t).rows) for j, x in enumerate(row)
                           for key, c in x.terms.items()})
        degree_four = False
        for key in set().union(*scaled):
            values = [sample.get(key, QSqrt.zero(n)) for sample in scaled]
            for _ in range(4):
                values = [b - a for a, b in zip(values, values[1:])]
            degree_four = degree_four or any(not d.is_zero for d in values)
            fifth = [b - a for a, b in zip(values, values[1:])]
            assert all(d.is_zero for d in fifth), (name, key)
        assert degree_four, name


def test_spectral_flow_additivity_mixed_blocks():
    from cuntzmod.flow import spectral_flow

    u = build_u_mu_nu(2, (1, 1), (2,))
    swap = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    assert spectral_flow(u.direct_sum(swap)) == spectral_flow(u)


def test_single_entry_render_helper():
    u = branch_shift_unitary(2)
    assert render(u)  # serialisable via the element grammar


# -- the single pair pass against explicit products -----------------------------


def _assert_matches_oracle(u):
    """The pair-pass certificate and flow sum equal the explicit-product
    oracle exactly, and each pass's maps are the term maps of A B - I and
    of the off-degree part of A sigma(B), entry by entry."""
    unitarity, modular, flow = _certify(u)
    assert (unitarity, modular) == oracle_certificate(u)
    assert flow == oracle_flow(u)
    u_star = u.adjoint()
    for a, b in ((u, u_star), (u_star, u)):
        products, sigma_products, _ = _pair_pass(a, b)
        plain, twisted = a @ b - AlgMatrix.identity(u.n, u.k), a @ apply_sigma(b)
        for i in range(u.k):
            for j in range(u.k):
                assert products[i][j] == plain.rows[i][j].terms
                off = {key: c for key, c in twisted.rows[i][j].terms.items() if len(key[0]) != len(key[1])}
                assert sigma_products[i][j] == off


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
    rot = scalar_matrix(2, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
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


def _negated(m):
    return AlgMatrix([[-x for x in row] for row in m.rows])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda n: st.lists(_elements(n), min_size=16, max_size=16)))
def test_realify_is_a_star_homomorphism(entries):
    # (A + iB)(C + iD) = (AC - BD) + i(AD + BC) and (A + iB)^* = A^* - iB^*,
    # and sigma acts on both parts alike
    a, b, c, d = (AlgMatrix([entries[i:i + 2], entries[i + 2:i + 4]]) for i in range(0, 16, 4))
    product = _realify(a @ c - b @ d, a @ d - _negated(b @ c))
    assert matrices_equal(_realify(a, b) @ _realify(c, d), product)
    assert _realify(a, b).adjoint() == _realify(a.adjoint(), _negated(b.adjoint()))
    assert apply_sigma(_realify(a, b)) == _realify(apply_sigma(a), apply_sigma(b))
