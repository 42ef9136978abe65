import itertools
import math
from fractions import Fraction

import pytest

from conftest import monomial_elements, oracle_flow, oracle_kernel, random_element
from cuntzmod import cli, flow, matrices
from cuntzmod.algebra import adjoint, gen, monomial, multiply, one, words_upto
from cuntzmod.errors import DomainError, UsageError
from cuntzmod.expr import parse
from cuntzmod.flow import (
    aps_index_traces,
    closed_form_sf,
    cocycle_b_defect,
    cocycle_sweep,
    correction_terms,
    flow_report,
    hochschild_orientation,
    hochschild_sweep,
    k0_membership,
    projection_perturbation_data,
    relative_entropy,
    sf_closed_form_chunk,
    spectral_flow,
    twisted_theta,
)
from cuntzmod.matrices import AlgMatrix, build_u_mu_nu, build_u_v, find_nonmodular_product_witness
from cuntzmod.modular import commutator_D, expectation
from cuntzmod.scalars import QSqrt


def test_spectral_flow_values():
    assert spectral_flow(build_u_mu_nu(2, (1, 1), (2,))) == Fraction(1, 4)
    assert spectral_flow(build_u_mu_nu(2, (1,), (2,))) == 0
    assert spectral_flow(build_u_mu_nu(3, (1, 2), (3,))) == Fraction(2, 9)
    assert spectral_flow(build_u_mu_nu(2, (1,), (1,))) == 0


def test_spectral_flow_matches_closed_form():
    for n in (2, 3):
        ws = [w for w in words_upto(n, 3) if w]
        for mu in ws[:6]:
            for nu in ws[:6]:
                assert spectral_flow(build_u_mu_nu(n, mu, nu)) == closed_form_sf(n, mu, nu)


def test_spectral_flow_rejections():
    w = find_nonmodular_product_witness(2)
    bad = AlgMatrix.single(multiply(parse(w["left_expr"], 2), parse(w["right_expr"], 2)))
    with pytest.raises(DomainError):
        spectral_flow(bad)
    # S_1 meets the modular condition but U U^* = P_1; S_1^* passes the
    # U @ U^* pass (S_1^* S_1 = 1) and fails only in the U^* @ U pass
    for isometry in (gen(2, 1), adjoint(gen(2, 1))):
        with pytest.raises(DomainError):
            spectral_flow(AlgMatrix.single(isometry))


def test_spectral_flow_on_non_self_adjoint_modular_unitary():
    u = build_u_mu_nu(2, (1, 1), (2,)) @ build_u_mu_nu(2, (1,), (2, 2))
    assert u != u.adjoint() and matrices.is_modular_unitary(u)
    assert spectral_flow(u) == oracle_flow(u) == Fraction(7, 8)


def test_spectral_flow_symmetry_and_additivity():
    u = build_u_mu_nu(2, (1, 1), (2,))
    v = build_u_mu_nu(2, (2, 2, 2), (1,))
    assert spectral_flow(u) == spectral_flow(build_u_mu_nu(2, (2,), (1, 1)))
    assert spectral_flow(u.direct_sum(v)) == spectral_flow(u) + spectral_flow(v)


def test_correction_terms():
    for v_word in (((1, 1), (2,)), ((1,), ()), ((2,), (1, 2))):
        v = monomial(2, v_word[0], v_word[1])
        assert correction_terms(build_u_v(v)) == (0, 0)
    over_f = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    assert correction_terms(over_f) == (0, 0)
    assert correction_terms(build_u_mu_nu(2, (1, 1), (2,))) == (0, 0)
    w = find_nonmodular_product_witness(2)
    product = AlgMatrix.single(multiply(parse(w["left_expr"], 2), parse(w["right_expr"], 2)))
    with pytest.raises(DomainError, match="correction_terms needs a modular unitary"):
        correction_terms(product)


def test_kernel_correction_matches_the_matrix_product_off_the_unitaries(rng):
    # Drawn matrices are not modular unitaries, so no KMS identity makes the
    # kernel correction 0; their coefficients are rational, so it is exact.
    nonzero = 0
    for _ in range(200):
        n, k = rng.choice((2, 3)), rng.randint(1, 3)
        u = AlgMatrix([[random_element(rng, n) for _ in range(k)] for _ in range(k)])
        want = oracle_kernel(u)
        assert flow._corrections(u) == (0, want.as_fraction()), u
        nonzero += not want.is_zero
    assert nonzero > 150


def test_an_irrational_flow_is_refused(monkeypatch, capsys):
    # Only a faulty certificate could sum an irrational flow; patch one in.
    root = QSqrt(2, 0, 1)
    monkeypatch.setattr(flow, "_certify", lambda u: (0, 0, root))
    message = f"spectral flow is not rational: {root}"
    with pytest.raises(DomainError) as caught:
        spectral_flow(build_u_mu_nu(2, (1, 1), (2,)))
    assert str(caught.value) == message
    assert cli.main(["sf", "--n", "2", "--mu", "1,1", "--nu", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_twisted_theta():
    assert twisted_theta(adjoint(gen(2, 1)), gen(2, 1)) == 1
    for a in monomial_elements(2, 2)[:25]:
        assert twisted_theta(one(2), a).is_zero
    assert twisted_theta(gen(2, 1), monomial(2, (1,), (1,))).is_zero


def test_cocycle_vanishes_on_monomials():
    monos = monomial_elements(2, 1)
    for a0, a1, a2 in itertools.product(monos[:9], repeat=3):
        assert cocycle_b_defect(a0, a1, a2).is_zero


def test_cocycle_sweep_small():
    report = cocycle_sweep(2, 1)
    assert report["failures"] == 0


def test_hochschild_orientation():
    for n in range(2, 7):
        report = hochschild_orientation(n)
        assert report["boundary_is_zero"] and report["represents_identity"]
    broken = hochschild_orientation(2, drop=1)
    assert not broken["boundary_is_zero"] and not broken["represents_identity"]
    assert hochschild_sweep(3)["failures"] == 0


def test_hochschild_orientation_refuses_n_below_two():
    with pytest.raises(UsageError, match="^need n >= 2, got 1$"):
        hochschild_orientation(1)


@pytest.mark.parametrize("drop", [0, 3, 5, -1])
def test_hochschild_orientation_refuses_a_drop_outside_the_generators(drop):
    # a drop that names no generator would leave the chain intact, so the
    # "broken" control would pass
    with pytest.raises(UsageError, match=r"1\.\.2"):
        hochschild_orientation(2, drop=drop)


def test_hochschild_sweep_counts_each_property(monkeypatch):
    # the good chain loses its zero boundary and the dropped control gains
    # one: two of the four properties break
    def orientation(n, drop=None):
        return {"boundary_is_zero": drop is not None, "represents_identity": drop is None}

    monkeypatch.setattr(flow, "hochschild_orientation", orientation)
    report = hochschild_sweep(3)
    assert report["cases"] == 4 and report["failures"] == 2


def test_relative_entropy():
    assert relative_entropy(build_u_mu_nu(2, (1, 1), (2,))) == pytest.approx(math.log(2) / 4)
    over_f = AlgMatrix.single(monomial(2, (1,), (2,)) + monomial(2, (2,), (1,)))
    assert relative_entropy(over_f) == 0.0
    assert relative_entropy(build_u_mu_nu(3, (1, 2), (3,))) == pytest.approx(2 * math.log(3) / 9)


def test_k0_membership():
    assert k0_membership(Fraction(1, 4), 2)
    assert k0_membership(Fraction(2, 9), 3)
    assert not k0_membership(Fraction(1, 9), 3)
    assert k0_membership(Fraction(0), 5)
    assert k0_membership(Fraction(3, 2), 4)  # (3/2)/3 = 1/2 and 2 | 4
    assert not k0_membership(Fraction(1, 5), 4)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_k0_membership_refuses_n_below_two(n):
    with pytest.raises(UsageError, match="n >= 2"):
        k0_membership(Fraction(1, 3), n)


def test_aps_index_traces():
    assert aps_index_traces(monomial(2, (1, 1), (2,))) == (Fraction(-1, 4), Fraction(1, 2))
    assert aps_index_traces(monomial(2, (1,), (2,))) == (0, 0)
    assert aps_index_traces(monomial(3, (1, 2), (3,))) == (Fraction(-1, 9), Fraction(1, 3))
    # mirrored case m < 0
    low, high = aps_index_traces(monomial(2, (2,), (1, 1)))
    assert low == Fraction(1, 2) and high == Fraction(-1, 4)
    with pytest.raises(DomainError):
        aps_index_traces(gen(2, 1) + gen(2, 2))


def test_aps_matches_spectral_flow():
    ws = words_upto(2, 2)
    for mu in ws:
        for nu in ws:
            v = monomial(2, mu, nu)
            pair = aps_index_traces(v)
            assert pair[0] + pair[1] == spectral_flow(build_u_v(v))
            # and the first-principles sums match the closed forms
            m = len(mu) - len(nu)
            assert pair == (Fraction(-m, 2 ** len(mu)), Fraction(m, 2 ** len(nu)))


def test_psi_kills_commutators(rng):
    for _ in range(40):
        a = random_element(rng, 2, 5)
        assert expectation(commutator_D(a)).is_zero


def test_projection_perturbation_zeroth_moment():
    for n, mu, nu in ((2, (1, 1), (2,)), (3, (1, 2), (3,)), (2, (1,), (2, 2, 2))):
        data = projection_perturbation_data(n, mu, nu)
        total = sum((c * w for c, w in data), Fraction(0))
        assert total == closed_form_sf(n, mu, nu)
    assert projection_perturbation_data(2, (1,), (2,)) == []
    for n in (1, 0):
        with pytest.raises(UsageError, match="n >= 2"):
            projection_perturbation_data(n, (1,), ())
        with pytest.raises(UsageError, match="n >= 2"):
            closed_form_sf(n, (1,), ())


def test_flow_report():
    report = flow_report(2, (1, 1), (2,))
    assert report.sf == Fraction(1, 4)
    assert report.eta_diff == 0 and report.kernel_diff == 0
    assert report.in_k0_range
    assert report.entropy == pytest.approx(math.log(2) / 4, rel=1e-14)
    d = report.as_dict()
    assert d["sf"] == "1/4" and d["eta_diff"] == "0" and d["in_k0_range"] is True
    assert list(d) == ["n", "mu", "nu", "sf", "eta_diff", "kernel_diff", "in_k0_range", "entropy"]
    assert report == flow_report(2, [1, 1], [2]) != flow_report(2, (1,), (2, 2))
    assert repr(report) == (
        "FlowReport(n=2, mu=(1, 1), nu=(2,), sf=Fraction(1, 4), eta_diff=Fraction(0, 1), "
        "kernel_diff=Fraction(0, 1), in_k0_range=True, entropy=0.17328679513998632)"
    )


def test_flow_report_certifies_once(monkeypatch):
    # u_{mu,nu} is self-adjoint: one pass over the term pairs of U @ U^*
    # both certifies it and sums its spectral flow
    calls = []
    pair_pass = matrices._pair_pass

    def counted(a, b):
        calls.append((a, b))
        return pair_pass(a, b)

    monkeypatch.setattr(matrices, "_pair_pass", counted)
    assert flow_report(2, (1, 1), (2,)).sf == Fraction(1, 4)
    assert len(calls) == 1


def test_sf_chunk():
    r = sf_closed_form_chunk(2, 2, 1)
    assert r == {
        "check": "sf_closed_form", "n": 2, "len_mu": 2, "len_nu": 1, "cases": 8, "failures": 0, "first_failures": []
    }


def test_sf_chunk_labels_its_failures_mu_major(monkeypatch):
    # A wrong flow for four (mu, nu) under three mu, each a different value,
    # and mu = (1, 1) failing at its second nu only: a block that labelled
    # the wrong nu, or read another mu's row, would name other cases.
    wrong = {((1, 1), (2,)): Fraction(-1, 4), ((2, 1), (1,)): Fraction(1, 2),
             ((2, 1), (2,)): Fraction(3, 4), ((2, 2), (1,)): Fraction(0)}
    build, flow_of = flow.build_u_mu_nu, flow.spectral_flow
    monkeypatch.setattr(flow, "build_u_mu_nu", lambda n, mu, nu: (mu, nu, build(n, mu, nu)))
    monkeypatch.setattr(flow, "spectral_flow",
                        lambda tagged: wrong[tagged[:2]] if tagged[:2] in wrong else flow_of(tagged[2]))
    r = sf_closed_form_chunk(2, 2, 1)
    assert (r["cases"], r["failures"]) == (8, 4)
    assert r["first_failures"] == [
        "mu=(1, 1) nu=(2,) sf=-1/4", "mu=(2, 1) nu=(1,) sf=1/2", "mu=(2, 1) nu=(2,) sf=3/4", "mu=(2, 2) nu=(1,) sf=0"]
