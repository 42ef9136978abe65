"""Index pairings of the modular spectral triple.

For a modular unitary U the spectral flow from D to U D U^* is computed as
the unnormalised matrix trace of psi over U [D, U^*]:

    sf(U) = sum_i psi( (U [D, U^*])_{ii} )

an exact rational.  For the canonical family u_{mu,nu} it equals the
closed form (|mu|-|nu|) (n^-|nu| - n^-|mu|), is positive, and lies in
(n-1)Z[1/n].  The eta correction vanishes identically because the spectrum
of D is the symmetric set Z (sum_k k e^{-t k^2} = 0 term by term), and the
kernel correction is the entry-summed trace of 1 - sigma(U^*) U, read as
k - sum_x psi(sigma(x^*) x) over the entries x of U by the psi walk, which
the KMS identity kills for the u_v family; both are reported exactly.

The bilinear functional theta(a0, a1) = psi(a0 [D, a1]) is a twisted
(b, B)-cocycle: theta(1, .) = 0 and

    b theta(a0,a1,a2) = theta(a0 a1, a2) - theta(a0, a1 a2)
                        + theta(sigma(a2) a0, a1) = 0

by the KMS condition.  The orientation 1-chain c = (1/n) sum_j S_j^* (x) S_j
has twisted boundary zero and is represented by the identity.

APS-type index traces for a monomial partial isometry v are computed from
first principles as sums of tau_delta(pi(p) Phi_k) over the finitely many
degrees the compression misses, through the endomorphism machinery.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .algebra import (  # closed_form_sf and projection_perturbation_data are re-exported
    AlgebraElement,
    _add_into,
    closed_form_sf,
    equals,
    monomial,
    monomials_upto,
    multiply,
    one,
    projection_perturbation_data,
    word_count,
    words,
    zero,
)
from .errors import BackendError, DomainError, UsageError
from .matrices import AlgMatrix, _certify, build_u_mu_nu, is_modular_unitary
from . import modular
from .modular import _psi_walk, commutator_D, delta_power
from .scalars import QSqrt, scalar_str
from .tally import sweep


class FlowReport(namedtuple("FlowReport", "n mu nu sf eta_diff kernel_diff in_k0_range entropy")):
    """What ``flow_report`` finds for u_{mu,nu}: the words, the exact
    spectral flow and its eta and kernel corrections (Fractions), k0-range
    membership and the relative entropy (a float)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mu": list(self.mu),
            "nu": list(self.nu),
            "sf": scalar_str(self.sf),
            "eta_diff": scalar_str(self.eta_diff),
            "kernel_diff": scalar_str(self.kernel_diff),
            "in_k0_range": self.in_k0_range,
            "entropy": self.entropy,
        }


def _as_fraction(value: QSqrt, what: str) -> Fraction:
    try:
        return value.as_fraction()
    except BackendError as exc:
        raise DomainError(f"{what} is not rational: {value}") from exc


def spectral_flow(u: AlgMatrix) -> Fraction:
    """sf(D, U D U^*) = sum of diagonal psi-values of U [D, U^*].

    Refuses non-modular unitaries: only for those is U [D, U^*] a
    perturbation inside the fixed-point von Neumann algebra, which is what
    identifies the functional with spectral flow.

    psi is linear, so with (U [D, U^*])_ii = sum_l u_il [D, u*_li] and
    psi(S_mu S_nu^*) = delta_{mu,nu} n^-|mu|,

        sf(U) = sum_{i,l} sum over matched term pairs (a, b) of u_il and
                u*_li whose product is S_mu S_mu^*:  c_a c_b d_b n^-|mu|

    (d_b the gauge degree of b).  The certificate's pass over U @ U^* adds
    this up as it matches those pairs, and U [D, U^*] is never built.
    """
    unitarity, modular, total = _certify(u)
    if unitarity != 0 or modular != 0:
        raise DomainError("spectral_flow needs a modular unitary")
    return _as_fraction(total, "spectral flow")


def correction_terms(u: AlgMatrix) -> tuple[Fraction, Fraction]:
    """(eta_diff, kernel_diff) for the flow from D to U D U^*.

    eta_diff is (tau(sigma(U^*)U) - 1) * eta_eps(D) symbolically; since
    eta_eps(D) = 0 exactly (integer spectrum, symmetric), it is reported as
    exactly 0.  kernel_diff is the entry-summed psi of 1 - sigma(U^*) U,
    read without the KMS identity that makes it 0 (see ``_corrections``).
    """
    if not is_modular_unitary(u):
        raise DomainError("correction_terms needs a modular unitary")
    return _corrections(u)


def _corrections(u: AlgMatrix) -> tuple[Fraction, Fraction]:
    """correction_terms without the certificate, for a U already certified.
    As (sigma(U^*) U)_ii = sum_l sigma(u*_li) u_li, kernel_diff is k minus
    psi(sigma(x^*) x) = psi(Delta(x)^* x) over the k^2 entries x of U: one
    psi walk per entry, and no matrix is formed."""
    kernel = QSqrt(u.n, u.k)
    for row in u.rows:
        for x in row:
            kernel = kernel - _psi_walk(delta_power(x, 1), x, star_a=True)
    return Fraction(0), _as_fraction(kernel, "kernel correction")


def twisted_theta(a0: AlgebraElement, a1: AlgebraElement) -> QSqrt:
    """theta(a0, a1) = psi(a0 [D, a1]): the psi walk over the term pairs of
    a0 and a1, each matched pair weighted by the gauge degree of a1's term."""
    return _psi_walk(a0, a1, weigh=True)


def cocycle_b_defect(a0: AlgebraElement, a1: AlgebraElement, a2: AlgebraElement) -> QSqrt:
    """b theta(a0, a1, a2) = theta(a0 a1, a2) - theta(a0, a1 a2)
    + theta(sigma(a2) a0, a1); exactly zero on the whole algebra.

    Each term forms its product (and sigma(a2)) and reads theta off it by
    the psi walk; ``cocycle_sweep`` reads the same terms over all triples
    from tables.  Operands from two algebras raise UsageError, even when one
    is empty."""
    return (
        twisted_theta(multiply(a0, a1), a2)
        - twisted_theta(a0, multiply(a1, a2))
        + twisted_theta(multiply(modular.sigma(a2), a0), a1)
    )


def _b_tables(elements: list) -> tuple[list, list, list]:
    """The three terms of b theta on every triple of a_0 .. a_{M-1}, each
    read from its own psi table (``modular._psi_table``):

        left[i*M + j][k]    = theta(a_i a_j, a_k)        = psi((a_i a_j) [D, a_k])
        right[i][j*M + k]   = theta(a_i, a_j a_k)        = psi(a_i [D, (a_j a_k)])
        twisted[k*M + i][j] = theta(sigma(a_k) a_i, a_j) = psi((sigma(a_k) a_i) [D, a_j])

    Each product, sigma image and [D, .] image is formed once.  sigma and
    [D, .] are called through ``modular``'s attributes, as ``kms_sweep``
    calls sigma, so a map patched into that module reaches the tables."""
    d = [modular.commutator_D(a) for a in elements]
    products = [multiply(x, y) for x in elements for y in elements]
    sigmas = [modular.sigma(z) for z in elements]
    return (
        modular._psi_table(products, d),
        modular._psi_table(elements, [modular.commutator_D(p) for p in products]),
        modular._psi_table([multiply(s, x) for s in sigmas for x in elements], d),
    )


def hochschild_orientation(n: int, drop: int | None = None) -> dict:
    """The orientation chain c = (1/n) sum_j S_j^* (x) S_j: twisted boundary
    zero and represented by the identity.  ``drop`` omits one generator in
    1..n to produce a deliberately broken chain (both properties then fail)."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    if drop is not None and not 1 <= drop <= n:
        raise UsageError(f"drop names a generator in 1..{n}, got {drop}")
    weight = Fraction(1, n)
    boundary = zero(n)  # each letter's terms are added in place, so the chain costs O(n)
    represented = zero(n)
    for j in range(1, n + 1):
        if j == drop:
            continue
        x = monomial(n, (), (j,), weight)  # (1/n) S_j^*
        y = monomial(n, (j,), ())
        _add_into(boundary.terms, multiply(x, y).terms)
        _add_into(boundary.terms, (-multiply(delta_power(y, -1), x)).terms)
        _add_into(represented.terms, multiply(x, commutator_D(y)).terms)
    return {
        "check": "hochschild",
        "n": n,
        "dropped": drop,
        "boundary_is_zero": equals(boundary, zero(n)),
        "represents_identity": equals(represented, one(n)),
    }


def _entropy(n: int, sf: Fraction) -> float:
    """ln(n) * sf, the Araki relative entropy read off a spectral flow."""
    return math.log(n) * float(sf)


def relative_entropy(u: AlgMatrix) -> float:
    """Araki relative entropy of the conjugated KMS state: ln(n) * sf."""
    return _entropy(u.n, spectral_flow(u))


def k0_membership(q: Fraction, n: int) -> bool:
    """q in (n-1) Z[1/n]: the reduced denominator of q/(n-1) divides a
    power of n."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    den = (Fraction(q) / (n - 1)).denominator
    # every prime of den divides it fewer than den.bit_length() times
    return pow(n, den.bit_length(), den) == 0


def aps_index_traces(v: AlgebraElement) -> tuple[Fraction, Fraction]:
    """tau_delta of the two APS index classes of the compression of the
    monomial partial isometry v = S_mu S_nu^*, from first principles:

        ( -s sum_{k in [min(0, m), max(0, m))}  tau_delta(v v^* Phi_k),
          +s sum_{k in [min(0, -m), max(0, -m))} tau_delta(v^* v Phi_k) )

    with s = sign(m), and (0, 0) for m = 0.  Their sum always equals
    spectral_flow(build_u_v(v))."""
    from .endos import _legs, _partial_isometry, _split_traces, phi_k_endo

    m, v_star, range_proj = _partial_isometry(v, "aps_index_traces")
    if m == 0:
        return Fraction(0), Fraction(0)
    source_proj = multiply(v_star, v)

    def tau_delta_applied(f: AlgebraElement, k: int) -> Fraction:
        return _as_fraction(_split_traces(v.n, _legs(phi_k_endo(k, v.n)), f.terms)[1], "APS trace")

    s = 1 if m > 0 else -1
    range_trace = -s * sum((tau_delta_applied(range_proj, k) for k in range(min(0, m), max(0, m))), Fraction(0))
    source_trace = s * sum((tau_delta_applied(source_proj, k) for k in range(min(0, -m), max(0, -m))), Fraction(0))
    return range_trace, source_trace


def flow_report(n: int, mu: Sequence[int], nu: Sequence[int]) -> FlowReport:
    mu = tuple(mu)
    nu = tuple(nu)
    u = build_u_mu_nu(n, mu, nu)
    sf = spectral_flow(u)  # certifies u
    eta_diff, kernel_diff = _corrections(u)
    return FlowReport(
        n=n,
        mu=mu,
        nu=nu,
        sf=sf,
        eta_diff=eta_diff,
        kernel_diff=kernel_diff,
        in_k0_range=k0_membership(sf, n),
        entropy=_entropy(n, sf),
    )


# -- named invariant sweeps ------------------------------------------------


@sweep("sf_closed_form")
def sf_closed_form_chunk(n: int, len_mu: int, len_nu: int):
    """One (n, |mu|, |nu|) block of the closed-form sweep: spectral_flow of
    every u_{mu,nu} equals the closed form, is positive, and lies in
    (n-1)Z[1/n].  Each mu is one ``tally.sweep`` block: that verdict over
    the nu against [True] * len(nus)."""
    expected = closed_form_sf(n, (1,) * len_mu, (1,) * len_nu)
    membership = k0_membership(expected, n)
    nus = list(words(n, len_nu))
    holds = [True] * len(nus)
    for mu in words(n, len_mu):
        sfs = [spectral_flow(build_u_mu_nu(n, mu, nu)) for nu in nus]
        yield [([sf == expected and sf > 0 and membership for sf in sfs], holds)], lambda j, t: (
            f"mu={mu} nu={nus[j]} sf={sfs[j]}")


def cocycle_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of cocycle_sweep: a B case per monomial, a b case per triple."""
    monos = word_count(n, max_len) ** 2
    cases = monos + monos**3
    return cases, cases


@sweep("cocycle")
def cocycle_sweep(n: int, max_len: int):
    """b theta and B theta vanish on all monomial triples with leg lengths
    up to max_len.  B theta(a) = theta(1, a) is one psi walk per monomial.
    The three terms of b theta on each triple are read from their own
    tables (``_b_tables``), so no term is derived from another or from the
    identity under test.  The B-defects are one ``tally.sweep`` block of
    one row, and each (a0, a1) is one block of the b-defects over a2, each
    row compared with one shared row of zeros."""
    monos = monomials_upto(n, max_len)
    ident = one(n)
    zeros = [QSqrt.zero(n)] * len(monos)
    theta_ones = [twisted_theta(ident, a0) for a0 in monos]
    yield [(theta_ones, zeros)], lambda j, t: f"B-defect {theta_ones[j]} on {monos[j]!r}"
    left, right, twisted = _b_tables(monos)
    m = len(monos)
    for i, a0 in enumerate(monos):
        right_i = right[i]
        for j, a1 in enumerate(monos):
            left_ij = left[i * m + j]
            values = [left_ij[k] - right_i[j * m + k] + twisted[k * m + i][j] for k in range(m)]
            yield [(values, zeros)], lambda k, t: f"b-defect {values[k]} on ({a0!r}, {a1!r}, {monos[k]!r})"


def hochschild_plan(n: int) -> tuple[int, int]:
    """(cases, work) of hochschild_sweep: four cases on two chains, each built
    letter by letter into one term map, charged 16 units a letter (see README)."""
    return 4, 4 + 16 * n


def hochschild_sweep(n: int) -> dict:
    """Orientation chain holds for n and the dropped-term control fails."""
    good = hochschild_orientation(n)
    broken = hochschild_orientation(n, drop=1)
    passed = [
        good["boundary_is_zero"],
        good["represents_identity"],
        not broken["boundary_is_zero"],
        not broken["represents_identity"],
    ]
    return {
        "check": "hochschild",
        "n": n,
        "cases": len(passed),
        "failures": passed.count(False),
        "details": {"cycle": good, "dropped_control": broken},
    }
