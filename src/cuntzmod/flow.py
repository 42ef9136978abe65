"""Index pairings of the modular spectral triple.

For a modular unitary U the spectral flow from D to U D U^* is computed as
the unnormalised matrix trace of psi over U [D, U^*]:

    sf(U) = sum_i psi( (U [D, U^*])_{ii} )

an exact rational.  For the canonical family u_{mu,nu} it equals the
closed form (|mu|-|nu|) (n^-|nu| - n^-|mu|), is positive, and lies in
(n-1)Z[1/n].  The eta correction vanishes identically because the spectrum
of D is the symmetric set Z (sum_k k e^{-t k^2} = 0 term by term), and the
kernel correction is the entry-summed trace of 1 - sigma(U^*) U, which the
KMS identity kills for the u_v family; both are reported exactly.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    AlgebraElement,
    adjoint,
    equals,
    monomial,
    multiply,
    one,
    words,
    zero,
)
from .endos import compose_left_mult, phi_k_endo, tau_delta_endo
from .errors import BackendError, DomainError, UsageError
from .matrices import AlgMatrix, _certify, apply_sigma, build_u_mu_nu, is_modular_unitary
from .modular import commutator_D, delta_power, state_psi, trace_F
from .scalars import QSqrt, scalar_str
from .tally import Tally


@dataclass
class FlowReport:
    n: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    sf: Fraction
    eta_diff: Fraction
    kernel_diff: Fraction
    in_k0_range: bool
    entropy: float

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
    if not u.exact:
        raise UsageError("spectral flow is computed on the exact backend")
    unitarity, modular, total = _certify(u)
    if unitarity != 0 or modular != 0:
        raise DomainError("spectral_flow needs a modular unitary")
    return _as_fraction(total, "spectral flow")


def correction_terms(u: AlgMatrix) -> tuple[Fraction, Fraction]:
    """(eta_diff, kernel_diff) for the flow from D to U D U^*.

    eta_diff is (tau(sigma(U^*)U) - 1) * eta_eps(D) symbolically; since
    eta_eps(D) = 0 exactly (integer spectrum, symmetric), it is reported as
    exactly 0.  kernel_diff is the entry-summed F-trace of 1 - sigma(U^*) U.
    """
    if not is_modular_unitary(u):
        raise DomainError("correction_terms needs a modular unitary")
    return _corrections(u)


def _corrections(u: AlgMatrix) -> tuple[Fraction, Fraction]:
    """correction_terms without the certificate, for a U already certified."""
    diff = AlgMatrix.identity(u.n, u.k, u.exact) - (apply_sigma(u.adjoint()) @ u)
    kernel = QSqrt.zero(u.n)
    for i in range(u.k):
        kernel = kernel + trace_F(diff.rows[i][i])
    return Fraction(0), _as_fraction(kernel, "kernel correction")


def twisted_theta(a0: AlgebraElement, a1: AlgebraElement):
    """theta(a0, a1) = psi(a0 [D, a1])."""
    return state_psi(multiply(a0, commutator_D(a1)))


def cocycle_b_defect(a0: AlgebraElement, a1: AlgebraElement, a2: AlgebraElement):
    """b theta on a triple; exactly zero on the whole algebra."""
    return (
        twisted_theta(multiply(a0, a1), a2)
        - twisted_theta(a0, multiply(a1, a2))
        + twisted_theta(multiply(delta_power(a2, -1), a0), a1)
    )


def cocycle_check(triples: Iterable[tuple[AlgebraElement, AlgebraElement, AlgebraElement]]) -> dict:
    """Evaluate b theta on each triple and B theta = theta(1, .) on each
    first slot; passes iff every value is exactly zero."""
    tally = Tally()
    for a0, a1, a2 in triples:
        ident = one(a0.n, a0.exact)
        b = cocycle_b_defect(a0, a1, a2)
        big_b = twisted_theta(ident, a0)
        for name, value in (("b", b), ("B", big_b)):
            ok = value.is_zero if isinstance(value, QSqrt) else value == 0
            tally.check(ok, lambda: f"{name}-defect {value} on ({a0!r}, {a1!r}, {a2!r})")
    return tally.report("cocycle")


def hochschild_orientation(n: int, drop: int | None = None) -> dict:
    """The orientation chain c = (1/n) sum_j S_j^* (x) S_j: twisted boundary
    zero and represented by the identity.  ``drop`` omits one generator to
    produce a deliberately broken chain (both properties then fail)."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    weight = Fraction(1, n)
    boundary = zero(n)
    represented = zero(n)
    for j in range(1, n + 1):
        if j == drop:
            continue
        x = monomial(n, (), (j,), weight)  # (1/n) S_j^*
        y = monomial(n, (j,), ())
        boundary = boundary + multiply(x, y) - multiply(delta_power(y, -1), x)
        represented = represented + multiply(x, commutator_D(y))
    return {
        "check": "hochschild",
        "n": n,
        "dropped": drop,
        "boundary_is_zero": equals(boundary, zero(n)),
        "represents_identity": equals(represented, one(n)),
    }


def relative_entropy(u: AlgMatrix) -> float:
    """Araki relative entropy of the conjugated KMS state: ln(n) * sf."""
    return math.log(u.n) * float(spectral_flow(u))


def k0_membership(q: Fraction, n: int) -> bool:
    """q in (n-1) Z[1/n]: the reduced denominator of q/(n-1) divides a
    power of n."""
    q = Fraction(q)
    den = (q / (n - 1)).denominator
    g = math.gcd(den, n)
    while g > 1:
        while den % g == 0:
            den //= g
        g = math.gcd(den, n)
    return den == 1


def aps_index_traces(v: AlgebraElement) -> tuple[Fraction, Fraction]:
    """tau_delta of the two APS index classes of the compression of the
    monomial partial isometry v = S_mu S_nu^*, from first principles:

        ( -sum_{k=0}^{m-1} tau_delta(v v^* Phi_k),
          +sum_{k=-m}^{-1} tau_delta(v^* v Phi_k) )      for m > 0,

    mirrored for m < 0 and (0, 0) for m = 0.  Their sum always equals
    spectral_flow(build_u_v(v))."""
    if len(v.terms) != 1 or not v.exact:
        raise DomainError("aps_index_traces needs a single exact monomial S_mu S_nu^*")
    (mu, nu), c = next(iter(v.terms.items()))
    if c != QSqrt.one(v.n):
        raise DomainError("aps_index_traces needs coefficient one on the monomial")
    n = v.n
    m = len(mu) - len(nu)
    if m == 0:
        return Fraction(0), Fraction(0)
    v_star = adjoint(v)
    range_proj = multiply(v, v_star)
    source_proj = multiply(v_star, v)

    def tau_delta_applied(f: AlgebraElement, k: int) -> Fraction:
        return _as_fraction(tau_delta_endo(compose_left_mult(f, phi_k_endo(k, n))), "APS trace")

    if m > 0:
        range_trace = -sum((tau_delta_applied(range_proj, k) for k in range(0, m)), Fraction(0))
        source_trace = sum((tau_delta_applied(source_proj, k) for k in range(-m, 0)), Fraction(0))
    else:
        range_trace = sum((tau_delta_applied(range_proj, k) for k in range(m, 0)), Fraction(0))
        source_trace = -sum((tau_delta_applied(source_proj, k) for k in range(0, -m)), Fraction(0))
    return range_trace, source_trace


def closed_form_sf(n: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
    """(|mu|-|nu|)(n^-|nu| - n^-|mu|), the exact value for u_{mu,nu}."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    lm, ln = len(tuple(mu)), len(tuple(nu))
    return (lm - ln) * (Fraction(1, n**ln) - Fraction(1, n**lm))


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
        entropy=math.log(n) * float(sf),
    )


def projection_perturbation_data(n: int, mu: Sequence[int], nu: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Diagonalised data of u_{mu,nu} [D (x) 1, u_{mu,nu}] = m(-P_mu (+) P_nu):
    pairs (coefficient, tau(projection)) consumed by the numeric integral."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    lm, ln = len(tuple(mu)), len(tuple(nu))
    m = lm - ln
    if m == 0:
        return []
    return [(Fraction(-m), Fraction(1, n**lm)), (Fraction(m), Fraction(1, n**ln))]


# -- named invariant sweeps ------------------------------------------------


def sf_closed_form_chunk(n: int, len_mu: int, len_nu: int) -> dict:
    """One (n, |mu|, |nu|) block of the closed-form sweep: spectral_flow of
    every u_{mu,nu} equals the closed form, is positive, and lies in
    (n-1)Z[1/n]."""
    tally = Tally()
    expected = closed_form_sf(n, (1,) * len_mu, (1,) * len_nu)
    membership = k0_membership(expected, n)
    for mu in words(n, len_mu):
        for nu in words(n, len_nu):
            sf = spectral_flow(build_u_mu_nu(n, mu, nu))
            tally.check(sf == expected and sf > 0 and membership, lambda: f"mu={mu} nu={nu} sf={sf}")
    return tally.report("sf_closed_form", n=n, len_mu=len_mu, len_nu=len_nu)


def cocycle_sweep(n: int, max_len: int) -> dict:
    """b theta and B theta vanish on all monomial triples with leg lengths
    up to max_len."""
    from .algebra import words_upto

    ws = words_upto(n, max_len)
    monos = [monomial(n, a, b) for a in ws for b in ws]
    ident = one(n)
    tally = Tally()
    for a0 in monos:
        value = twisted_theta(ident, a0)
        tally.check(value.is_zero, lambda: f"B-defect {value} on {a0!r}")
    for a0 in monos:
        for a1 in monos:
            for a2 in monos:
                value = cocycle_b_defect(a0, a1, a2)
                tally.check(value.is_zero, lambda: f"b-defect {value} on ({a0!r}, {a1!r}, {a2!r})")
    return tally.report("cocycle", n=n, max_len=max_len)


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
