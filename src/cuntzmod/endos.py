"""Finite-rank right-module endomorphisms of the monomial algebra.

Theta_{x,y} z = x * Phi(y^* z) is the rank-one operator attached to a pair
of elements; finite sums of these carry the degree-k spectral projections

    Phi_k    = sum_{|mu|=k} Theta_{S_mu, S_mu}          (k >= 0)
    Phi_{-k} = n^(-k) sum_{|mu|=k} Theta_{S_mu^*, S_mu^*}   (k > 0)

and the functionals

    tau_tilde(Theta_{x,y}) = psi(y^* x)        with tau_tilde(Phi_k) = n^k
    tau_delta(e)           = tau_tilde(Delta . e)  with tau_delta(Phi_k) = 1.

Left multiplication pi(a) is not finite rank, so it is only available
fused into a finite-rank sum: ``compose_left_mult(a, e)`` maps each leg
Theta_{x,y} to Theta_{a x, y}.

tau_delta is evaluated by applying Delta directly to the output leg
(Delta fixes the F-valued inner product, so Delta . Theta_{x,y} =
Theta_{Delta x, y} exactly); ``tau_delta_truncated`` keeps the truncated
definition sup_N tau_tilde(Delta_N e) alive as an independent cross-check,
built honestly out of phi_k_endo and endo_compose.
"""

from __future__ import annotations

from .algebra import (
    AlgebraElement,
    adjoint,
    equals,
    monomial,
    multiply,
    term_budget,
    words,
    words_upto,
)
from .errors import DomainError, TermBudgetExceeded, UsageError
from .modular import delta_power, expectation, gauge_component, state_psi, trace_F
from .scalars import QSqrt, n_power, scalar_is_zero
from .tally import Tally


class RankOne:
    """Theta_{x,y}: z -> x * Phi(y^* z)."""

    __slots__ = ("x", "y")

    def __init__(self, x: AlgebraElement, y: AlgebraElement):
        x._check_mate(y)
        self.x = x
        self.y = y

    def __repr__(self):
        return f"Theta({self.x!r}, {self.y!r})"


class EndoSum:
    """A finite linear combination of rank-one endomorphisms."""

    __slots__ = ("n", "exact", "terms")

    def __init__(self, n: int, terms=None, exact: bool = True):
        self.n = n
        self.exact = exact
        self.terms: list[tuple[object, RankOne]] = []
        for c, th in terms or []:
            if th.x.n != n or th.x.exact != exact:
                raise UsageError("rank-one legs disagree with the EndoSum context")
            if not scalar_is_zero(c) and not th.x.is_zero and not th.y.is_zero:
                self.terms.append((c, th))

    @classmethod
    def rank_one(cls, x: AlgebraElement, y: AlgebraElement) -> "EndoSum":
        return cls(x.n, [(QSqrt.one(x.n) if x.exact else 1 + 0j, RankOne(x, y))], x.exact)

    def __add__(self, other: "EndoSum") -> "EndoSum":
        if self.n != other.n or self.exact != other.exact:
            raise UsageError("mixed EndoSum contexts")
        out = EndoSum(self.n, None, self.exact)
        out.terms = self.terms + other.terms
        return out

    def scale(self, c) -> "EndoSum":
        out = EndoSum(self.n, None, self.exact)
        out.terms = [(c * coeff, th) for coeff, th in self.terms]
        return out

    def __repr__(self):
        return f"EndoSum(n={self.n}, {len(self.terms)} rank-one terms)"


def endo_apply(e: EndoSum, z: AlgebraElement) -> AlgebraElement:
    """Apply the endomorphism: sum_i c_i x_i Phi(y_i^* z)."""
    if z.n != e.n:
        raise UsageError(f"element of O_{z.n} fed to an EndoSum over O_{e.n}")
    from .algebra import zero

    acc = zero(e.n, e.exact)
    for c, th in e.terms:
        inner = expectation(multiply(adjoint(th.y), z))
        if inner.is_zero:
            continue
        acc = acc + multiply(th.x, inner).scale(c)
    return acc


def endo_compose(e1: EndoSum, e2: EndoSum) -> EndoSum:
    """Theta_{w,z} . Theta_{x,y} = Theta_{w (z|x)_R, y} extended bilinearly."""
    if e1.n != e2.n or e1.exact != e2.exact:
        raise UsageError("mixed EndoSum contexts")
    terms = []
    for c1, t1 in e1.terms:
        for c2, t2 in e2.terms:
            pairing = expectation(multiply(adjoint(t1.y), t2.x))  # (z|x)_R
            if pairing.is_zero:
                continue
            leg = multiply(t1.x, pairing)
            if leg.is_zero:
                continue
            terms.append((c1 * c2, RankOne(leg, t2.y)))
    out = EndoSum(e1.n, None, e1.exact)
    out.terms = terms
    return out


def compose_left_mult(a: AlgebraElement, e: EndoSum) -> EndoSum:
    """The fused product pi(a) . e; pi(a) alone is not finite rank."""
    if a.n != e.n or a.exact != e.exact:
        raise UsageError("left multiplier disagrees with the EndoSum context")
    terms = []
    for c, th in e.terms:
        leg = multiply(a, th.x)
        if leg.is_zero:
            continue
        terms.append((c, RankOne(leg, th.y)))
    out = EndoSum(e.n, None, e.exact)
    out.terms = terms
    return out


def phi_k_endo(k: int, n: int, exact: bool = True) -> EndoSum:
    """The degree-k spectral projection as a finite rank-one sum."""
    budget = term_budget()
    if n ** abs(k) > budget:
        raise TermBudgetExceeded(
            f"phi_k_endo: Phi_{k} over O_{n} needs {n}**{abs(k)} = {n**abs(k)} "
            f"rank-one terms, past the term budget of {budget}"
        )
    out = EndoSum(n, None, exact)
    unit = QSqrt.one(n) if exact else 1 + 0j
    if k >= 0:
        for mu in words(n, k):
            s = monomial(n, mu, (), 1, exact)
            out.terms.append((unit, RankOne(s, s)))
    else:
        weight = n_power(n, k) if exact else complex(n**k)
        for mu in words(n, -k):
            s_star = monomial(n, (), mu, 1, exact)
            out.terms.append((weight, RankOne(s_star, s_star)))
    return out


def tau_tilde(e: EndoSum):
    """tau_tilde(Theta_{x,y}) = psi(y^* x), extended linearly."""
    acc = QSqrt.zero(e.n) if e.exact else 0j
    for c, th in e.terms:
        acc = acc + c * state_psi(multiply(adjoint(th.y), th.x))
    return acc


def tau_delta_endo(e: EndoSum):
    """tau_delta(e) = tau_tilde(Delta . e), with Delta applied to the output
    leg; normalised so every Phi_k has weight exactly 1."""
    acc = QSqrt.zero(e.n) if e.exact else 0j
    for c, th in e.terms:
        acc = acc + c * state_psi(multiply(adjoint(th.y), delta_power(th.x, 1)))
    return acc


def tau_delta_truncated(e: EndoSum, cutoff: int):
    """tau_tilde(Delta_N e) for Delta_N = Delta (sum_{|k|<=N} Phi_k), built
    from phi_k_endo and endo_compose; stabilises to tau_delta_endo once the
    cutoff covers every gauge degree occurring in the output legs."""
    if cutoff < 0:
        raise UsageError("cutoff must be nonnegative")
    delta_n = EndoSum(e.n, None, e.exact)
    for k in range(-cutoff, cutoff + 1):
        weight = n_power(e.n, -k) if e.exact else complex(e.n**-k)
        delta_n = delta_n + phi_k_endo(k, e.n, e.exact).scale(weight)
    return tau_tilde(endo_compose(delta_n, e))


def key_fact_check(v: AlgebraElement, k: int, probes) -> bool:
    """v Phi_k v^* == v v^* Phi_{k+m} for the monomial partial isometry v of
    gauge degree m, verified on every probe."""
    if len(v.terms) != 1:
        raise DomainError("key_fact_check needs a single monomial S_mu S_nu^*")
    (mu, nu), c = next(iter(v.terms.items()))
    if c != (QSqrt.one(v.n) if v.exact else 1 + 0j):
        raise DomainError("key_fact_check needs coefficient one on the monomial")
    m = len(mu) - len(nu)
    v_star = adjoint(v)
    range_proj = multiply(v, v_star)
    for x in probes:
        lhs = multiply(v, gauge_component(multiply(v_star, x), k))
        rhs = multiply(range_proj, gauge_component(x, k + m))
        if not equals(lhs, rhs):
            return False
    return True


# -- named invariant sweeps ------------------------------------------------

# keyfact_sweep checks each case on every S_a S_b^* with legs up to this length.
KEYFACT_PROBE_LEN = 3


def tracesplit_sweep(n: int, max_len: int, k_span: int = 3) -> dict:
    """tau_tilde(pi(f) Phi_k) == n^k tau(f) and tau_delta(pi(f) Phi_k) ==
    tau(f) for degree-0 monomials f, plus the Phi_k weights themselves."""
    tally = Tally()
    for k in range(-k_span, k_span + 1):
        phi_k = phi_k_endo(k, n)
        tally.check(tau_tilde(phi_k) == n_power(n, k), lambda: f"tau_tilde(Phi_{k}) != n^{k}")
        tally.check(tau_delta_endo(phi_k) == QSqrt.one(n), lambda: f"tau_delta(Phi_{k}) != 1")
        for length in range(max_len + 1):
            for alpha in words(n, length):
                for beta in words(n, length):
                    f = monomial(n, alpha, beta)
                    tf = trace_F(f)
                    fused = compose_left_mult(f, phi_k)
                    tally.check(tau_tilde(fused) == n_power(n, k) * tf,
                                lambda: f"trace split tau_tilde f=S_{alpha}S*_{beta} k={k}")
                    tally.check(tau_delta_endo(fused) == tf,
                                lambda: f"trace split tau_delta f=S_{alpha}S*_{beta} k={k}")
    return tally.report("tracesplit", n=n, max_len=max_len)


def keyfact_sweep(n: int, max_len: int, probe_len: int = KEYFACT_PROBE_LEN, k_span: int = 2) -> dict:
    """The compression identity v Phi_k v^* == v v^* Phi_{k+m} over monomial
    partial isometries with leg lengths up to max_len."""
    ws = words_upto(n, max_len)
    probe_words = words_upto(n, probe_len)
    probes = [monomial(n, a, b) for a in probe_words for b in probe_words]
    tally = Tally()
    for mu in ws:
        for nu in ws:
            v = monomial(n, mu, nu)
            for k in range(-k_span, k_span + 1):
                tally.check(key_fact_check(v, k, probes), lambda: f"v=S_{mu}S*_{nu} k={k}")
    return tally.report("keyfact", n=n, max_len=max_len)
