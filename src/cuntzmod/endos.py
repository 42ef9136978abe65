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
built honestly out of phi_k_endo and endo_compose.  Every value here is
exact: the legs are algebra elements and the coefficients QSqrt values.

The compression identity v Phi_k v^* = v v^* Phi_{k+m} of a monomial
partial isometry v of gauge degree m is checked on probes x by
``key_fact_check`` and over every such v by ``keyfact_sweep``.  Both form
v^* x and each side of every probe on term maps, with the product rule of
``algebra._multiply_into`` and the degree filter ``gauge_component``, and
compare the sides with ``algebra._terms_equal``, the oracle behind
``equals``.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import (
    AlgebraElement,
    _add_into,
    _multiply_into,
    _terms_equal,
    adjoint,
    monomial,
    monomials_upto,
    multiply,
    term_budget,
    word_count,
    words,
    words_upto,
    zero,
)
from .errors import DomainError, TermBudgetExceeded, UsageError
from .modular import delta_power, expectation, gauge_component, inner_product, trace_F
from .scalars import QSqrt, n_power
from .tally import sweep


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
    """A finite linear combination of exact rank-one endomorphisms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: list[tuple[QSqrt, RankOne]] = []
        for c, th in terms or []:
            if th.x.n != n:
                raise UsageError("rank-one legs disagree with the EndoSum context")
            c = th.x._normalize_scalar(c)
            if not c.is_zero and not th.x.is_zero and not th.y.is_zero:
                self.terms.append((c, th))

    def __add__(self, other: "EndoSum") -> "EndoSum":
        if self.n != other.n:
            raise UsageError("mixed EndoSum contexts")
        out = EndoSum(self.n)
        out.terms = self.terms + other.terms
        return out

    def scale(self, c) -> "EndoSum":
        out = EndoSum(self.n)
        out.terms = [(c * coeff, th) for coeff, th in self.terms]
        return out

    def __repr__(self):
        return f"EndoSum(n={self.n}, {len(self.terms)} rank-one terms)"


def endo_apply(e: EndoSum, z: AlgebraElement) -> AlgebraElement:
    """Apply the endomorphism: sum_i c_i x_i Phi(y_i^* z)."""
    if z.n != e.n:
        raise UsageError(f"element of O_{z.n} fed to an EndoSum over O_{e.n}")
    acc = zero(e.n)
    for c, th in e.terms:
        inner = expectation(multiply(adjoint(th.y), z))
        if inner.is_zero:
            continue
        _add_into(acc.terms, multiply(th.x, inner).scale(c).terms)
    return acc


def endo_compose(e1: EndoSum, e2: EndoSum) -> EndoSum:
    """Theta_{w,z} . Theta_{x,y} = Theta_{w (z|x)_R, y} extended bilinearly."""
    if e1.n != e2.n:
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
    out = EndoSum(e1.n)
    out.terms = terms
    return out


def compose_left_mult(a: AlgebraElement, e: EndoSum) -> EndoSum:
    """The fused product pi(a) . e; pi(a) alone is not finite rank."""
    if a.n != e.n:
        raise UsageError("left multiplier disagrees with the EndoSum context")
    terms = []
    for c, th in e.terms:
        leg = multiply(a, th.x)
        if leg.is_zero:
            continue
        terms.append((c, RankOne(leg, th.y)))
    out = EndoSum(e.n)
    out.terms = terms
    return out


def phi_k_endo(k: int, n: int) -> EndoSum:
    """The degree-k spectral projection as a finite rank-one sum."""
    budget = term_budget()
    if n ** abs(k) > budget:
        raise TermBudgetExceeded(
            f"phi_k_endo: Phi_{k} over O_{n} needs {n}**{abs(k)} = {n**abs(k)} "
            f"rank-one terms, past the term budget of {budget}"
        )
    out = EndoSum(n)
    weight = n_power(n, min(k, 0))
    for mu in words(n, abs(k)):
        s = monomial(n, mu, ()) if k >= 0 else monomial(n, (), mu)
        out.terms.append((weight, RankOne(s, s)))
    return out


def tau_tilde(e: EndoSum) -> QSqrt:
    """tau_tilde(Theta_{x,y}) = psi(y^* x) = <y, x>, extended linearly; the
    psi walk reads y's terms swapped and x's as they are."""
    acc = QSqrt.zero(e.n)
    for c, th in e.terms:
        value = inner_product(th.y, th.x)
        if value:
            acc = acc + c * value
    return acc


def tau_delta_endo(e: EndoSum) -> QSqrt:
    """tau_delta(e) = tau_tilde(Delta . e), with Delta applied to the output
    leg; normalised so every Phi_k has weight exactly 1.  Each term is
    <y, Delta x>: the psi walk reads y's terms swapped, Delta x's as they are."""
    acc = QSqrt.zero(e.n)
    for c, th in e.terms:
        value = inner_product(th.y, delta_power(th.x, 1))
        if value:
            acc = acc + c * value
    return acc


def tau_delta_truncated(e: EndoSum, cutoff: int) -> QSqrt:
    """tau_tilde(Delta_N e) for Delta_N = Delta (sum_{|k|<=N} Phi_k), built
    from phi_k_endo and endo_compose; stabilises to tau_delta_endo once the
    cutoff covers every gauge degree occurring in the output legs."""
    if cutoff < 0:
        raise UsageError("cutoff must be nonnegative")
    delta_n = EndoSum(e.n)
    for k in range(-cutoff, cutoff + 1):
        delta_n = delta_n + phi_k_endo(k, e.n).scale(n_power(e.n, -k))
    return tau_tilde(endo_compose(delta_n, e))


def _partial_isometry(v: AlgebraElement, caller: str = "key_fact_check") -> tuple:
    """(m, v^*, v v^*) for the monomial partial isometry v = S_mu S_nu^* of
    gauge degree m = |mu| - |nu|; refuses anything else, naming the caller."""
    if len(v.terms) != 1:
        raise DomainError(f"{caller} needs a single monomial S_mu S_nu^*")
    (mu, nu), c = next(iter(v.terms.items()))
    if c != QSqrt.one(v.n):
        raise DomainError(f"{caller} needs coefficient one on the monomial")
    v_star = adjoint(v)
    return len(mu) - len(nu), v_star, multiply(v, v_star)


def _key_fact_holds(n: int, v_terms: dict, range_terms: dict, k: int, cases) -> bool:
    """v Phi_k(v^* x) == v v^* Phi_{k+m}(x) on every probe x of O_n, given as
    the pairs (v^* x, the term map of Phi_{k+m}(x)).  v and v v^* come as
    term maps.  Both sides are formed by the term-map product, which, as in
    ``multiply``, runs only when neither factor is empty, and are compared
    by the equality oracle ``_terms_equal``; stops at the first probe that
    fails."""
    for pulled, shifted in cases:
        left: dict = {}
        if pulled.terms:
            filtered = gauge_component(pulled, k).terms
            if filtered:
                _multiply_into(left, v_terms, filtered)
        right: dict = {}
        if shifted:
            _multiply_into(right, range_terms, shifted)
        if not _terms_equal(left, right, n):
            return False
    return True


def _pulled(v_star: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """v^* x by the term-map product, for a probe x of v's algebra."""
    terms: dict = {}
    _multiply_into(terms, v_star.terms, x.terms)
    return AlgebraElement._make(v_star.n, terms)


def key_fact_check(v: AlgebraElement, k: int, probes: Iterable[AlgebraElement]) -> bool:
    """v Phi_k v^* == v v^* Phi_{k+m} for the monomial partial isometry v of
    gauge degree m, verified on every probe, like ``keyfact_sweep``.  An
    empty probe list is a usage error, not a pass, and so is a probe from
    another algebra."""
    probes = list(probes)
    if not probes:
        raise UsageError("key_fact_check needs at least one probe")
    n = v.n
    m, v_star, range_proj = _partial_isometry(v)
    cases = []
    for x in probes:
        if x.n != n:
            raise UsageError(f"mixed algebras O_{n} and O_{x.n}")
        cases.append((_pulled(v_star, x), gauge_component(x, k + m).terms))
    return _key_fact_holds(n, v.terms, range_proj.terms, k, cases)


# -- named invariant sweeps ------------------------------------------------

TRACESPLIT_K_SPAN = 3  # tracesplit_sweep checks every degree |k| <= this
KEYFACT_K_SPAN = 2  # keyfact_sweep checks every degree |k| <= this,
KEYFACT_PROBE_LEN = 3  # each on every S_a S_b^* with legs up to this length


def tracesplit_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of tracesplit_sweep: per k, 2 + 2 per S_a S_b^*, |a| = |b|, each charged
    for the n^|k| terms of Phi_k it walks (sum_k n^|k| = 2 word_count(n, TRACESPLIT_K_SPAN) - 1)."""
    per_k = 2 + 2 * word_count(n * n, max_len)
    return (2 * TRACESPLIT_K_SPAN + 1) * per_k, per_k * (2 * word_count(n, TRACESPLIT_K_SPAN) - 1)


@sweep("tracesplit", "n", "max_len")
def tracesplit_sweep(n: int, max_len: int):
    """tau_tilde(pi(f) Phi_k) == n^k tau(f) and tau_delta(pi(f) Phi_k) == tau(f) for
    degree-0 monomials f and |k| <= TRACESPLIT_K_SPAN, plus the Phi_k weights themselves."""
    for k in range(-TRACESPLIT_K_SPAN, TRACESPLIT_K_SPAN + 1):
        phi_k = phi_k_endo(k, n)
        yield tau_tilde(phi_k) == n_power(n, k), lambda: f"tau_tilde(Phi_{k}) != n^{k}"
        yield tau_delta_endo(phi_k) == QSqrt.one(n), lambda: f"tau_delta(Phi_{k}) != 1"
        for length in range(max_len + 1):
            for alpha in words(n, length):
                for beta in words(n, length):
                    f = monomial(n, alpha, beta)
                    tf = trace_F(f)
                    fused = compose_left_mult(f, phi_k)
                    yield (tau_tilde(fused) == n_power(n, k) * tf,
                           lambda: f"trace split tau_tilde f=S_{alpha}S*_{beta} k={k}")
                    yield tau_delta_endo(fused) == tf, lambda: f"trace split tau_delta f=S_{alpha}S*_{beta} k={k}"


def keyfact_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of keyfact_sweep: a case per v and |k| <= KEYFACT_K_SPAN, charged per probe."""
    cases = (2 * KEYFACT_K_SPAN + 1) * word_count(n, max_len) ** 2
    return cases, cases * word_count(n, KEYFACT_PROBE_LEN) ** 2


@sweep("keyfact", "n", "max_len")
def keyfact_sweep(n: int, max_len: int):
    """The compression identity v Phi_k v^* == v v^* Phi_{k+m} over monomial
    partial isometries with leg lengths up to max_len and |k| <= KEYFACT_K_SPAN,
    each case checked like ``key_fact_check`` on every probe with legs up to
    KEYFACT_PROBE_LEN.  The term map of Phi_j(x) is formed once per probe and
    degree, and v^*, v v^* and the products v^* x (by ``_multiply_into``)
    once per v, shared by its values of k."""
    ws = words_upto(n, max_len)
    probes = monomials_upto(n, KEYFACT_PROBE_LEN)
    spread = KEYFACT_K_SPAN + max_len  # |k + m| never exceeds it
    shifted = {j: [gauge_component(x, j).terms for x in probes] for j in range(-spread, spread + 1)}
    for mu in ws:
        for nu in ws:
            v = monomial(n, mu, nu)
            m, v_star, range_proj = _partial_isometry(v)
            pulled = [_pulled(v_star, x) for x in probes]
            for k in range(-KEYFACT_K_SPAN, KEYFACT_K_SPAN + 1):
                yield (_key_fact_holds(n, v.terms, range_proj.terms, k, zip(pulled, shifted[k + m])),
                       lambda: f"v=S_{mu}S*_{nu} k={k}")
