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

Both traces are read at once by one psi walk over the legs,
``modular._psi_sums``: a leg c Theta_{x,y} gives c <y, x> at level |w|
and, since Delta fixes the F-valued inner product (Delta . Theta_{x,y} =
Theta_{Delta x, y}) and scales a degree-d term by n^(-d), c <y, Delta x> at
level |w| + d; for pi(a) e the leg is read as c Theta_{a x, y}, with a x
formed by a row product (``_split_traces``).  ``tau_delta_truncated``
keeps the truncated definition sup_N tau_tilde(Delta_N e) alive as an
independent cross-check, built honestly out of phi_k_endo and
endo_compose.  Every value here is exact: the legs are algebra elements
and the coefficients QSqrt values.

The products of both sweeps are read off ``algebra._right_index``, the
one index of a row of right operands under the path-matching rule:
``_row_product`` multiplies an element against the whole row by
``algebra._meets``, so no pair that cannot meet is visited.
``tracesplit_sweep`` indexes the output legs of each Phi_k once and reads
pi(f) Phi_k's legs from one row product of f (``_split_traces``), so only
the legs that f meets reach the walk.

The compression identity v Phi_k v^* = v v^* Phi_{k+m} of a monomial
partial isometry v of gauge degree m is checked on probes x by
``key_fact_check`` and over every such v by ``keyfact_sweep``, with one
routine.  The left side v Phi_k(v^* x) is formed for the whole probe row
in the pass that forms v^* x (``_left_rows``): each term of v^* x is
filed under its degree, which is Phi_k, and then multiplied by v's one
term.  The right side v v^* Phi_{k+m}(x) is formed from the probes' parts,
grouped by degree once per call, only where it can be nonzero.  Both
sides read Phi_k through ``_phi``.  The two sides over all probes are
compared as two rows, falling back to ``algebra._terms_equal``, the
oracle behind ``equals``, only for rows that differ structurally.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import (
    AlgebraElement,
    _add_into,
    _meets,
    _multiply_into,
    _right_index,
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
from .modular import _psi_sums, expectation, trace_F
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


_EMPTY: dict = {}  # every empty side, so that equal rows compare it by identity


def _side(a_terms: dict, b_terms: dict) -> dict:
    """a b by the term-map product, or the shared empty side if it is zero."""
    out: dict = {}
    _multiply_into(out, a_terms, b_terms)
    return out or _EMPTY


def _traces(e: EndoSum) -> tuple[QSqrt, QSqrt]:
    """(tau_tilde(e), tau_delta(e)) in one psi walk over the weighted pairs
    (c, y, x) of the legs."""
    return _psi_sums(e.n, [(c, th.y.terms, th.x.terms) for c, th in e.terms], star_a=True, shift=True)


def _legs(e: EndoSum) -> tuple[list, list, tuple[dict, dict]]:
    """(cs, ys, index) over e's legs c Theta_{x,y}: each c, None where it is
    one, each y, and the _right_index of the x, read by ``_split_traces``."""
    cs = [None if c == 1 else c for c, _ in e.terms]
    ys = [th.y.terms for _, th in e.terms]
    return cs, ys, _right_index([th.x for _, th in e.terms])


def _split_traces(n: int, legs: tuple, a_terms: dict) -> tuple[QSqrt, QSqrt]:
    """(tau_tilde(pi(a) e), tau_delta(pi(a) e)) given legs = _legs(e), in one
    psi walk over the weighted pairs (c, y, a x) of the legs that a meets,
    each a x from one ``_row_product`` and of any degree."""
    cs, ys, index = legs
    pairs = [(cs[i], ys[i], ax) for i, ax in _row_product(a_terms, index).items()]
    return _psi_sums(n, pairs, star_a=True, shift=True)


def tau_tilde(e: EndoSum) -> QSqrt:
    """tau_tilde(Theta_{x,y}) = psi(y^* x) = <y, x>, extended linearly."""
    return _traces(e)[0]


def tau_delta_endo(e: EndoSum) -> QSqrt:
    """tau_delta(e) = tau_tilde(Delta . e), with Delta applied to the output
    leg; normalised so every Phi_k has weight exactly 1."""
    return _traces(e)[1]


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


def _degree_parts(terms: dict) -> dict:
    """{d: the term map of the degree-d part} of a term map, over the degrees present."""
    parts: dict = {}
    for key, c in terms.items():
        parts.setdefault(len(key[0]) - len(key[1]), {})[key] = c
    return parts


def _by_degree(xs: list) -> dict:
    """{j: {i: the degree-j part of xs[i]}} over the degrees present, in increasing i."""
    groups: dict = {}
    for i, x in enumerate(xs):
        for d, part in _degree_parts(x.terms).items():
            groups.setdefault(d, {})[i] = part
    return groups


def _phi(graded: dict, k: int) -> dict:
    """Phi_k of a row graded by degree, {d: {i: part}}: its degree-k row.
    Both sides of the key fact project through this one function."""
    return graded.get(k, _EMPTY)


def _row_product(a_terms: dict, index: tuple[dict, dict]) -> dict:
    """{i: the term map of a xs[i]} over the i where it is not zero, given
    index = _right_index(xs), each term of a against the terms it
    ``_meets``; a term of coefficient one passes theirs on unmultiplied.
    Keys that cancel are dropped, as in ``_multiply_into``."""
    rows: dict = {}
    for (mu, nu), ca in a_terms.items():
        unit = ca == 1
        for key, held in _meets(mu, nu, index):
            for i, cb in held:
                c = cb if unit else ca * cb
                out = rows.get(i)
                if out is None:
                    rows[i] = {key: c}
                    continue
                v = out.get(key)
                s = c if v is None else v + c
                if s.na == 0 and s.nb == 0:
                    del out[key]
                    if not out:
                        del rows[i]
                else:
                    out[key] = s
    return rows


def _left_rows(v: AlgebraElement, index: tuple[dict, dict]) -> dict:
    """{d: {i: the term map of v Phi_d(v^* xs[i])}} over the (d, i) where it
    is not zero, given index = _right_index(xs), formed in the pass that
    forms v^* xs[i].  v is S_p S_q^* with coefficient one, so v^* is
    S_q S_p^* and each term of v^* x is c S_{q g} S_b^*, one of the terms
    that S_q S_p^* ``_meets``.  It is filed under its degree |q g| - |b|,
    and v sends it to c S_{p g} S_b^* (the rule of the ``algebra`` module
    docstring for one term pair).  Distinct terms stay distinct, so a key
    cancels exactly where it cancels in v^* x."""
    ((p, q),) = v.terms
    lq = len(q)
    graded: dict = {}
    for (a, b), held in _meets(q, p, index):
        d = len(a) - len(b)
        rows = graded.get(d)
        if rows is None:
            rows = graded[d] = {}
        key = (p + a[lq:], b)
        for i, c in held:
            out = rows.get(i)
            if out is None:
                rows[i] = {key: c}
                continue
            w = out.get(key)
            s = c if w is None else w + c
            if s.na == 0 and s.nb == 0:
                del out[key]
                if not out:
                    del rows[i]
            else:
                out[key] = s
    return {d: rows for d, rows in graded.items() if rows}


def _key_fact_rows(v: AlgebraElement, ks, by_degree: dict, index: tuple, ranges: dict) -> list[bool]:
    """For each k of ks, whether v Phi_k(v^* x) == v v^* Phi_{k+m}(x) on
    every probe x, given by_degree = _by_degree(probes) and index =
    _right_index(probes).  Left: ``_left_rows`` forms v Phi_d(v^* x) for
    every degree d and probe in one pass.  Right: the row of
    v v^* Phi_j(x) is formed at the probes with a degree-j part, once per j
    and term map of v v^*, and kept in ranges under that term map for any
    v with an equal one.  A row is {probe: side} over its nonzero sides;
    each k compares its two rows in one ``==``, and probe by probe by
    ``_terms_equal`` only if they differ structurally."""
    n = v.n
    m, _, range_proj = _partial_isometry(v)
    lefts = _left_rows(v, index)
    rights = ranges.setdefault(frozenset(range_proj.terms.items()), {})
    held = []
    for k in ks:
        right = rights.get(k + m)
        if right is None:
            right = rights[k + m] = {}
            for i, part in _phi(by_degree, k + m).items():
                if side := _side(range_proj.terms, part):
                    right[i] = side
        left = _phi(lefts, k)
        held.append(left == right or all(_terms_equal(left.get(i, _EMPTY), right.get(i, _EMPTY), n)
                                         for i in left.keys() | right.keys()))
    return held


def key_fact_check(v: AlgebraElement, k: int, probes: Iterable[AlgebraElement]) -> bool:
    """v Phi_k v^* == v v^* Phi_{k+m} for the monomial partial isometry v of
    gauge degree m, verified on every probe by the routine of
    ``keyfact_sweep``; the probes may have any number of terms and degrees.
    An empty probe list is a usage error, not a pass, and so is a probe
    from another algebra."""
    probes = list(probes)
    if not probes:
        raise UsageError("key_fact_check needs at least one probe")
    for x in probes:
        if x.n != v.n:
            raise UsageError(f"mixed algebras O_{v.n} and O_{x.n}")
    return _key_fact_rows(v, (k,), _by_degree(probes), _right_index(probes), {})[0]


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
    degree-0 monomials f and |k| <= TRACESPLIT_K_SPAN, plus the Phi_k weights themselves.
    Both traces of a case pair are read in one walk over the legs of pi(f) Phi_k that
    f meets, found in an index of Phi_k's legs made once per k (``_split_traces``);
    f and tau(f) are formed once, shared by the values of k."""
    f_words = [(alpha, beta) for length in range(max_len + 1) for alpha in words(n, length) for beta in words(n, length)]
    fs = [(alpha, beta, f, trace_F(f)) for alpha, beta in f_words for f in [monomial(n, alpha, beta)]]
    for k in range(-TRACESPLIT_K_SPAN, TRACESPLIT_K_SPAN + 1):
        phi_k = phi_k_endo(k, n)
        tilde, delta = _traces(phi_k)
        yield tilde == n_power(n, k), lambda: f"tau_tilde(Phi_{k}) != n^{k}"
        yield delta == QSqrt.one(n), lambda: f"tau_delta(Phi_{k}) != 1"
        legs = _legs(phi_k)
        for alpha, beta, f, tf in fs:
            tilde, delta = _split_traces(n, legs, f.terms)
            yield tilde == n_power(n, k) * tf, lambda: f"trace split tau_tilde f=S_{alpha}S*_{beta} k={k}"
            yield delta == tf, lambda: f"trace split tau_delta f=S_{alpha}S*_{beta} k={k}"


def keyfact_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of keyfact_sweep: a case per v and |k| <= KEYFACT_K_SPAN, charged per probe."""
    cases = (2 * KEYFACT_K_SPAN + 1) * word_count(n, max_len) ** 2
    return cases, cases * word_count(n, KEYFACT_PROBE_LEN) ** 2


@sweep("keyfact", "n", "max_len")
def keyfact_sweep(n: int, max_len: int):
    """The compression identity v Phi_k v^* == v v^* Phi_{k+m} over monomial
    partial isometries with leg lengths up to max_len and |k| <= KEYFACT_K_SPAN,
    each case checked by the routine of ``key_fact_check`` on every probe
    with legs up to KEYFACT_PROBE_LEN.  The probes' parts are grouped by
    degree once per sweep, each v's left sides are formed for every k in
    one pass, and the right-side rows are shared between the v's with
    equal v v^*."""
    ws = words_upto(n, max_len)
    probes = monomials_upto(n, KEYFACT_PROBE_LEN)
    by_degree = _by_degree(probes)
    index = _right_index(probes)
    ranges: dict = {}
    ks = range(-KEYFACT_K_SPAN, KEYFACT_K_SPAN + 1)
    for mu in ws:
        for nu in ws:
            held = _key_fact_rows(monomial(n, mu, nu), ks, by_degree, index, ranges)
            for k, ok in zip(ks, held):
                yield ok, lambda: f"v=S_{mu}S*_{nu} k={k}"
