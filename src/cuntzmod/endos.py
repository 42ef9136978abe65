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

Both traces are read at once by ``_split_table`` on the unit row, since
pi(1) e = e: a leg c Theta_{x,y} gives c <y, x> at level |w| and, since
Delta fixes the F-valued inner product (Delta . Theta_{x,y} =
Theta_{Delta x, y}) and scales a degree-d term by n^(-d), c <y, Delta x> at
level |w| + d.  ``tau_delta_truncated`` keeps the truncated definition
sup_N tau_tilde(Delta_N e) alive as an independent cross-check, built
honestly out of phi_k_endo and endo_compose.  Every value here is exact:
the legs are algebra elements and the coefficients QSqrt values.

The products of both sweeps are read off ``algebra._right_index``, the
one index of a row of right operands under the path-matching rule, by
``algebra._meets``, so no pair that cannot meet is visited.  For pi(a) e
the leg is c Theta_{a x, y}, and ``_split_table`` reads both traces of
pi(a) e for a whole row of a in one pass, without forming a x: each term
of a meets the terms of the c x in the index of e's legs (``_legs``, which
folds each weight c into its x's terms), and each product term is paired
on the diagonal with that leg's y.  ``tracesplit_sweep`` indexes Phi_k's
legs once per k and reads the table of the unit row and every f at once,
so Phi_k's own traces come from the same pass; each k is one
``tally.sweep`` block of two rows, the tau_tilde row against
[n^k, n^k tau(f)...] and the tau_delta row against [1, tau(f)...].
``_split_traces`` is the table's one-row call (``tau_tilde`` and
``tau_delta_endo`` on the unit row, ``flow.aps_index_traces``).

The compression identity v Phi_k v^* = v v^* Phi_{k+m} of a monomial
partial isometry v of gauge degree m is checked on probes x by
``key_fact_check`` and over every such v by ``keyfact_sweep``, with one
routine.  The left side v Phi_k(v^* x) is formed for the whole probe row
in the pass that forms v^* x (``_left_rows``): each term of v^* x is
filed under its degree, which is Phi_k, and then multiplied by v's one
term.  The right side is formed by another routine: v v^* has degree 0,
so v v^* Phi_j(x) is the degree-j part of v v^* x, and one
``_row_product`` of v v^* against the probe index files each product term
by its degree, giving the rows of every j at once; they are kept for
every v with an equal v v^*.  Both sides read Phi_k through ``_phi``.  The
two sides over all probes are compared as two rows, falling back to
``algebra._terms_equal``, the oracle behind ``equals``, only for rows
that differ structurally.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import (
    AlgebraElement,
    _add_into,
    _meets,
    _power_exceeds,
    _power_text,
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
from .modular import _by_level, expectation, trace_F
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
    if _power_exceeds(n, abs(k), budget):
        raise TermBudgetExceeded(
            f"phi_k_endo: Phi_{k} over O_{n} needs {_power_text(n, abs(k))} "
            f"rank-one terms, past the term budget of {budget}"
        )
    out = EndoSum(n)
    weight = n_power(n, min(k, 0))
    for mu in words(n, abs(k)):
        s = monomial(n, mu, ()) if k >= 0 else monomial(n, (), mu)
        out.terms.append((weight, RankOne(s, s)))
    return out


def _legs(e: EndoSum) -> tuple[list, tuple[dict, dict]]:
    """(ys, index) over e's legs c Theta_{x,y}, read by ``_split_table``: each
    y's term map, and the _right_index of the x with each c other than one
    as its weight, so that no pair is multiplied by it."""
    ys = [th.y.terms for _, th in e.terms]
    return ys, _right_index([th.x for _, th in e.terms], [None if c == 1 else c for c, _ in e.terms])


def _split_table(n: int, legs: tuple, rows: list) -> tuple[list, list]:
    """([tau_tilde(pi(a) e) for a in rows], [tau_delta(pi(a) e) for a in rows])
    given legs = _legs(e) and rows a list of term maps a of any degree, in
    one pass.  Each term of a looks up the terms of the c x it ``_meets``;
    their product S_p S_q^* is paired with each term S_mu S_nu^* of that
    leg's y, and counts where y^* S_p S_q^* is some S_w S_w^*, by the rule
    of the ``algebra`` module docstring.  c_a c_x c_y is summed per (a,
    level |w|), and at |w| + d, d = |p| - |q|, for tau_delta, since
    Delta scales the product term by n^(-d); each sum is weighted
    n^(-level)."""
    ys, index = legs
    one = QSqrt.one(n)
    tildes, deltas = [], []
    for a_terms in rows:
        plain: dict = {}  # |w| -> sum of c_a c_x c_y over the pairs landing on S_w S_w^*
        shifted: dict = {}  # |w| + d -> the same
        for (mu, nu), ca in a_terms.items():
            unit = ca == 1
            for (p, q), held in _meets(mu, nu, index):
                lp, lq = len(p), len(q)
                for i, cx in held:
                    for (ym, yn), cy in ys[i].items():
                        ly = len(ym)
                        if ly == lp:
                            if ym != p or yn != q:
                                continue
                            level = lq
                        elif ly > lp:  # y^* S_p S_q^* = S_yn S_(q + ym[lp:])^*
                            if ym[:lp] != p or yn != q + ym[lp:]:
                                continue
                            level = len(yn)
                        else:  # y^* S_p S_q^* = S_(yn + p[ly:]) S_q^*
                            if p[:ly] != ym or yn + p[ly:] != q:
                                continue
                            level = lq
                        c = cx if unit else ca * cx
                        if cy is not one:
                            c = c * cy
                        s = plain.get(level)
                        plain[level] = c if s is None else s + c
                        level += lp - lq
                        s = shifted.get(level)
                        shifted[level] = c if s is None else s + c
        tildes.append(_by_level(n, plain))
        deltas.append(_by_level(n, shifted))
    return tildes, deltas


_UNIT_ROW = {((), ()): 1}  # pi(1) e = e: its table entries are e's own traces


def _split_traces(n: int, legs: tuple, a_terms: dict) -> tuple[QSqrt, QSqrt]:
    """(tau_tilde(pi(a) e), tau_delta(pi(a) e)) given legs = _legs(e): the
    one-row ``_split_table``."""
    (tilde,), (delta,) = _split_table(n, legs, [a_terms])
    return tilde, delta


def tau_tilde(e: EndoSum) -> QSqrt:
    """tau_tilde(Theta_{x,y}) = psi(y^* x) = <y, x>, extended linearly."""
    return _split_traces(e.n, _legs(e), _UNIT_ROW)[0]


def tau_delta_endo(e: EndoSum) -> QSqrt:
    """tau_delta(e) = tau_tilde(Delta . e), with Delta applied to the output
    leg; normalised so every Phi_k has weight exactly 1."""
    return _split_traces(e.n, _legs(e), _UNIT_ROW)[1]


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


_EMPTY: dict = {}  # every empty side, so that equal rows compare it by identity


def _phi(graded: dict, k: int) -> dict:
    """Phi_k of a row graded by degree, {d: {i: part}}: its degree-k row.
    Both sides of the key fact project through this one function."""
    return graded.get(k, _EMPTY)


def _row_product(a_terms: dict, index: tuple[dict, dict]) -> dict:
    """{d: {i: the degree-d part of a xs[i]}} over the (d, i) where it is not
    zero, given index = _right_index(xs): each term of a against the terms
    it ``_meets``, each product term filed by its degree in the pass that
    forms it.  A term of coefficient one passes theirs on unmultiplied.
    Keys that cancel are dropped, as in ``_multiply_into``."""
    graded: dict = {}
    for (mu, nu), ca in a_terms.items():
        unit = ca == 1
        for key, held in _meets(mu, nu, index):
            d = len(key[0]) - len(key[1])
            rows = graded.get(d)
            if rows is None:
                rows = graded[d] = {}
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
    return {d: rows for d, rows in graded.items() if rows}


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


def _key_fact_rows(v: AlgebraElement, ks, index: tuple, ranges: dict) -> list[bool]:
    """For each k of ks, whether v Phi_k(v^* x) == v v^* Phi_{k+m}(x) on
    every probe x, given index = _right_index(probes).  Left:
    ``_left_rows`` forms v Phi_d(v^* x) for every degree d and probe in one
    pass.  Right: v v^* has degree 0, so v v^* Phi_j(x) is the degree-j
    part of v v^* x; the rows of every j are formed by one ``_row_product``
    of v v^* against the probes, which files each product term by its
    degree, and kept in ranges under the term map of v v^* for
    any v with an equal one.  A row is {probe: side} over its nonzero sides;
    each k compares its two rows in one ``==``, and probe by probe by
    ``_terms_equal`` only if they differ structurally."""
    n = v.n
    m, _, range_proj = _partial_isometry(v)
    lefts = _left_rows(v, index)
    key = frozenset(range_proj.terms.items())
    rights = ranges.get(key)
    if rights is None:
        rights = ranges[key] = _row_product(range_proj.terms, index)
    held = []
    for k in ks:
        left, right = _phi(lefts, k), _phi(rights, k + m)
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
    return _key_fact_rows(v, (k,), _right_index(probes), {})[0]


# -- named invariant sweeps ------------------------------------------------

TRACESPLIT_K_SPAN = 3  # tracesplit_sweep checks every degree |k| <= this
KEYFACT_K_SPAN = 2  # keyfact_sweep checks every degree |k| <= this,
KEYFACT_PROBE_LEN = 3  # each on every S_a S_b^* with legs up to this length


def tracesplit_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of tracesplit_sweep: per k, 2 + 2 per S_a S_b^*, |a| = |b|, each charged
    for the n^|k| terms of Phi_k it walks (sum_k n^|k| = 2 word_count(n, TRACESPLIT_K_SPAN) - 1)."""
    per_k = 2 + 2 * word_count(n * n, max_len)
    return (2 * TRACESPLIT_K_SPAN + 1) * per_k, per_k * (2 * word_count(n, TRACESPLIT_K_SPAN) - 1)


@sweep("tracesplit")
def tracesplit_sweep(n: int, max_len: int):
    """tau_tilde(pi(f) Phi_k) == n^k tau(f) and tau_delta(pi(f) Phi_k) == tau(f) for
    degree-0 monomials f and |k| <= TRACESPLIT_K_SPAN, plus the Phi_k weights themselves.
    f and tau(f) are formed once, shared by the values of k.  Per k, Phi_k's legs are
    indexed once and both traces of the unit row (Phi_k's weights) and of every f are
    read in one ``_split_table`` pass; the k is one ``tally.sweep`` block whose rows
    t = 0 and 1 are the tau_tilde row against [n^k, n^k tau(f)...] and the tau_delta
    row against [1, tau(f)...].  Case j = 0 is Phi_k's weight and case j >= 1 the
    (j-1)th f, so the runner labels the failures in the per-case order: the weights,
    then by f, tau_tilde before tau_delta."""
    f_words = [(alpha, beta) for length in range(max_len + 1) for alpha in words(n, length) for beta in words(n, length)]
    fs = [monomial(n, alpha, beta) for alpha, beta in f_words]
    rows = [_UNIT_ROW, *(f.terms for f in fs)]
    traces = [trace_F(f) for f in fs]
    deltas_want = [QSqrt.one(n), *traces]
    zero_trace = QSqrt.zero(n)
    # the labels of row t = 0 (tau_tilde) and t = 1 (tau_delta); case j = 0 is Phi_k's weight
    weights = ["tau_tilde(Phi_{k}) != n^{k}", "tau_delta(Phi_{k}) != 1"]
    splits = ["trace split tau_tilde f=S_{}S*_{} k={k}", "trace split tau_delta f=S_{}S*_{} k={k}"]
    for k in range(-TRACESPLIT_K_SPAN, TRACESPLIT_K_SPAN + 1):
        tildes, deltas = _split_table(n, _legs(phi_k_endo(k, n)), rows)
        scale = n_power(n, k)
        wants = [scale, *(tf if tf is zero_trace else scale * tf for tf in traces)]
        yield [(tildes, wants), (deltas, deltas_want)], lambda j, t: (
            splits[t].format(*f_words[j - 1], k=k) if j else weights[t].format(k=k))


def keyfact_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of keyfact_sweep: a case per v and |k| <= KEYFACT_K_SPAN, charged per probe."""
    cases = (2 * KEYFACT_K_SPAN + 1) * word_count(n, max_len) ** 2
    return cases, cases * word_count(n, KEYFACT_PROBE_LEN) ** 2


@sweep("keyfact")
def keyfact_sweep(n: int, max_len: int):
    """The compression identity v Phi_k v^* == v v^* Phi_{k+m} over monomial
    partial isometries with leg lengths up to max_len and |k| <= KEYFACT_K_SPAN,
    each case checked by the routine of ``key_fact_check`` on every probe
    with legs up to KEYFACT_PROBE_LEN.  The probes are indexed once per
    sweep, each v's left sides are formed for every k in one pass, and the
    right-side rows of every k, formed in one pass per distinct v v^*, are
    shared between the v's with equal v v^*.  Each v is one ``tally.sweep``
    block: ``_key_fact_rows``' booleans over k against [True] * len(ks)."""
    ws = words_upto(n, max_len)
    index = _right_index(monomials_upto(n, KEYFACT_PROBE_LEN))
    ranges: dict = {}
    ks = range(-KEYFACT_K_SPAN, KEYFACT_K_SPAN + 1)
    holds = [True] * len(ks)
    for mu in ws:
        for nu in ws:
            held = _key_fact_rows(monomial(n, mu, nu), ks, index, ranges)
            yield [(held, holds)], lambda j, t: f"v=S_{mu}S*_{nu} k={ks[j]}"
