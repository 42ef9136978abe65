"""Exact arithmetic on the dense *-subalgebra spanned by the monomials
S_mu S_nu^* of the Cuntz algebra on n isometries.

A multi-index (word) is a tuple of letters in 1..n; the empty word stands
for the absent generator, so the pair ``((), ())`` is the identity.  An
element is a finite map ``(mu, nu) -> coefficient`` with no zero entries.
Products follow the path-matching rule

    (S_mu S_nu^*)(S_al S_be^*) = 0            unless
        nu = al + lam  ->  S_mu S_{be+lam}^*   or
        al = nu + gam  ->  S_{mu+gam} S_be^*

which together with S_i^* S_j = delta_ij and sum_i S_i S_i^* = 1 closes the
monomial family under multiplication.

Coefficients are exact QSqrt values: rationals plus rational multiples of
sqrt n.  The field is real, so the adjoint only swaps the legs of each key.
A float or complex coefficient is refused with BackendError; floats live
only in the ``numerics`` layer, which reads exact results at its boundary.

Equality of elements is semantic.  A monomial is the sum of its n children,
S_mu S_nu^* = sum_a S_{mu a} S_{nu a}^*, so each one stands for a cone of
deeper keys.  ``equals(a, b)`` never expands ``a - b`` to a common level:
``_disjoint_terms`` pushes a coefficient one level down only where a deeper
term sits inside its cone, which leaves pairwise disjoint cones, and
disjoint cones are linearly independent, so ``a - b`` is zero iff nothing
survives.  The work is at most n x terms x depth.  ``canonical_form``
expands every monomial of gauge degree d (by appending equal letters to
both legs) until all of them share the maximal min-level present in that
degree, the unique representative used for output.  That expansion is
exponential in depth, so it is guarded by a term budget (default 100000,
override with the CUNTZ_TERM_BUDGET environment variable); the budget also
guards ``endos.phi_k_endo``, and nothing else.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BackendError, TermBudgetExceeded, UsageError
from .scalars import QSqrt

Word = tuple[int, ...]
MonomialKey = tuple[Word, Word]

DEFAULT_TERM_BUDGET = 100_000


def term_budget() -> int:
    raw = os.environ.get("CUNTZ_TERM_BUDGET")
    if raw is None:
        return DEFAULT_TERM_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"CUNTZ_TERM_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError("CUNTZ_TERM_BUDGET must be positive")
    return value


def check_word(n: int, word: Iterable[int]) -> Word:
    w = tuple(word)
    for letter in w:
        if not 1 <= letter <= n:
            raise UsageError(f"letter {letter} outside 1..{n}")
    return w


def words(n: int, length: int) -> Iterator[Word]:
    """All words of exactly the given length over 1..n."""
    return itertools.product(range(1, n + 1), repeat=length)


def words_upto(n: int, max_len: int) -> list[Word]:
    """All words of length 0..max_len over 1..n, shortest first."""
    out: list[Word] = []
    for length in range(max_len + 1):
        out.extend(words(n, length))
    return out


WORD_COUNT_CAP = 2**63


def word_count(n: int, max_len: int) -> int:
    """len(words_upto(n, max_len)) for n >= 2, capped at WORD_COUNT_CAP, which
    64 levels pass: far above any budget, yet a plan's powers of it print."""
    return min((n ** (min(max_len, 63) + 1) - 1) // (n - 1), WORD_COUNT_CAP)


def monomials_upto(n: int, max_len: int) -> list[AlgebraElement]:
    """Every S_mu S_nu^* with both legs in words_upto(n, max_len), mu-major."""
    ws = words_upto(n, max_len)
    return [monomial(n, mu, nu) for mu in ws for nu in ws]


def term_sort_key(key: MonomialKey):
    """Deterministic term order: (degree, |nu|, mu lexicographic, nu lexicographic)."""
    mu, nu = key
    return (len(mu) - len(nu), len(nu), mu, nu)


class AlgebraElement:
    """A finite linear combination of monomials S_mu S_nu^*.

    Values are immutable by convention: no method mutates ``terms`` after
    construction, so elements can be shared freely between workers.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[MonomialKey, object] | None = None):
        if n < 2:
            raise UsageError(f"Cuntz algebra needs n >= 2, got {n}")
        self.n = n
        clean: dict[MonomialKey, QSqrt] = {}
        if terms:
            for key, c in terms.items():
                mu = check_word(n, key[0])
                nu = check_word(n, key[1])
                c = self._normalize_scalar(c)
                if not c.is_zero:
                    clean[(mu, nu)] = c
        self.terms = clean

    @classmethod
    def _make(cls, n: int, terms: dict) -> "AlgebraElement":
        obj = object.__new__(cls)
        obj.n = n
        obj.terms = terms
        return obj

    def _normalize_scalar(self, c) -> QSqrt:
        if type(c) is QSqrt:
            if c.n != self.n:
                raise UsageError(f"scalar from Q(sqrt {c.n}) used in O_{self.n}")
            return c
        if isinstance(c, (int, Fraction)):
            return QSqrt(self.n, c)
        raise BackendError(f"O_{self.n} takes QSqrt, int or Fraction coefficients, got {c!r}")

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(mu) - len(nu) for (mu, nu) in self.terms}

    def coefficient(self, mu: Iterable[int], nu: Iterable[int] = ()):
        key = (tuple(mu), tuple(nu))
        c = self.terms.get(key)
        if c is not None:
            return c
        return QSqrt.zero(self.n)

    def __eq__(self, other) -> bool:
        """Structural equality (same term map); use :func:`equals` for
        semantic equality of algebra elements."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        from .expr import render

        return f"<O_{self.n}: {render(self)}>"

    # -- arithmetic ----------------------------------------------------------

    def _check_mate(self, other: "AlgebraElement"):
        if self.n != other.n:
            raise UsageError(f"mixed algebras O_{self.n} and O_{other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return AlgebraElement._make(self.n, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_mate(other)
        return AlgebraElement._make(self.n, _difference(self.terms, other.terms))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._make(self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        c = self._normalize_scalar(c)
        if c.is_zero:
            return AlgebraElement._make(self.n, {})
        return AlgebraElement._make(self.n, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def adjoint(self) -> "AlgebraElement":
        return adjoint(self)


# -- constructors -------------------------------------------------------------


def zero(n: int) -> AlgebraElement:
    return AlgebraElement._make(n, {})


def one(n: int) -> AlgebraElement:
    return monomial(n, (), ())


def gen(n: int, i: int) -> AlgebraElement:
    """The isometry S_i."""
    return monomial(n, (i,), ())


def s_word(n: int, mu: Iterable[int]) -> AlgebraElement:
    """S_mu = S_{mu_1} ... S_{mu_k}."""
    return monomial(n, mu, ())


def monomial(n: int, mu: Iterable[int], nu: Iterable[int], coeff=1) -> AlgebraElement:
    """coeff * S_mu S_nu^*."""
    key = (check_word(n, mu), check_word(n, nu))
    el = AlgebraElement._make(n, {})
    c = el._normalize_scalar(coeff)
    if not c.is_zero:
        el.terms[key] = c
    return el


def projection(n: int, mu: Iterable[int]) -> AlgebraElement:
    """P_mu = S_mu S_mu^*."""
    w = check_word(n, mu)
    return monomial(n, w, w)


# -- core operations -----------------------------------------------------------


def _add_into(out: dict, terms: dict) -> None:
    """Add a term map into ``out`` in place, dropping the keys that cancel
    (shared by ``+`` and the sums built term by term)."""
    for key, c in terms.items():
        v = out.get(key)
        s = c if v is None else v + c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s


def _difference(a_terms: dict, b_terms: dict) -> dict:
    """The term map of a - b, dropping the keys that cancel."""
    out = dict(a_terms)
    for key, c in b_terms.items():
        v = out.get(key)
        s = -c if v is None else v - c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _multiply_into(out: dict, aterms: dict, bterms: dict, _unused=True) -> None:
    """Accumulate the product of two term maps into ``out`` (shared by
    multiply and the matrix product's inner sums)."""
    # _unused: the layer table in exactbench/layers.py still passes a fourth argument
    for (mu, nu), ca in aterms.items():
        ln_nu = len(nu)
        for (al, be), cb in bterms.items():
            ln_al = len(al)
            if ln_nu == ln_al:
                if nu != al:
                    continue
                key = (mu, be)
            elif ln_nu > ln_al:
                if nu[:ln_al] != al:
                    continue
                key = (mu, be + nu[ln_al:])
            else:
                if al[:ln_nu] != nu:
                    continue
                key = (mu + al[ln_nu:], be)
            c = ca * cb
            v = out.get(key)
            s = c if v is None else v + c
            if s.na == 0 and s.nb == 0:
                out.pop(key, None)
            else:
                out[key] = s


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The algebra product, bilinear extension of the path-matching rule."""
    a._check_mate(b)
    out: dict[MonomialKey, object] = {}
    if a.terms and b.terms:
        _multiply_into(out, a.terms, b.terms)
    return AlgebraElement._make(a.n, out)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """(S_mu S_nu^*)^* = S_nu S_mu^*; the coefficients are real."""
    out = {(nu, mu): c for (mu, nu), c in a.terms.items()}
    return AlgebraElement._make(a.n, out)


def linear_combine(pairs: Iterable[tuple[object, AlgebraElement]]) -> AlgebraElement:
    """sum_i c_i a_i over a shared context."""
    pairs = list(pairs)
    if not pairs:
        raise UsageError("linear_combine needs at least one (scalar, element) pair")
    first = pairs[0][1]
    acc = zero(first.n)
    for c, el in pairs:
        first._check_mate(el)
        _add_into(acc.terms, el.scale(c).terms)
    return acc


def canonical_form(a: AlgebraElement) -> AlgebraElement:
    """Expand each gauge-degree class to its maximal min-level present.

    Within a fixed degree d all monomials end up with the same leg lengths,
    where they are linearly independent, so the result is the unique
    representative at those levels and semantic equality becomes structural.
    """
    terms = a.terms
    if not terms:
        return a
    levels: dict[int, int] = {}
    uniform = True
    for mu, nu in terms:
        d = len(mu) - len(nu)
        m = len(nu) if d >= 0 else len(mu)
        prev = levels.get(d)
        if prev is None:
            levels[d] = m
        elif prev != m:
            uniform = False
            if m > prev:
                levels[d] = m
    if uniform:
        return a
    budget = term_budget()
    n = a.n
    letters = range(1, n + 1)
    out: dict[MonomialKey, object] = {}
    made = 0  # keys expanded so far, a cancelled one included, as the budget counts them
    for (mu, nu), c in terms.items():
        d = len(mu) - len(nu)
        need = levels[d] - (len(nu) if d >= 0 else len(mu))
        if need == 0:
            suffixes: Iterable[Word] = ((),)
        else:
            if made + n**need > budget:
                raise TermBudgetExceeded(
                    f"canonical_form: a {len(terms)}-term input needs {n}**{need} = "
                    f"{n**need} terms for one monomial, past the term budget of {budget} "
                    f"({made} already expanded); "
                    "raise CUNTZ_TERM_BUDGET if this is intended"
                )
            suffixes = itertools.product(letters, repeat=need)
        for sfx in suffixes:
            key = (mu + sfx, nu + sfx)
            v = out.get(key)
            if v is None:
                out[key] = c
                made += 1
            elif (v := v + c).is_zero:  # only a key given a second coefficient can cancel
                del out[key]
            else:
                out[key] = v
    return AlgebraElement._make(a.n, out)


def _disjoint_terms(terms: dict, n: int) -> dict:
    """The terms rewritten over pairwise disjoint cones, without zeros.

    The cone of (mu, nu) is every (mu + s, nu + s).  Mark each proper
    ancestor (mu[:-k], nu[:-k]) of a term, found by stripping equal trailing
    letters from both legs; then, shallowest first, replace each marked key
    that holds a coefficient by its n children (mu + a, nu + a).  A key
    left unmarked has no term below it, so the survivors' cones are
    disjoint, and their coefficients are exactly those of the max-level
    canonical form (each survivor expands there to copies of itself).
    Hence the element is zero iff nothing survives.  The work is at most
    n x terms x depth; no term budget applies.  ``terms`` holds no zeros,
    like every element's, and is returned as is when no term lies below
    another.
    """
    marked: set = set()
    for mu, nu in terms:
        i, j = len(mu), len(nu)
        while i and j and mu[i - 1] == nu[j - 1]:
            i -= 1
            j -= 1
            parent = (mu[:i], nu[:j])
            if parent in marked:  # its ancestors are marked already
                break
            marked.add(parent)
    if not marked:
        return terms
    out = dict(terms)
    children = [(a,) for a in range(1, n + 1)]
    for key in sorted(marked, key=lambda k: min(len(k[0]), len(k[1]))):
        c = out.pop(key, None)
        if c is None:
            continue
        mu, nu = key
        for a in children:
            child = (mu + a, nu + a)
            v = out.get(child)
            out[child] = c if v is None else v + c
    return {k: c for k, c in out.items() if not c.is_zero}


def _terms_equal(a_terms: dict, b_terms: dict, n: int) -> bool:
    """Semantic equality of two term maps over O_n: structurally equal, or
    their difference rewritten over disjoint cones is the empty sum (see
    ``_disjoint_terms``); no expansion, so no term budget."""
    if a_terms == b_terms:
        return True
    return not _disjoint_terms(_difference(a_terms, b_terms), n)


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Semantic equality of two elements of one algebra, by
    ``_terms_equal`` on their term maps."""
    a._check_mate(b)
    return _terms_equal(a.terms, b.terms, a.n)
