"""Gauge and modular structure on the monomial algebra.

The circle action scales S_mu S_nu^* by z^(|mu|-|nu|); its degree-k part is
``gauge_component`` and the degree-0 projection ``expectation`` (Phi) lands
in the fixed-point algebra F.  On F the normalised trace is

    trace_F(S_mu S_nu^*) = delta_{mu,nu} * n^(-|mu|)

and psi = trace_F . expectation is the KMS state for the gauge action.  psi
keeps only the diagonal terms S_w S_w^*, so psi of a product needs only the
term pairs whose product is diagonal:

    psi(a b) = sum of c_a c_b n^(-|w|) over the term pairs
               (c_a S_mu S_nu^*, c_b S_al S_be^*) of a and b whose
               path-matched product is S_w S_w^*

One private walk evaluates this sum for one pair (a, b) without forming
a b.  ``psi_product`` reads both operands as they are, ``inner_product``
(psi(a^* b)) reads a's terms swapped, and ``flow.twisted_theta``
(psi(a0 [D, a1])) weights each matched pair by the gauge degree of a1's
term.  Beside it, one private table gives psi(l' r) for every pair of two
lists at once: each left term finds its diagonal partners by lookup in
the right operands' ``algebra._right_index``, so no pair is scanned.
These are the two psi kernels, one per traffic shape: single pairs, as in
``psi_product``, ``inner_product``, ``flow.twisted_theta``,
``flow.cocycle_b_defect`` and the kernel correction, stay on the walk,
which costs less there than a 1x1 table; a sweep over all pairs, as in
``kms_sweep``, ``tomita_sweep`` and ``flow.cocycle_sweep`` (whose b-defect
terms are read from tables of products against [D, .] images), reads its
pairings from tables.  The tau traces of an endomorphism are not read here:
``endos._split_table`` reads both at once.  ``kms_sweep`` and
``tomita_sweep`` yield the two sides' tables a row at a time as
``tally.sweep`` blocks, which compare each row in one list comparison
and label only its failures.  The generator D multiplies a
monomial by its gauge degree, the modular operator is Delta = n^(-D), and
the Tomita data act termwise:

    S(S_mu S_nu^*)       = S_nu S_mu^*
    F(S_mu S_nu^*)       = n^(|mu|-|nu|)       * S_nu S_mu^*
    J(S_mu S_nu^*)       = n^((1/2)(|mu|-|nu|)) * S_nu S_mu^*
    Delta^z(S_mu S_nu^*) = n^(z(|nu|-|mu|))    * S_mu S_nu^*

F, J and Delta^z are one private rescale, c S_mu S_nu^* -> c n^(h d/2)
on the key (Delta^z, h = -2z) or on its swap (J, h = 1; F, h = 2), with
d = |mu| - |nu| and each scale read from the half-step table of
``scalars``.  The distinguished algebraic automorphism sigma = Delta^(-1)
(the t = i point of the modular flow) is the only modular map the index
pairing reads.  Every value here is exact in Q(sqrt n) (z lies in (1/2)Z,
coefficients are real), and every function is pure.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, _right_index, adjoint, monomials_upto, word_count
from .errors import BackendError, DomainError
from .scalars import _HALF_POWERS, QSqrt, n_power
from .tally import sweep


def gauge_component(a: AlgebraElement, k: int) -> AlgebraElement:
    """Sub-sum of the terms with gauge degree |mu| - |nu| = k."""
    out = {}  # in the package only expectation calls it, for endos.endo_apply and endo_compose
    for key, c in a.terms.items():
        if len(key[0]) - len(key[1]) == k:
            out[key] = c
    return AlgebraElement._make(a.n, out)


def expectation(a: AlgebraElement) -> AlgebraElement:
    """Phi, the conditional expectation onto the fixed-point algebra."""
    return gauge_component(a, 0)


def trace_F(f: AlgebraElement) -> QSqrt:
    """The normalised trace on F_c; refuses terms of nonzero gauge degree."""
    value = state_psi(f)
    for mu, nu in f.terms:
        if len(mu) != len(nu):
            raise DomainError(
                f"trace_F needs a gauge-degree-0 element; term S_{mu}S*_{nu} has degree "
                f"{len(mu) - len(nu)}"
            )
    return value


def state_psi(a: AlgebraElement) -> QSqrt:
    """psi = trace_F . expectation, the gauge-invariant KMS state."""
    n = a.n
    acc = QSqrt.zero(n)
    for (mu, nu), c in a.terms.items():
        if mu == nu:
            acc = acc + c * n_power(n, -len(mu))
    return acc


def _psi_walk(a: AlgebraElement, b: AlgebraElement, star_a: bool = False, weigh: bool = False) -> QSqrt:
    """psi(a' b) over the term pairs of a and b.  a' reads each term
    c S_mu S_nu^* of a as it is or, if star_a, as c S_nu S_mu^* (so
    a' = a*: coefficients are real).  On a diagonal pair b's term has gauge
    degree d = |nu| - |mu|, read once per term of a: if weigh, c is also
    multiplied by d.

    A pair counts if its product, by the rule of the ``algebra`` module
    docstring, is some S_w S_w^*.  c_a c_b is summed per level |w|, and
    each sum is weighted n^(-level).
    """
    if a.n != b.n:
        a._check_mate(b)  # raises the mixed-algebras error
    b_terms = b.terms
    sums = {}  # |w| -> sum of c_a c_b over the pairs landing on S_w S_w^*
    for (mu, nu), ca in a.terms.items():
        if star_a:
            mu, nu = nu, mu
        ln_nu = len(nu)
        if weigh:
            d = ln_nu - len(mu)
            if not d:
                continue
            ca = ca * d
        for (al, be), cb in b_terms.items():
            ln_al = len(al)
            if ln_nu == ln_al:
                if nu != al or mu != be:
                    continue
                k = len(mu)
            elif ln_nu > ln_al:
                if nu[:ln_al] != al or mu != be + nu[ln_al:]:
                    continue
                k = len(mu)
            else:
                if al[:ln_nu] != nu or mu + al[ln_nu:] != be:
                    continue
                k = len(be)
            c = ca * cb
            s = sums.get(k)
            sums[k] = c if s is None else s + c
    return _by_level(a.n, sums)


def _by_level(n: int, sums: dict) -> QSqrt:
    """sum of s n^(-level) over per-level sums, as ``_psi_walk`` and
    ``endos._split_table`` keep them."""
    if not sums:
        return QSqrt.zero(n)
    (k, s), *more = sums.items()
    acc = s * n_power(n, -k)  # all of psi when every pair has one level
    for k, s in more:
        acc = acc + s * n_power(n, -k)
    return acc


def _psi_table(lefts: list, rights: list, star: bool = False) -> list[list[QSqrt]]:
    """rows[i][j] = psi(l_i' r_j) for every pair at once, where l' is l or,
    if star, l* (read as ``_psi_walk`` reads star_a); no pair is scanned.

    The rights are indexed once by ``algebra._right_index``, and a left
    term S_mu S_nu^* looks up only its diagonal partners there: in exact
    at nu[:i] and mu without its last |nu| - i letters, for i = |nu| and
    downward while mu ends with nu[i:] (level |mu|), and in the row of each
    leg nu + gam of longer[nu] at mu + gam (level |mu + gam|).  c_a c_b is
    summed per (j, level), and each sum is weighted n^(-level) at the end.
    """
    operands = [*lefts, *rights]
    if not operands:
        return []
    first = operands[0]
    n = first.n
    for x in operands:
        if x.n != n:
            first._check_mate(x)  # raises the mixed-algebras error
    exact, longer = _right_index(rights)
    zero = QSqrt.zero(n)
    width = len(rights)
    rows = []
    for l in lefts:
        sums = {}  # (j, |w|) -> sum of c_a c_b over the pairs landing on S_w S_w^*
        for (mu, nu), ca in l.terms.items():
            if star:
                mu, nu = nu, mu
            lm, ln = len(mu), len(nu)
            i = ln
            while True:
                shorter = exact.get(nu[:i])
                if shorter and (hits := shorter.get(mu[:lm - ln + i])):
                    for j, cb in hits:
                        c = ca * cb
                        s = sums.get((j, lm))
                        sums[(j, lm)] = c if s is None else s + c
                i -= 1  # nu = al + lam with lam = nu[i:]: mu must end with lam
                if i < 0 or ln - i > lm or mu[lm - ln + i] != nu[i]:
                    break
            for gam, extension in longer.get(nu, ()):
                hits = extension.get(mu + gam)
                if hits:
                    k = lm + len(gam)
                    for j, cb in hits:
                        c = ca * cb
                        s = sums.get((j, k))
                        sums[(j, k)] = c if s is None else s + c
        row = [zero] * width
        for (j, k), s in sums.items():
            value = s * n_power(n, -k)
            row[j] = value if row[j] is zero else row[j] + value
        rows.append(row)
    return rows


def psi_product(a: AlgebraElement, b: AlgebraElement) -> QSqrt:
    """psi(a b) = state_psi(multiply(a, b)), without forming a b."""
    return _psi_walk(a, b)


def inner_product(a: AlgebraElement, b: AlgebraElement) -> QSqrt:
    """<a, b> = psi(a* b), reading a's terms swapped; conjugate-linear in a, linear in b."""
    return _psi_walk(a, b, star_a=True)


def commutator_D(a: AlgebraElement) -> AlgebraElement:
    """[D, a]: termwise multiplication by the gauge degree.  Coincides with
    the vector action of D on a viewed as an element of the module."""
    out = {}
    for key, c in a.terms.items():
        d = len(key[0]) - len(key[1])
        if d:
            out[key] = c * d
    return AlgebraElement._make(a.n, out)


def _rescaled(a: AlgebraElement, h: int, swap: bool) -> AlgebraElement:
    """c S_mu S_nu^* -> c n^(h d/2) on the key, or if swap on S_nu S_mu^*,
    where d = |mu| - |nu|.  A nonzero c times a power of n is nonzero, so
    no term cancels."""
    n = a.n
    out = {}
    for key, c in a.terms.items():
        mu, nu = key
        e = h * (len(mu) - len(nu))
        out[(nu, mu) if swap else key] = c * _HALF_POWERS[(n, e)] if e else c
    return AlgebraElement._make(n, out)


def delta_power(a: AlgebraElement, z) -> AlgebraElement:
    """Delta^z: scale each term by n^(z(|nu|-|mu|)).  z must lie in (1/2)Z
    (an int, or a Fraction with denominator 1 or 2), where the scale stays
    in Q(sqrt n); any other z raises BackendError."""
    if isinstance(z, Fraction) and z.denominator <= 2:
        return _rescaled(a, -z.numerator * (2 // z.denominator), False)
    if not isinstance(z, int):
        raise BackendError(f"Delta^z needs z in (1/2)Z, got {z}")
    return _rescaled(a, -2 * z, False)


def modular_conjugation_J(a: AlgebraElement) -> AlgebraElement:
    """J: conjugate-linear, J(S_mu S_nu^*) = n^((1/2)(|mu|-|nu|)) S_nu S_mu^*."""
    return _rescaled(a, 1, True)


def tomita_S(a: AlgebraElement) -> AlgebraElement:
    """The involution a -> a* as an operator on the GNS dense subspace."""
    return adjoint(a)


def tomita_F(a: AlgebraElement) -> AlgebraElement:
    """The conjugate-linear adjoint of tomita_S:
    F(S_mu S_nu^*) = n^(|mu|-|nu|) S_nu S_mu^*."""
    return _rescaled(a, 2, True)


def sigma(a: AlgebraElement) -> AlgebraElement:
    """The distinguished regular automorphism sigma = Delta^(-1); scales a
    degree-d term by n^d."""
    return delta_power(a, -1)


# -- named invariant sweeps ----------------------------------------------------


def kms_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of kms_sweep: one case per ordered pair of monomials."""
    cases = word_count(n, max_len) ** 4
    return cases, cases


@sweep("kms")
def kms_sweep(n: int, max_len: int):
    """psi(ab) == psi(sigma(b) a) exactly, over all monomial pairs with leg
    lengths up to max_len.  sigma(b) is formed once per monomial, and each
    side is read from its own table: psi(a b) from the table of monos
    against monos, psi(sigma(b) a) from that of the sigma images against
    monos, transposed once.  Each a is one ``tally.sweep`` block of one
    row: row a of the first table against column a of the second, case j
    being b = monos[j]."""
    monos = monomials_upto(n, max_len)
    ab = _psi_table(monos, monos)
    ba = _psi_table([sigma(b) for b in monos], monos)  # ba[j][i] = psi(sigma(b_j) a_i)
    for a, lhs, rhs in zip(monos, ab, map(list, zip(*ba))):
        yield [(lhs, rhs)], lambda j, t: f"a={a!r} b={monos[j]!r} psi(ab)={lhs[j]} psi(sigma(b)a)={rhs[j]}"


def tomita_plan(n: int, max_len: int) -> tuple[int, int]:
    """(cases, work) of tomita_sweep: 7 cases per monomial, 6 per ordered pair."""
    monos = word_count(n, max_len) ** 2
    cases = 7 * monos + 6 * monos**2
    return cases, cases


@sweep("tomita")
def tomita_sweep(n: int, max_len: int):
    """The Tomita-algebra identities over monomials up to max_len: the
    involution intertwines the modular powers, the modular powers are
    symmetric for the pairing, F is adjoint to S, and the polar
    decompositions S = J Delta^(1/2), F = Delta^(1/2) J hold termwise.

    Delta^z a for the four z, F a and S a are formed once per monomial and
    shared by the single-element checks; each pairing of the pair checks is
    read from a table of the images against the monomials, one table per
    side of each identity.  <x, y> = psi(x* y) is the starred table.  Each
    a yields one ``tally.sweep`` block of its seven single-element
    identities, a row of booleans against [True] * 7; then each a yields
    one block of the six pair identities' rows over all b, whose failures
    the runner labels by b, then by identity.  Each identity's label is a
    format string."""
    from .algebra import equals

    monos = monomials_upto(n, max_len)
    half = Fraction(1, 2)
    zs = [Fraction(-1), Fraction(-1, 2), half, Fraction(1)]
    # (a, [Delta^z a for z in zs], F a, S a) for each monomial a; a list in
    # zs order rather than a dict, since a Fraction key is hashed per lookup
    maps = [(a, [delta_power(a, z) for z in zs], tomita_F(a), tomita_S(a)) for a in monos]
    singles = [f"S/Delta^z intertwining a={{a!r}} z={z}" for z in zs] + [
        "polar S a={a!r}", "polar F a={a!r}", "J^2 a={a!r}"]
    holds = [True] * len(singles)
    for a, a_z, f_a, s_a in maps:
        # S(Delta^z a) = Delta^(-conj z)(S a), z real here; a_z[2] = Delta^(1/2) a
        row = [equals(tomita_S(dz_a), delta_power(s_a, -z)) for z, dz_a in zip(zs, a_z)] + [
            equals(s_a, modular_conjugation_J(a_z[2])),
            equals(f_a, delta_power(modular_conjugation_J(a), half)),
            equals(modular_conjugation_J(modular_conjugation_J(a)), a)]
        yield [(row, holds)], lambda j, t: singles[j].format(a=a)
    dz_monos = [[a_z[k] for _, a_z, _, _ in maps] for k in range(len(zs))]  # Delta^z monos per z
    f_monos = [f_a for _, _, f_a, _ in maps]
    s_monos = [s_a for _, _, _, s_a in maps]
    # (<Delta^z a, b>, <a, Delta^z b>) per z
    z_sides = [(_psi_table(dz, monos, star=True), _psi_table(monos, dz, star=True)) for dz in dz_monos]
    fs = _psi_table(f_monos, s_monos, star=True)  # fs[i][j] = <F a_i, S b_j>
    sa = _psi_table(s_monos, monos, star=True)  # sa[i][j] = <S a_i, b_j>
    # the right sides, each transposed once: ba[i][j] = <b_j, a_i>, fb[i][j] = <F b_j, a_i>
    ba, fb = (list(map(list, zip(*_psi_table(lefts, monos, star=True)))) for lefts in (monos, f_monos))
    pairs = [f"Delta^z pairing symmetry a={{a!r}} b={{b!r}} z={z}" for z in zs] + [
        "F/S exchange a={a!r} b={b!r}", "F adjoint to S a={a!r} b={b!r}"]
    for i, a in enumerate(monos):
        # the six (lhs, rhs) rows over b: <Delta^z a, b> = <a, Delta^(conj z) b> for
        # the four z, <F a, S b> = <b, a> and <S a, b> = <F b, a>
        rows = [(lhs[i], rhs[i]) for lhs, rhs in z_sides] + [(fs[i], ba[i]), (sa[i], fb[i])]
        yield rows, lambda j, t: pairs[t].format(a=a, b=monos[j])
