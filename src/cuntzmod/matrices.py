"""Matrices over the monomial algebra and the modular unitary machinery.

A unitary U over the algebra is *modular* when both U sigma(U^*) and
U^* sigma(U) are matrices over the fixed-point algebra F (sigma acts
entrywise).  Membership in F is decided exactly: the non-degree-0 part of
an entry must be zero under semantic equality.  The canonical modular
unitaries are

    u_{mu,nu} = [[1 - P_mu,      S_mu S_nu^*],
                 [S_nu S_mu^*,   1 - P_nu   ]]

and, for a partial isometry v with range/source projections over F and
v sigma(v^*), v^* sigma(v) over F,

    u_v = [[1 - v^* v,  v^*     ],
           [v,          1 - v v^*]].

One function, ``modular_certificate``, decides both conditions and returns
the unitarity defect and the modular defect (the largest coefficient of
U U^* - I, U^* U - I and of the Phi-complements of U sigma(U^*) and
U^* sigma(U), in canonical form).  The four residues come from single
passes over term pairs: ``_pair_pass(A, B)`` matches each term pair of
A @ B once and returns A B - I (each diagonal map starts from -1 on the
unit key), the off-degree part of A sigma(B) (sigma only rescales a
degree-d term of B by n^d, and a pair's degree is the sum of its terms'
degrees, so the degree-0 part is never accumulated) and the sum of psi
over the diagonal of A [D, B] ([D, .] rescales by d).  Over
U @ U^* that sum is the spectral flow, so ``flow.spectral_flow`` certifies
and computes in one walk; the pass over U^* @ U runs only when U is not
self-adjoint.

Homotopies of modular unitaries are verified by sampling a parametrised
path at the rational points t = i/(samples - 1) and certifying each sample
exactly: a sample passes only when both defects are exactly 0.  The paths
stay exact because every rotation is taken at a rational point of the
circle, and a complex phase is carried by the realification
A + iB -> [[A, -B], [B, A]].  A sampled check evidences continuity, it does
not prove it; failures between grid points are invisible by construction.
Its control, a built and certified product of modular unitaries that is
not modular, must fail as a constant path checked at its two endpoints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .algebra import (
    AlgebraElement,
    _add_into,
    _disjoint_terms,
    adjoint,
    equals,
    monomial,
    multiply,
    one,
    projection,
    zero,
)
from .errors import DomainError, UsageError
from .modular import delta_power
from .scalars import QSqrt, n_power


class AlgMatrix:
    """A square matrix of algebra elements sharing one context.

    Immutable by convention; operations return new matrices.
    """

    __slots__ = ("n", "k", "rows")

    def __init__(self, rows: Iterable[Iterable[AlgebraElement]]):
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise UsageError("AlgMatrix needs a nonempty square array of entries")
        first = rows[0][0]
        for r in rows:
            for x in r:
                first._check_mate(x)
        self.rows = rows
        self.k = len(rows)
        self.n = first.n

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, n: int, rows: list[list[AlgebraElement]]) -> "AlgMatrix":
        obj = object.__new__(cls)
        obj.n = n
        obj.k = len(rows)
        obj.rows = rows
        return obj

    @classmethod
    def identity(cls, n: int, k: int) -> "AlgMatrix":
        return cls([[one(n) if i == j else zero(n) for j in range(k)] for i in range(k)])

    @classmethod
    def single(cls, a: AlgebraElement) -> "AlgMatrix":
        return cls([[a]])

    # -- arithmetic -----------------------------------------------------------

    def _check_shape(self, other: "AlgMatrix"):
        if self.k != other.k:
            raise UsageError(f"matrix shapes {self.k} and {other.k} do not match")
        self.rows[0][0]._check_mate(other.rows[0][0])

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check_shape(other)
        from .algebra import _multiply_into

        k = self.k
        brows = other.rows
        out = []
        for i in range(k):
            arow = self.rows[i]
            row = []
            for j in range(k):
                acc: dict = {}
                for l in range(k):
                    _multiply_into(acc, arow[l].terms, brows[l][j].terms)
                row.append(AlgebraElement._make(self.n, acc))
            out.append(row)
        return AlgMatrix._make(self.n, out)

    def __sub__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check_shape(other)
        return AlgMatrix._make(
            self.n,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def adjoint(self) -> "AlgMatrix":
        k = self.k
        return AlgMatrix._make(
            self.n, [[adjoint(self.rows[j][i]) for j in range(k)] for i in range(k)]
        )

    def direct_sum(self, other: "AlgMatrix") -> "AlgMatrix":
        self.rows[0][0]._check_mate(other.rows[0][0])
        k1, k2 = self.k, other.k
        z = zero(self.n)
        out = [[self.rows[i][j] if j < k1 else z for j in range(k1 + k2)] for i in range(k1)]
        out += [[z if j < k1 else other.rows[i][j - k1] for j in range(k1 + k2)] for i in range(k2)]
        return AlgMatrix._make(self.n, out)

    def __eq__(self, other) -> bool:
        """Structural equality of entries (term maps)."""
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"AlgMatrix(n={self.n}, k={self.k})"


# -- unitarity and the modular condition --------------------------------------


def in_fixed_algebra(x: AlgebraElement) -> bool:
    """x lies in F_c: its non-degree-0 part is zero, i.e. nothing survives
    when its terms are rewritten over disjoint cones (no expansion, so no
    term budget and no depth limit)."""
    return not _disjoint_terms({key: c for key, c in x.terms.items() if len(key[0]) != len(key[1])}, x.n)


_UNIT_KEY = ((), ())


def apply_sigma(u: AlgMatrix) -> AlgMatrix:
    """Entrywise sigma = Delta^(-1), i.e. sigma tensor Id_k."""
    return AlgMatrix._make(u.n, [[delta_power(x, -1) for x in row] for row in u.rows])


def _largest_coefficient(residues: list[dict], n: int) -> QSqrt:
    """Largest coefficient magnitude over the canonical forms of the
    residue term maps, as an exact QSqrt: zero iff every residue vanishes.
    The disjoint-cone terms carry exactly the canonical form's
    coefficients, without its expansion."""
    best, best_abs = None, 0.0
    for terms in residues:
        for c in _disjoint_terms(terms, n).values():
            mag = abs(float(c))
            if mag > best_abs:
                best, best_abs = c, mag
    return QSqrt.zero(n) if best is None else best.abs_exact()


def _pair_pass(a: AlgMatrix, b: AlgMatrix) -> tuple:
    """(A B - I, the off-degree part of A sigma(B),
    sum_i psi((A [D, B])_ii)) from one match of the term pairs of A @ B.

    The products come back as k x k lists of term maps, each diagonal map of
    A B seeded with -1 on the unit key, so the first list is the unitarity
    residue itself.  A matched pair of a degree-da term of A and a
    degree-db term of B lands on a key of degree da + db, and every pair
    feeds A B.  sigma scales a degree-d term of B by n^d, so each term of B
    carries db, cb, cb n^db and cb db, and a pair with da + db != 0 feeds
    the sigma map; the degree-0 keys of A sigma(B), which the certificate
    never reads, are not accumulated.  A degree-0 pair on a diagonal entry
    feeds the flow instead: [D, .] scales a term of B by db, and psi is
    linear and keeps only the S_mu S_mu^* terms, weighted n^-|mu|, so the
    flow adds ca (cb db) n^-|mu| for each such key and A [D, B] is never
    formed.
    """
    n, k = a.n, a.k
    prepared = []  # per entry of B: (al, be, |al|, db, cb, cb n^db, cb db)
    for row in b.rows:
        out_row = []
        for x in row:
            terms = []
            for (al, be), cb in x.terms.items():
                d = len(al) - len(be)
                if d:  # cb n^d, the coefficient of delta_power(., -1)
                    terms.append((al, be, len(al), d, cb, cb * n_power(n, d), cb * d))
                else:
                    terms.append((al, be, len(al), 0, cb, cb, None))
            out_row.append(terms)
        prepared.append(out_row)
    flow = QSqrt.zero(n)
    minus_one = -QSqrt.one(n)
    products, sigma_products = [], []
    for i in range(k):
        arow = a.rows[i]
        p_row, q_row = [], []
        for j in range(k):
            diagonal = i == j
            p: dict = {_UNIT_KEY: minus_one} if diagonal else {}
            q: dict = {}
            for l in range(k):
                bterms = prepared[l][j]
                if not bterms:
                    continue
                for (mu, nu), ca in arow[l].terms.items():
                    ln_nu = len(nu)
                    da = len(mu) - ln_nu
                    for al, be, ln_al, db, cb, cb_sigma, cb_d in bterms:
                        # the path-matching rule of the algebra module docstring
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
                        v = p.get(key)
                        s = c if v is None else v + c
                        if s.na == 0 and s.nb == 0:
                            p.pop(key, None)
                        else:
                            p[key] = s
                        if da + db:
                            s = ca * cb_sigma if db else c
                            v = q.get(key)
                            if v is not None:
                                s = v + s
                            if s.na == 0 and s.nb == 0:
                                q.pop(key, None)
                            else:
                                q[key] = s
                        elif diagonal and db and key[0] == key[1]:
                            flow = flow + ca * cb_d * n_power(n, -len(key[0]))
            p_row.append(p)
            q_row.append(q)
        products.append(p_row)
        sigma_products.append(q_row)
    return products, sigma_products, flow


def _certify(u: AlgMatrix) -> tuple:
    """(unitarity_defect, modular_defect, sum_i psi((U [D, U^*])_ii)): the
    certificate and the spectral-flow sum from the same pair passes, whose
    maps are the residues: U U^* - I (and U^* U - I) and the off-degree
    parts of U sigma(U^*) (and U^* sigma(U))."""
    u_star = u.adjoint()
    unit, modular, flow = _pair_pass(u, u_star)
    if u != u_star:
        unit_star, modular_star, _ = _pair_pass(u_star, u)
        unit += unit_star
        modular += modular_star
    return (
        _largest_coefficient([t for row in unit for t in row if t], u.n),
        _largest_coefficient([t for row in modular for t in row if t], u.n),
        flow,
    )


def modular_certificate(u: AlgMatrix) -> tuple:
    """(unitarity_defect, modular_defect) of U.

    The unitarity defect is the largest coefficient of U U^* - I and
    U^* U - I, the modular defect the largest coefficient of the
    Phi-complements of U sigma(U^*) and U^* sigma(U), all in canonical form.
    Each is an exact QSqrt, zero iff the condition holds.

    One pass over the term pairs of U @ U^* returns U U^* - I and the
    off-degree part of U sigma(U^*) (see ``_pair_pass``); a second pass,
    over U^* @ U, returns U^* U - I and the off-degree part of
    U^* sigma(U) and runs only when U is not self-adjoint.  Empty residues
    are never scanned.
    """
    unitarity, modular, _ = _certify(u)
    return unitarity, modular


def is_modular_unitary(u: AlgMatrix) -> bool:
    """U is unitary and U sigma(U^*), U^* sigma(U) are matrices over F."""
    unitarity, modular = modular_certificate(u)
    return unitarity == 0 and modular == 0


# -- canonical modular unitaries -----------------------------------------------


def build_u_mu_nu(n: int, mu: Iterable[int], nu: Iterable[int]) -> AlgMatrix:
    """The self-adjoint modular unitary attached to a pair of paths."""
    from .algebra import check_word

    mu = check_word(n, mu)
    nu = check_word(n, nu)
    unit = QSqrt.one(n)
    minus = -unit

    def complement(w):  # 1 - P_w, with 1 - P_empty = 0
        if not w:
            return AlgebraElement._make(n, {})
        return AlgebraElement._make(n, {_UNIT_KEY: unit, (w, w): minus})

    return AlgMatrix._make(
        n,
        [
            [complement(mu), AlgebraElement._make(n, {(mu, nu): unit})],
            [AlgebraElement._make(n, {(nu, mu): unit}), complement(nu)],
        ],
    )


def build_u_v(v: AlgebraElement) -> AlgMatrix:
    """The modular unitary of a partial isometry with range and source over
    F; every precondition is checked and named on failure.  v^* v and v v^*
    are self-adjoint by construction, so only idempotence is tested."""
    n = v.n
    v_star = adjoint(v)
    source = multiply(v_star, v)  # v^* v
    rng = multiply(v, v_star)  # v v^*
    for name, p in (("v*v", source), ("vv*", rng)):
        if not in_fixed_algebra(p):
            raise DomainError(f"{name} is not over the fixed-point algebra")
        if not equals(multiply(p, p), p):
            raise DomainError(f"{name} is not a projection")
    sig_v = delta_power(v, -1)
    sig_v_star = delta_power(v_star, -1)
    if not in_fixed_algebra(multiply(v, sig_v_star)):
        raise DomainError("v sigma(v*) is not over the fixed-point algebra")
    if not in_fixed_algebra(multiply(v_star, sig_v)):
        raise DomainError("v* sigma(v) is not over the fixed-point algebra")
    ident = one(n)
    return AlgMatrix([[ident - source, v_star], [v, ident - rng]])


# -- homotopy machinery ---------------------------------------------------------


def homotopy_path_check(path: Callable[[Fraction], AlgMatrix], samples: int = 21) -> dict:
    """Sample a path of matrices at the exact points t = i/(samples - 1) of
    [0, 1] and certify each sample; it passes only when both defects are
    exactly 0.  The report gives t and the defects as floats.  A test pins
    each piece of the suite's paths at degree <= 4 in s after the factor
    (1 + s^2)^2, at n = 2 and 3; the junction at t = 1/2 is not checked."""
    if samples < 2:
        raise UsageError("need at least two samples")
    report = []
    for i in range(samples):
        t = Fraction(i, samples - 1)
        unitarity, modular = modular_certificate(path(t))
        report.append({
            "t": float(t),
            "unitarity_defect": float(unitarity),
            "modular_defect": float(modular),
            "ok": unitarity.is_zero and modular.is_zero,
        })
    return {"passed": all(sample["ok"] for sample in report), "samples": report}


def _circle_point(s: Fraction) -> tuple[Fraction, Fraction]:
    """(cos, sin) of the angle 2 arctan s, exactly: ((1 - s^2), 2s) / (1 + s^2)."""
    q = 1 + s * s
    return Fraction(1 - s * s, q), Fraction(2 * s, q)


def _rotation_block(n: int, k: int, s: Fraction) -> AlgMatrix:
    """[[cos I_k, sin I_k], [-sin I_k, cos I_k]] at the rational circle point
    of s (see ``_circle_point``), built entry by entry: cos on the diagonal,
    sin where column - row = k, -sin where it is -k, zero elsewhere.  s runs
    over [0, 1] for a quarter turn."""
    cos, sin = _circle_point(s)
    entry = {0: cos, k: sin, -k: -sin}
    return AlgMatrix([[monomial(n, (), (), entry.get(j - i, 0)) for j in range(2 * k)] for i in range(2 * k)])


def _realify(re: AlgMatrix, im: AlgMatrix) -> AlgMatrix:
    """A + iB as the real matrix [[A, -B], [B, A]].  The map is injective and
    keeps products, adjoints, sigma (a real weight) and membership of F, so
    the image is a modular unitary exactly when A + iB is one."""
    minus_im = [[-x for x in row] for row in im.rows]
    rows = [a + b for a, b in zip(re.rows, minus_im)] + [b + a for b, a in zip(im.rows, re.rows)]
    return AlgMatrix._make(re.n, rows)


def rotation_direct_sum_path(u: AlgMatrix, v: AlgMatrix) -> Callable[[Fraction], AlgMatrix]:
    """R_t (u (+) v) R_t^*: the rotation trick carrying u (+) v to v (+) u."""
    u._check_shape(v)
    block = u.direct_sum(v)
    k = u.k

    def path(t: Fraction) -> AlgMatrix:
        r = _rotation_block(u.n, k, t)
        return r @ block @ r.adjoint()

    return path


def swap_two_stage_path(n: int, mu: Iterable[int], nu: Iterable[int]) -> Callable[[Fraction], AlgMatrix]:
    """The two-stage modular homotopy from u_{mu,nu} to u_{nu,mu}, realified
    (see ``_realify``): rotation conjugation on [0, 1/2], reaching a quarter
    turn at t = 1/2, then the phase e^(i theta) = (cos + i sin)^2 at the
    circle point of s = 2 - 2t on [1/2, 1], which unwinds from -1 to 1 on
    the off-diagonal entries S_nu S_mu^* (and its conjugate on S_mu S_nu^*)."""
    base = build_u_mu_nu(n, mu, nu)
    (comp_nu, up), (down, comp_mu) = build_u_mu_nu(n, nu, mu).rows
    empty = zero(n)

    def path(t: Fraction) -> AlgMatrix:
        if t <= Fraction(1, 2):
            r = _rotation_block(n, 1, 2 * t)
            x = r @ base @ r.adjoint()
            return x.direct_sum(x)  # realify(X) for a real X
        cos, sin = _circle_point(2 - 2 * t)
        re, im = cos * cos - sin * sin, 2 * cos * sin
        return _realify(
            AlgMatrix._make(n, [[comp_nu, up.scale(re)], [down.scale(re), comp_mu]]),
            AlgMatrix._make(n, [[empty, up.scale(im)], [down.scale(-im), empty]]),
        )

    return path


def whitehead_path(u: AlgMatrix) -> Callable[[Fraction], AlgMatrix]:
    """(u (+) 1) R_t (1 (+) u^*) R_t^*: the standard contraction of
    u (+) u^* to the identity; stays over F when u is over F."""
    k = u.k
    ident = AlgMatrix.identity(u.n, k)
    left = u.direct_sum(ident)
    inner = ident.direct_sum(u.adjoint())

    def path(t: Fraction) -> AlgMatrix:
        r = _rotation_block(u.n, k, t)
        return left @ r @ inner @ r.adjoint()

    return path


def constant_path(u: AlgMatrix) -> Callable[[Fraction], AlgMatrix]:
    return lambda t: u


def branch_shift_unitary(n: int) -> AlgebraElement:
    """A mixed-degree unitary permuting complete branch families of the
    word tree: {11, ..., 1n, 2} -> {1, 21, ..., 2n} via 11 -> 1, 1j -> 2j,
    2 -> 21 (identity on letters > 2).  Its gauge degrees are {-1, 0, +1},
    yet it is modular: u sigma(u^*) is a positive combination of branch
    projections."""
    u = monomial(n, (1,), (1, 1))
    for x in [monomial(n, (2, 1), (2,)), sum_rest_projections(n)] + [monomial(n, (2, j), (1, j)) for j in range(2, n + 1)]:
        _add_into(u.terms, x.terms)
    return u


def cartan_rotation(n: int, cos_val, sin_val) -> AlgebraElement:
    """cos * (P_1 + P_2) + sin * (S_1 S_2^* - S_2 S_1^*) + sum_{j>2} P_j, a
    unitary over F; exact whenever (cos, sin) is a rational point on the
    circle (e.g. 3/5, 4/5)."""
    c = Fraction(cos_val)
    s = Fraction(sin_val)
    if c * c + s * s != 1:
        raise UsageError(f"({c}, {s}) is not on the unit circle")
    return (
        (projection(n, (1,)) + projection(n, (2,))).scale(c)
        + (monomial(n, (1,), (2,)) - monomial(n, (2,), (1,))).scale(s)
        + sum_rest_projections(n)
    )


def find_nonmodular_product_witness(n: int) -> dict | None:
    """The witness of ``_nonmodular_witness``, without its product."""
    return _nonmodular_witness(n)[0]


def _nonmodular_witness(n: int) -> tuple[dict | None, AlgMatrix]:
    """A concrete pair of modular unitaries whose product is unitary but
    fails the modular condition, with an exact defect certificate, and
    their product as a 1 x 1 matrix; the pair is None if a check fails.

    Pairs drawn from the monomial families alone (u_{mu,nu}, u_v, branch
    permutations) never witness the failure: their modular products are
    combinations of branch projections, and for any such combination g the
    corner identities (1-P_mu) S_mu = 0 and S_nu^* (1-P_nu) = 0 make
    u g sigma(u^*) land in F again.  The pair is therefore the branch shift
    and its conjugate under an exact rational rotation over F, which moves
    the sandwiched element off the branch diagonal and exposes the failure;
    three certificates check both factors and the product.
    """
    from .expr import render

    left = AlgMatrix.single(branch_shift_unitary(n))
    rot = AlgMatrix.single(cartan_rotation(n, Fraction(3, 5), Fraction(4, 5)))
    right = rot @ left @ rot.adjoint()
    product = left @ right
    unitarity, defect = modular_certificate(product)
    if not (is_modular_unitary(left) and is_modular_unitary(right) and unitarity.is_zero and not defect.is_zero):
        return None, product
    return {
        "left": "branch_shift",
        "right": "rotated_branch_shift",
        "left_expr": render(left.rows[0][0]),
        "right_expr": render(right.rows[0][0]),
        "defect": str(defect),
        "defect_float": float(defect),
    }, product


def homotopy_plan(n: int, samples: int = 21) -> tuple[int, int]:
    """(cases, work) of homotopy_sweep: four paths, n^2 a sample; an upper bound (see README)."""
    return 4, 4 * samples * n * n


def homotopy_sweep(n: int, samples: int = 21) -> dict:
    """The named homotopy suite: the rotation path, the two-stage swap path
    and the Whitehead contraction over F, and the non-closure witness pair,
    whose product as a constant path must fail at its two endpoints."""
    u = build_u_mu_nu(n, (1, 1), (2,))
    v = build_u_mu_nu(n, (1,), (2,))
    over_f = AlgMatrix.single(monomial(n, (1,), (2,)) + monomial(n, (2,), (1,)) + sum_rest_projections(n))
    paths = {
        "rotation": rotation_direct_sum_path(u, v),
        "two_stage": swap_two_stage_path(n, (1, 1), (2,)),
        "whitehead": whitehead_path(over_f),
    }
    passed = [homotopy_path_check(path, samples)["passed"] for path in paths.values()]
    details = dict(zip(paths, passed))

    witness, product = _nonmodular_witness(n)
    details["nonmodular_witness"] = witness
    passed.append(witness is not None and not homotopy_path_check(constant_path(product), 2)["passed"])
    return {"check": "homotopy", "n": n, "cases": len(passed), "failures": passed.count(False), "details": details}


def sum_rest_projections(n: int) -> AlgebraElement:
    """sum_{j>2} P_j, padding a two-letter swap to a unitary over F."""
    acc = zero(n)
    for j in range(3, n + 1):
        _add_into(acc.terms, projection(n, (j,)).terms)
    return acc
