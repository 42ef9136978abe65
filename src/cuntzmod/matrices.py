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
U^* sigma(U), in canonical form).  The four products come from single
passes over term pairs: ``_pair_pass(A, B)`` matches each term pair of
A @ B once and feeds the match to A B and to A sigma(B), since sigma
only rescales a degree-d term of B by n^d.  The pass over U @ U^* also
sums psi over the diagonal of U [D, U^*] ([D, .] rescales by d), which is
the spectral flow, so ``flow.spectral_flow`` certifies and computes in
one walk; the pass over U^* @ U runs only when U is not self-adjoint.

Homotopies of modular unitaries are verified by sampling a parametrised
path on a finite grid and reporting both defects per sample.  A sampled
check evidences continuity, it does not prove it; failures between grid
points are invisible by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import (
    AlgebraElement,
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
from .scalars import QSqrt, n_power, n_power_numeric, scalar_abs


class AlgMatrix:
    """A square matrix of algebra elements sharing one context.

    Immutable by convention; operations return new matrices.
    """

    __slots__ = ("n", "exact", "k", "rows")

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
        self.exact = first.exact

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, n: int, exact: bool, rows: list[list[AlgebraElement]]) -> "AlgMatrix":
        obj = object.__new__(cls)
        obj.n = n
        obj.exact = exact
        obj.k = len(rows)
        obj.rows = rows
        return obj

    @classmethod
    def identity(cls, n: int, k: int, exact: bool = True) -> "AlgMatrix":
        return cls(
            [[one(n, exact) if i == j else zero(n, exact) for j in range(k)] for i in range(k)]
        )

    @classmethod
    def from_scalars(cls, n: int, entries, exact: bool = False) -> "AlgMatrix":
        """Matrix with constant entries c*1 from a square array of numbers."""
        return cls([[one(n, exact).scale(c) for c in row] for row in entries])

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
        exact = self.exact
        brows = other.rows
        out = []
        for i in range(k):
            arow = self.rows[i]
            row = []
            for j in range(k):
                acc: dict = {}
                for l in range(k):
                    _multiply_into(acc, arow[l].terms, brows[l][j].terms, exact)
                row.append(AlgebraElement._make(self.n, exact, acc))
            out.append(row)
        return AlgMatrix._make(self.n, self.exact, out)

    def __add__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check_shape(other)
        return AlgMatrix._make(
            self.n,
            self.exact,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check_shape(other)
        return AlgMatrix._make(
            self.n,
            self.exact,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def scale(self, c) -> "AlgMatrix":
        return AlgMatrix._make(self.n, self.exact, [[x.scale(c) for x in row] for row in self.rows])

    def adjoint(self) -> "AlgMatrix":
        k = self.k
        return AlgMatrix._make(
            self.n, self.exact, [[adjoint(self.rows[j][i]) for j in range(k)] for i in range(k)]
        )

    def direct_sum(self, other: "AlgMatrix") -> "AlgMatrix":
        self.rows[0][0]._check_mate(other.rows[0][0])
        k1, k2 = self.k, other.k
        z = zero(self.n, self.exact)
        out = [[self.rows[i][j] if j < k1 else z for j in range(k1 + k2)] for i in range(k1)]
        out += [[z if j < k1 else other.rows[i][j - k1] for j in range(k1 + k2)] for i in range(k2)]
        return AlgMatrix._make(self.n, self.exact, out)

    def map_entries(self, fn: Callable[[AlgebraElement], AlgebraElement]) -> "AlgMatrix":
        # the function may change the backend, so re-derive the context
        return AlgMatrix([[fn(x) for x in row] for row in self.rows])

    def to_numeric(self) -> "AlgMatrix":
        return AlgMatrix._make(
            self.n, False, [[x.to_numeric() for x in row] for row in self.rows]
        )

    def as_strings(self) -> list[list[str]]:
        """Entries rendered in the element grammar (the wire format for
        matrices: a JSON array of arrays of these strings)."""
        from .expr import render

        return [[render(x) for x in row] for row in self.rows]

    @classmethod
    def from_strings(cls, n: int, rows: list[list[str]]) -> "AlgMatrix":
        from .expr import parse

        return cls([[parse(text, n) for text in row] for row in rows])

    def __eq__(self, other) -> bool:
        """Structural equality of entries (term maps)."""
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return self.k == other.k and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self):
        return f"AlgMatrix(n={self.n}, k={self.k}, {'exact' if self.exact else 'numeric'})"


# -- unitarity and the modular condition --------------------------------------


def _off_degree_part(x: AlgebraElement) -> AlgebraElement:
    out = {key: c for key, c in x.terms.items() if len(key[0]) != len(key[1])}
    return AlgebraElement._make(x.n, x.exact, out)


def in_fixed_algebra(x: AlgebraElement) -> bool:
    """x lies in F_c: its non-degree-0 part is zero, i.e. nothing survives
    when its terms are rewritten over disjoint cones (no expansion, so no
    term budget and no depth limit)."""
    return not _disjoint_terms(_off_degree_part(x).terms, x.n)


_UNIT_KEY = ((), ())


def apply_sigma(u: AlgMatrix) -> AlgMatrix:
    """Entrywise sigma = Delta^(-1), i.e. sigma tensor Id_k."""
    return AlgMatrix._make(
        u.n, u.exact, [[delta_power(x, -1) for x in row] for row in u.rows]
    )


def _largest_coefficient(residues: list[AlgebraElement], u: AlgMatrix):
    """Largest coefficient magnitude over the canonical forms of the
    residues: an exact QSqrt (zero iff every residue vanishes) on the exact
    backend, a float on the numeric one.  The disjoint-cone terms carry
    exactly the canonical form's coefficients, without its expansion."""
    best, best_abs = None, 0.0
    for x in residues:
        for c in _disjoint_terms(x.terms, x.n).values():
            mag = scalar_abs(c)
            if mag > best_abs:
                best, best_abs = c, mag
    if not u.exact:
        return best_abs
    return QSqrt.zero(u.n) if best is None else best.abs_exact()


def _pair_pass(a: AlgMatrix, b: AlgMatrix) -> tuple:
    """(A B, A sigma(B), sum_i psi((A [D, B])_ii)) from one match of the
    term pairs of A @ B.

    The products come back as k x k lists of term maps.  sigma scales a
    degree-d term of B by n^d and [D, .] scales it by d, so each term of B
    carries cb, cb n^d and cb d, and every matched pair feeds both products.
    psi is linear and keeps only the S_mu S_mu^* terms, weighted n^-|mu|, so
    the flow adds ca (cb d) n^-|mu| for each such key of a diagonal entry
    and A [D, B] is never formed.  Pairs are visited in the order of
    ``A @ B``, so numeric sums round as they do there.
    """
    n, k, exact = a.n, a.k, a.exact
    prepared = []  # per entry of B: (al, be, |al|, cb, cb n^d, cb d or None)
    for row in b.rows:
        out_row = []
        for x in row:
            terms = []
            for (al, be), cb in x.terms.items():
                d = len(al) - len(be)
                if d:  # the weight of delta_power(., -1), computed the same way
                    w = n_power(n, d) if exact else n_power_numeric(n, complex(-1) * -d)
                    terms.append((al, be, len(al), cb, cb * w, cb * d))
                else:
                    terms.append((al, be, len(al), cb, cb, None))
            out_row.append(terms)
        prepared.append(out_row)
    flow = QSqrt.zero(n) if exact else 0j
    products, sigma_products = [], []
    for i in range(k):
        arow = a.rows[i]
        p_row, q_row = [], []
        for j in range(k):
            p: dict = {}
            q: dict = {}
            diagonal = i == j
            for l in range(k):
                bterms = prepared[l][j]
                if not bterms:
                    continue
                for (mu, nu), ca in arow[l].terms.items():
                    ln_nu = len(nu)
                    for al, be, ln_al, cb, cb_sigma, cb_d in bterms:
                        # the path-matching rule of algebra._multiply_into
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
                        if (s.na == 0 and s.nb == 0) if exact else (s.real == 0.0 and s.imag == 0.0):
                            p.pop(key, None)
                        else:
                            p[key] = s
                        if cb_d is None:  # degree 0: sigma leaves the term alone
                            s = c
                        else:
                            s = ca * cb_sigma
                            if diagonal and key[0] == key[1]:
                                m = -len(key[0])
                                flow = flow + ca * cb_d * (n_power(n, m) if exact else n**m)
                        v = q.get(key)
                        if v is not None:
                            s = v + s
                        if (s.na == 0 and s.nb == 0) if exact else (s.real == 0.0 and s.imag == 0.0):
                            q.pop(key, None)
                        else:
                            q[key] = s
            p_row.append(p)
            q_row.append(q)
        products.append(p_row)
        sigma_products.append(q_row)
    return products, sigma_products, flow


def _certify(u: AlgMatrix) -> tuple:
    """(unitarity_defect, modular_defect, sum_i psi((U [D, U^*])_ii)): the
    certificate and the spectral-flow sum from the same pair passes."""
    n, exact = u.n, u.exact
    u_star = u.adjoint()
    unit, modular, flow = _pair_pass(u, u_star)
    passes = [(unit, modular)]
    if u != u_star:
        unit, modular, _ = _pair_pass(u_star, u)
        passes.append((unit, modular))
    unit_residues = []  # entries of P - I that are not structurally zero
    modular_residues = []  # non-empty Phi-complements
    for unit, modular in passes:
        for i, row in enumerate(unit):
            for j, t in enumerate(row):
                if i != j:
                    if t:
                        unit_residues.append(AlgebraElement._make(n, exact, t))
                elif len(t) != 1 or t.get(_UNIT_KEY) != 1:
                    unit_residues.append(AlgebraElement._make(n, exact, t) - one(n, exact))
        for row in modular:
            for t in row:
                off = _off_degree_part(AlgebraElement._make(n, exact, t))
                if off.terms:
                    modular_residues.append(off)
    return _largest_coefficient(unit_residues, u), _largest_coefficient(modular_residues, u), flow


def modular_certificate(u: AlgMatrix) -> tuple:
    """(unitarity_defect, modular_defect) of U.

    The unitarity defect is the largest coefficient of U U^* - I and
    U^* U - I, the modular defect the largest coefficient of the
    Phi-complements of U sigma(U^*) and U^* sigma(U), all in canonical form.
    Each is an exact QSqrt on the exact backend (zero iff the condition
    holds) and a float on the numeric one.

    One pass over the term pairs of U @ U^* yields both U U^* and
    U sigma(U^*) (see ``_pair_pass``); a second pass, over U^* @ U, yields
    U^* U and U^* sigma(U) and runs only when U is not self-adjoint.
    Entries that are structurally 1 on the diagonal, and off-degree parts
    that are empty, are never scanned.
    """
    unitarity, modular, _ = _certify(u)
    return unitarity, modular


def is_unitary(u: AlgMatrix) -> bool:
    """U U^* == I and U^* U == I under semantic equality."""
    return modular_certificate(u)[0] == 0


def is_modular_unitary(u: AlgMatrix) -> bool:
    """U is unitary and U sigma(U^*), U^* sigma(U) are matrices over F."""
    unitarity, modular = modular_certificate(u)
    return unitarity == 0 and modular == 0


def modular_defect_exact(u: AlgMatrix) -> QSqrt:
    """Exact certificate: the largest offending coefficient (by magnitude)
    in the Phi-complement of the modular products; zero iff the modular
    condition holds."""
    if not u.exact:
        raise UsageError("exact defects need the exact backend")
    return modular_certificate(u)[1]


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
            return AlgebraElement._make(n, True, {})
        return AlgebraElement._make(n, True, {_UNIT_KEY: unit, (w, w): minus})

    return AlgMatrix._make(
        n,
        True,
        [
            [complement(mu), AlgebraElement._make(n, True, {(mu, nu): unit})],
            [AlgebraElement._make(n, True, {(nu, mu): unit}), complement(nu)],
        ],
    )


def build_u_v(v: AlgebraElement) -> AlgMatrix:
    """The modular unitary of a partial isometry with range and source over
    F; every precondition is checked and named on failure."""
    n = v.n
    v_star = adjoint(v)
    source = multiply(v_star, v)  # v^* v
    rng = multiply(v, v_star)  # v v^*
    for name, p in (("v*v", source), ("vv*", rng)):
        if not in_fixed_algebra(p):
            raise DomainError(f"{name} is not over the fixed-point algebra")
        if not equals(multiply(p, p), p):
            raise DomainError(f"{name} is not a projection")
        if not equals(adjoint(p), p):
            raise DomainError(f"{name} is not self-adjoint")
    sig_v = delta_power(v, -1)
    sig_v_star = delta_power(v_star, -1)
    if not in_fixed_algebra(multiply(v, sig_v_star)):
        raise DomainError("v sigma(v*) is not over the fixed-point algebra")
    if not in_fixed_algebra(multiply(v_star, sig_v)):
        raise DomainError("v* sigma(v) is not over the fixed-point algebra")
    ident = one(n, v.exact)
    return AlgMatrix([[ident - source, v_star], [v, ident - rng]])


# -- homotopy machinery ---------------------------------------------------------


def homotopy_path_check(path: Callable[[float], AlgMatrix], samples: int = 21, tolerance: float = 1e-12) -> dict:
    """Sample a path of matrices on a uniform grid over [0, 1] and report
    both defects per sample.  Exact samples must have defect exactly 0;
    numeric samples must stay below the tolerance."""
    if samples < 2:
        raise UsageError("need at least two samples")
    report = []
    passed = True
    for i in range(samples):
        t = i / (samples - 1)
        u = path(t)
        ud, md = (float(d) for d in modular_certificate(u))
        ok = max(ud, md) == 0.0 if u.exact else max(ud, md) < tolerance
        passed = passed and ok
        report.append({"t": t, "unitarity_defect": ud, "modular_defect": md, "ok": ok})
    return {"passed": passed, "tolerance": tolerance, "samples": report}


def _rotation_block(n: int, k: int, theta: float) -> AlgMatrix:
    """[[cos I_k, sin I_k], [-sin I_k, cos I_k]] as a numeric scalar matrix."""
    c, s = math.cos(theta), math.sin(theta)
    cos_rows = AlgMatrix.identity(n, k, exact=False).scale(c).rows
    sin_rows = AlgMatrix.identity(n, k, exact=False).scale(s).rows
    neg_sin_rows = AlgMatrix.identity(n, k, exact=False).scale(-s).rows
    top = [a + b for a, b in zip(cos_rows, sin_rows)]
    bottom = [a + b for a, b in zip(neg_sin_rows, cos_rows)]
    return AlgMatrix(top + bottom)


def rotation_direct_sum_path(u: AlgMatrix, v: AlgMatrix) -> Callable[[float], AlgMatrix]:
    """R_t (u (+) v) R_t^*: the rotation trick carrying u (+) v to v (+) u."""
    u._check_shape(v)
    block = u.to_numeric().direct_sum(v.to_numeric())
    k = u.k

    def path(t: float) -> AlgMatrix:
        r = _rotation_block(u.n, k, t * math.pi / 2)
        return r @ block @ r.adjoint()

    return path


def swap_two_stage_path(n: int, mu: Iterable[int], nu: Iterable[int]) -> Callable[[float], AlgMatrix]:
    """The two-stage modular homotopy from u_{mu,nu} to u_{nu,mu}: rotation
    conjugation on [0, 1/2], then a phase unwinding on [1/2, 1]."""
    mu = tuple(mu)
    nu = tuple(nu)
    base = build_u_mu_nu(n, mu, nu).to_numeric()
    p_mu = projection(n, mu).to_numeric()
    p_nu = projection(n, nu).to_numeric()
    ident = one(n, exact=False)
    up = monomial(n, nu, mu, 1, exact=False)  # S_nu S_mu^*
    down = monomial(n, mu, nu, 1, exact=False)

    def path(t: float) -> AlgMatrix:
        if t <= 0.5:
            theta = math.pi * t  # reaches pi/2 at t = 1/2
            r = _rotation_block(n, 1, theta)
            return r @ base @ r.adjoint()
        theta = math.pi * (2.0 - 2.0 * t)  # from pi back to 0
        phase = complex(math.cos(theta), math.sin(theta))
        return AlgMatrix(
            [
                [ident - p_nu, up.scale(phase)],
                [down.scale(phase.conjugate()), ident - p_mu],
            ]
        )

    return path


def whitehead_path(u: AlgMatrix) -> Callable[[float], AlgMatrix]:
    """(u (+) 1) R_t (1 (+) u^*) R_t^*: the standard contraction of
    u (+) u^* to the identity; stays over F when u is over F."""
    k = u.k
    nm = u.to_numeric()
    ident = AlgMatrix.identity(u.n, k, exact=False)
    left = nm.direct_sum(ident)
    inner = ident.direct_sum(nm.adjoint())

    def path(t: float) -> AlgMatrix:
        r = _rotation_block(u.n, k, t * math.pi / 2)
        return left @ r @ inner @ r.adjoint()

    return path


def constant_path(u: AlgMatrix) -> Callable[[float], AlgMatrix]:
    return lambda t: u


def branch_shift_unitary(n: int) -> AlgebraElement:
    """A mixed-degree unitary permuting complete branch families of the
    word tree: {11, ..., 1n, 2} -> {1, 21, ..., 2n} via 11 -> 1, 1j -> 2j,
    2 -> 21 (identity on letters > 2).  Its gauge degrees are {-1, 0, +1},
    yet it is modular: u sigma(u^*) is a positive combination of branch
    projections."""
    u = monomial(n, (1,), (1, 1)) + monomial(n, (2, 1), (2,)) + sum_rest_projections(n)
    for j in range(2, n + 1):
        u = u + monomial(n, (2, j), (1, j))
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
    """A concrete pair of modular unitaries whose product is unitary but
    fails the modular condition, with an exact defect certificate.

    Pairs drawn from the monomial families alone (u_{mu,nu}, u_v, branch
    permutations) never witness the failure: their modular products are
    combinations of branch projections, and for any such combination g the
    corner identities (1-P_mu) S_mu = 0 and S_nu^* (1-P_nu) = 0 make
    u g sigma(u^*) land in F again.  The candidates are therefore
    branch-permutation unitaries and their conjugates under an exact
    rational rotation over F, which moves the sandwiched element off the
    branch diagonal and exposes the failure.
    """
    from .expr import render

    shift = branch_shift_unitary(n)
    rot = cartan_rotation(n, Fraction(3, 5), Fraction(4, 5))
    candidates: list[tuple[str, AlgebraElement]] = [
        ("branch_shift", shift),
        ("branch_shift*", adjoint(shift)),
        ("rotated_branch_shift", multiply(multiply(rot, shift), adjoint(rot))),
        ("rotated_branch_shift*", multiply(multiply(rot, adjoint(shift)), adjoint(rot))),
    ]
    modular = [(name, el) for name, el in candidates if is_modular_unitary(AlgMatrix.single(el))]
    for left_name, left_el in modular:
        for right_name, right_el in modular:
            defect = modular_defect_exact(AlgMatrix.single(multiply(left_el, right_el)))
            if not defect.is_zero:
                return {
                    "left": left_name,
                    "right": right_name,
                    "left_expr": render(left_el),
                    "right_expr": render(right_el),
                    "defect": str(defect),
                    "defect_float": float(defect),
                }
    return None


def homotopy_sweep(n: int, samples: int = 21) -> dict:
    """The named homotopy suite: the rotation path, the two-stage swap path,
    the Whitehead contraction over F, a constant non-modular path that must
    fail, and the non-closure witness pair."""
    from .expr import parse

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

    witness = details["nonmodular_witness"] = find_nonmodular_product_witness(n)
    ok = witness is not None and witness["defect_float"] > 0
    if ok:
        product = AlgMatrix.single(multiply(parse(witness["left_expr"], n), parse(witness["right_expr"], n)))
        ok = not homotopy_path_check(constant_path(product), samples)["passed"]
    passed.append(ok)
    return {"check": "homotopy", "n": n, "cases": len(passed), "failures": passed.count(False), "details": details}


def sum_rest_projections(n: int) -> AlgebraElement:
    """sum_{j>2} P_j, padding a two-letter swap to a unitary over F."""
    acc = zero(n)
    for j in range(3, n + 1):
        acc = acc + projection(n, (j,))
    return acc
