"""Gauge and modular structure on the monomial algebra.

The circle action scales S_mu S_nu^* by z^(|mu|-|nu|); its degree-k part is
``gauge_component`` and the degree-0 projection ``expectation`` (Phi) lands
in the fixed-point algebra F.  On F the normalised trace is

    trace_F(S_mu S_nu^*) = delta_{mu,nu} * n^(-|mu|)

and psi = trace_F . expectation is the KMS state for the gauge action.  The
generator D multiplies a monomial by its gauge degree, the modular operator
is Delta = n^(-D), and the Tomita data act termwise:

    S(S_mu S_nu^*)       = S_nu S_mu^*
    F(S_mu S_nu^*)       = n^(|mu|-|nu|)       * S_nu S_mu^*
    J(S_mu S_nu^*)       = n^((1/2)(|mu|-|nu|)) * S_nu S_mu^*
    Delta^z(S_mu S_nu^*) = n^(z(|nu|-|mu|))    * S_mu S_nu^*

The distinguished algebraic automorphism sigma = Delta^(-1) (the t = i
point of the modular flow) stays exact; real-t sigma_t is numeric only.
All functions are pure and inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, adjoint, multiply
from .errors import BackendError, DomainError, UsageError
from .scalars import QSqrt, conj_scalar, n_power, n_power_numeric, scalar_is_zero
from .tally import Tally


def gauge_component(a: AlgebraElement, k: int) -> AlgebraElement:
    """Sub-sum of the terms with gauge degree |mu| - |nu| = k."""
    out = {key: c for key, c in a.terms.items() if len(key[0]) - len(key[1]) == k}
    return AlgebraElement._make(a.n, a.exact, out)


def expectation(a: AlgebraElement) -> AlgebraElement:
    """Phi, the conditional expectation onto the fixed-point algebra."""
    return gauge_component(a, 0)


def trace_F(f: AlgebraElement):
    """The normalised trace on F_c; rejects terms of nonzero gauge degree."""
    for mu, nu in f.terms:
        if len(mu) != len(nu):
            raise DomainError(
                f"trace_F needs a gauge-degree-0 element; term S_{mu}S*_{nu} has degree "
                f"{len(mu) - len(nu)}"
            )
    return state_psi(f)


def state_psi(a: AlgebraElement):
    """psi = trace_F . expectation, the gauge-invariant KMS state."""
    n = a.n
    if a.exact:
        acc = QSqrt.zero(n)
        for (mu, nu), c in a.terms.items():
            if mu == nu:
                acc = acc + c * n_power(n, -len(mu))
        return acc
    acc = 0j
    for (mu, nu), c in a.terms.items():
        if mu == nu:
            acc = acc + c * n ** (-len(mu))
    return acc


def inner_product(a: AlgebraElement, b: AlgebraElement):
    """<a, b> = psi(a* b); conjugate-linear in the first slot, linear in the
    second (the convention used throughout this package)."""
    return state_psi(multiply(adjoint(a), b))


def commutator_D(a: AlgebraElement) -> AlgebraElement:
    """[D, a]: termwise multiplication by the gauge degree.  Coincides with
    the vector action of D on a viewed as an element of the module."""
    out = {}
    for key, c in a.terms.items():
        d = len(key[0]) - len(key[1])
        if d:
            out[key] = c * d
    return AlgebraElement._make(a.n, a.exact, out)


def delta_power(a: AlgebraElement, z) -> AlgebraElement:
    """Delta^z: scale each term by n^(z(|nu|-|mu|)).

    Exact backend: z must be a half-integer (int or Fraction with
    denominator 1 or 2).  Numeric backend: any real or complex z.
    """
    n = a.n
    out = {}
    if a.exact:
        if not isinstance(z, (int, Fraction)):
            raise BackendError(
                f"Delta^z on the exact backend needs z in (1/2)Z, got {z!r}; "
                "convert the element with to_numeric() first"
            )
        if isinstance(z, Fraction):
            if z.denominator > 2:
                raise BackendError(f"Delta^z on the exact backend needs z in (1/2)Z, got {z}")
            if z.denominator == 1:
                z = z.numerator  # int exponents hit the cached fast path
        for key, c in a.terms.items():
            d = len(key[1]) - len(key[0])
            out[key] = c * n_power(n, z * d) if d else c
    else:
        zc = complex(z)
        for key, c in a.terms.items():
            d = len(key[1]) - len(key[0])
            out[key] = c * n_power_numeric(n, zc * d) if d else c
    out = {k: v for k, v in out.items() if not scalar_is_zero(v)}
    return AlgebraElement._make(n, a.exact, out)


def modular_conjugation_J(a: AlgebraElement) -> AlgebraElement:
    """J: conjugate-linear, J(S_mu S_nu^*) = n^((1/2)(|mu|-|nu|)) S_nu S_mu^*."""
    n = a.n
    out = {}
    for (mu, nu), c in a.terms.items():
        d = len(mu) - len(nu)
        c = conj_scalar(c)
        if d:
            c = c * (n_power(n, Fraction(d, 2)) if a.exact else n ** (d / 2))
        out[(nu, mu)] = c
    return AlgebraElement._make(n, a.exact, out)


def tomita_S(a: AlgebraElement) -> AlgebraElement:
    """The involution a -> a* as an operator on the GNS dense subspace."""
    return adjoint(a)


def tomita_F(a: AlgebraElement) -> AlgebraElement:
    """The conjugate-linear adjoint of tomita_S:
    F(S_mu S_nu^*) = n^(|mu|-|nu|) S_nu S_mu^*."""
    n = a.n
    out = {}
    for (mu, nu), c in a.terms.items():
        d = len(mu) - len(nu)
        c = conj_scalar(c)
        if d:
            c = c * (n_power(n, d) if a.exact else n ** float(d))
        out[(nu, mu)] = c
    return AlgebraElement._make(n, a.exact, out)


def sigma(a: AlgebraElement) -> AlgebraElement:
    """The distinguished regular automorphism sigma = Delta^(-1); scales a
    degree-d term by n^d.  Exact on the exact backend."""
    return delta_power(a, -1)


def sigma_auto(a: AlgebraElement, t) -> AlgebraElement:
    """The modular flow sigma_t on generators.

    ``t == 1j`` is the distinguished algebraic point and dispatches to the
    exact :func:`sigma`.  Real ``t`` is Delta^(it): it scales a degree-d
    term by e^(-i t d ln n) and returns a numeric-backend element.
    """
    if isinstance(t, complex) and t == 1j:
        return sigma(a)
    if isinstance(t, complex) and t.imag != 0:
        raise UsageError("sigma_auto supports real t or the imaginary unit t=1j")
    return delta_power(a.to_numeric(), 1j * t)


# -- named invariant sweeps ----------------------------------------------------


def _monomials(n: int, max_len: int) -> list[AlgebraElement]:
    from .algebra import monomial, words_upto

    ws = words_upto(n, max_len)
    return [monomial(n, mu, nu) for mu in ws for nu in ws]


def kms_sweep(n: int, max_len: int) -> dict:
    """psi(ab) == psi(sigma(b) a) exactly, over all monomial pairs with leg
    lengths up to max_len."""
    monos = _monomials(n, max_len)
    tally = Tally()
    for a in monos:
        for b in monos:
            lhs = state_psi(multiply(a, b))
            rhs = state_psi(multiply(sigma(b), a))
            tally.check(lhs == rhs, lambda: f"a={a!r} b={b!r} psi(ab)={lhs} psi(sigma(b)a)={rhs}")
    return tally.report("kms", n=n, max_len=max_len)


def tomita_sweep(n: int, max_len: int) -> dict:
    """The Tomita-algebra identities over monomials up to max_len: the
    involution intertwines the modular powers, the modular powers are
    symmetric for the pairing, F is adjoint to S, and the polar
    decompositions S = J Delta^(1/2), F = Delta^(1/2) J hold termwise."""
    from .algebra import equals

    monos = _monomials(n, max_len)
    zs = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    half = Fraction(1, 2)
    tally = Tally()
    for a in monos:
        for z in zs:  # S(Delta^z a) = Delta^(-conj z)(S a); z real here
            tally.check(equals(tomita_S(delta_power(a, z)), delta_power(tomita_S(a), -z)),
                        lambda: f"S/Delta^z intertwining a={a!r} z={z}")
        tally.check(equals(tomita_S(a), modular_conjugation_J(delta_power(a, half))), lambda: f"polar S a={a!r}")
        tally.check(equals(tomita_F(a), delta_power(modular_conjugation_J(a), half)), lambda: f"polar F a={a!r}")
        tally.check(equals(modular_conjugation_J(modular_conjugation_J(a)), a), lambda: f"J^2 a={a!r}")
    for a in monos:
        for b in monos:
            for z in zs:  # <Delta^z a, b> = <a, Delta^(conj z) b>
                tally.check(inner_product(delta_power(a, z), b) == inner_product(a, delta_power(b, z)),
                            lambda: f"Delta^z pairing symmetry a={a!r} b={b!r} z={z}")
            # <F a, S b> = <b, a>
            tally.check(inner_product(tomita_F(a), tomita_S(b)) == inner_product(b, a),
                        lambda: f"F/S exchange a={a!r} b={b!r}")
            # <S a, b> = <F b, a>
            tally.check(inner_product(tomita_S(a), b) == inner_product(tomita_F(b), a),
                        lambda: f"F adjoint to S a={a!r} b={b!r}")
    return tally.report("tomita", n=n, max_len=max_len)
