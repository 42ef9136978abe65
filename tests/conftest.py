import random
from fractions import Fraction

import pytest

from cuntzmod import endos, modular
from cuntzmod.algebra import (
    adjoint, canonical_form, equals, monomial, multiply, one, projection, words, words_upto, zero,
)
from cuntzmod.flow import twisted_theta
from cuntzmod.matrices import AlgMatrix, apply_sigma
from cuntzmod.modular import commutator_D, delta_power, expectation, state_psi
from cuntzmod.scalars import QSqrt, n_power
from cuntzmod.tally import sweep

COEFF_POOL = [
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(3, 4),
    Fraction(-5, 3),
]


def oracle_half_power(n: int, e: int) -> QSqrt:
    """n^(e/2) as |e| products of 1 by sqrt(n), or by its inverse for e < 0:
    what the half-step table of scalars holds, built without n_power or
    the table."""
    root = QSqrt(n, 0, 1)
    step = root if e >= 0 else root.inverse()
    value = QSqrt(n, 1)
    for _ in range(abs(e)):
        value = value * step
    return value


def random_element(rng: random.Random, n: int, max_terms: int = 4, max_len: int = 2, allow_zero: bool = True):
    """A random exact element with small rational coefficients."""
    k = rng.randint(0 if allow_zero else 1, max_terms)
    acc = zero(n)
    for _ in range(k):
        mu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        nu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        acc = acc + monomial(n, mu, nu, rng.choice(COEFF_POOL))
    return acc


def branch_decomposition(n: int, w, deepest=1):
    """sum_j sum_{a != w_j} P_{w_1..w_{j-1} a}, which equals 1 - P_w; the
    branches at depth |w| get ``deepest``.

    This mirrors ``exactbench/workloads.branch_decomposition`` on purpose:
    the package's tests do not import the benchmark's tree, which changes
    only with the benchmark, and this copy builds the sum term by term with
    ``+`` rather than through ``linear_combine``, so it stays independent of
    the code that the equality workload times."""
    acc = zero(n)
    for j, letter in enumerate(w):
        for a in range(1, n + 1):
            if a != letter:
                acc = acc + projection(n, w[:j] + (a,)).scale(deepest if j == len(w) - 1 else 1)
    return acc


def monomial_elements(n: int, max_len: int):
    ws = words_upto(n, max_len)
    return [monomial(n, mu, nu) for mu in ws for nu in ws]


def oracle_certificate(u: AlgMatrix) -> tuple:
    """(unitarity_defect, modular_defect) from the explicit products
    U U^* - I, U^* U - I, U sigma(U^*) and U^* sigma(U): the largest
    canonical-form coefficient of the first two and of the off-degree parts
    of the last two, exact like the engine's certificate."""
    u_star = u.adjoint()
    ident = AlgMatrix.identity(u.n, u.k)
    unit = [x for p in (u @ u_star - ident, u_star @ u - ident) for row in p.rows for x in row]
    modular = [
        x - expectation(x)
        for p in (u @ apply_sigma(u_star), u_star @ apply_sigma(u))
        for row in p.rows
        for x in row
    ]

    def largest(entries):
        coeffs = [c for x in entries for c in canonical_form(x).terms.values()]
        return max((c.abs_exact() for c in coeffs), key=float, default=QSqrt.zero(u.n))

    return largest(unit), largest(modular)


def oracle_flow(u: AlgMatrix):
    """sum_{i,l} psi(u_il [D, u*_li]), with every product built."""
    u_star = u.adjoint()
    total = QSqrt.zero(u.n)
    for i in range(u.k):
        for l in range(u.k):
            total = total + state_psi(multiply(u.rows[i][l], commutator_D(u_star.rows[l][i])))
    return total


def oracle_kernel(u: AlgMatrix) -> QSqrt:
    """k - sum_i psi((sigma(U^*) U)_ii), with sigma(U^*) and the matrix
    product built and psi read off the diagonal by state_psi: what
    flow._corrections reads as one psi walk per entry of U."""
    product = apply_sigma(u.adjoint()) @ u
    total = QSqrt(u.n, u.k)
    for i in range(u.k):
        total = total - state_psi(product.rows[i][i])
    return total


def oracle_psi_product(a, b):
    """psi(a b) with the product built: what modular.psi_product computes
    without forming it."""
    return state_psi(multiply(a, b))


def oracle_b_terms(a0, a1, a2):
    """The three terms theta(a0 a1, a2), theta(a0, a1 a2) and
    theta(sigma(a2) a0, a1) of b theta, with every product and sigma(a2)
    built: what flow.cocycle_b_defect sums, and what flow.cocycle_sweep
    reads from three psi tables."""
    return (
        twisted_theta(multiply(a0, a1), a2),
        twisted_theta(a0, multiply(a1, a2)),
        twisted_theta(multiply(delta_power(a2, -1), a0), a1),
    )


def oracle_lattice_sum(shift: float, expo: float, cfg) -> float:
    """numerics.lattice_sum as a numpy grid sum: (1+(k+shift)^2)^(-expo)
    over the float64 grid k = -K..K, summed by np.sum, plus the same tails
    beyond K + 1/2.  numpy is a test dependency only."""
    import numpy as np

    from cuntzmod.numerics import _tail_integral

    k = np.arange(-cfg.cutoff, cfg.cutoff + 1, dtype=np.float64)
    total = float(np.sum((1.0 + (k + shift) ** 2) ** (-expo)))
    if cfg.tail_correction:
        total += _tail_integral(cfg.cutoff + 0.5 + shift, expo)
        total += _tail_integral(cfg.cutoff + 0.5 - shift, expo)
    return total


def oracle_heat_sums(t: float, cutoff: int) -> tuple[float, float]:
    """(symmetric, one-sided) heat sums of numerics over every k up to the
    cutoff, as they were summed before they stopped at the underflow."""
    import math

    return (math.fsum(k * math.exp(-t * k * k) for k in range(-cutoff, cutoff + 1)),
            math.fsum(k * math.exp(-t * k * k) for k in range(1, cutoff + 1)))


# Sweep oracles: the straightforward loops that form every map inside the
# case that reads it.  They call the maps through their modules' attributes,
# as the sweeps do, so a map patched into a module reaches both sides.  Each
# yields its cases one at a time, each as a one-case block made by case.


def case(ok, label):
    """One case as a ``tally.sweep`` block: the row [ok] against [True],
    named by the zero-argument ``label``."""
    return [([ok], [True])], lambda j, t: label()


@sweep("kms")
def oracle_kms_sweep(n: int, max_len: int):
    """kms_sweep with sigma(b) formed for every pair, and each side read by
    oracle_psi_product, looked up here per case."""
    monos = monomial_elements(n, max_len)
    for a in monos:
        for b in monos:
            lhs = oracle_psi_product(a, b)
            rhs = oracle_psi_product(modular.sigma(b), a)
            yield case(lhs == rhs, lambda: f"a={a!r} b={b!r} psi(ab)={lhs} psi(sigma(b)a)={rhs}")


@sweep("cocycle")
def oracle_cocycle_sweep(n: int, max_len: int):
    """cocycle_sweep with a0 a1, a1 a2, sigma(a2) a0 and each [D, .] image
    formed for every triple, and each term of b theta read off its built
    product by state_psi.  B theta(a) = theta(1, a) is the walk of
    twisted_theta, as in the sweep."""
    mod = modular
    monos = monomial_elements(n, max_len)
    ident = one(n)
    for a0 in monos:
        value = twisted_theta(ident, a0)
        yield case(value.is_zero, lambda: f"B-defect {value} on {a0!r}")
    for a0 in monos:
        for a1 in monos:
            for a2 in monos:
                value = (mod.state_psi(multiply(multiply(a0, a1), mod.commutator_D(a2)))
                         - mod.state_psi(multiply(a0, mod.commutator_D(multiply(a1, a2))))
                         + mod.state_psi(multiply(multiply(mod.sigma(a2), a0), mod.commutator_D(a1))))
                yield case(value.is_zero, lambda: f"b-defect {value} on ({a0!r}, {a1!r}, {a2!r})")


@sweep("tomita")
def oracle_tomita_sweep(n: int, max_len: int):
    """tomita_sweep with Delta^z, F and S formed inside every case."""
    mod = modular
    monos = monomial_elements(n, max_len)
    zs = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    half = Fraction(1, 2)
    for a in monos:
        for z in zs:
            yield case(equals(mod.tomita_S(mod.delta_power(a, z)), mod.delta_power(mod.tomita_S(a), -z)),
                       lambda: f"S/Delta^z intertwining a={a!r} z={z}")
        yield case(equals(mod.tomita_S(a), mod.modular_conjugation_J(mod.delta_power(a, half))),
                   lambda: f"polar S a={a!r}")
        yield case(equals(mod.tomita_F(a), mod.delta_power(mod.modular_conjugation_J(a), half)),
                   lambda: f"polar F a={a!r}")
        yield case(equals(mod.modular_conjugation_J(mod.modular_conjugation_J(a)), a), lambda: f"J^2 a={a!r}")
    for a in monos:
        for b in monos:
            for z in zs:
                lhs = mod.inner_product(mod.delta_power(a, z), b)
                yield case(lhs == mod.inner_product(a, mod.delta_power(b, z)),
                           lambda: f"Delta^z pairing symmetry a={a!r} b={b!r} z={z}")
            yield case(mod.inner_product(mod.tomita_F(a), mod.tomita_S(b)) == mod.inner_product(b, a),
                       lambda: f"F/S exchange a={a!r} b={b!r}")
            yield case(mod.inner_product(mod.tomita_S(a), b) == mod.inner_product(mod.tomita_F(b), a),
                       lambda: f"F adjoint to S a={a!r} b={b!r}")


def oracle_key_fact(v, k: int, probes) -> bool:
    """v Phi_k(v^* x) == v v^* Phi_{k+m}(x) on every probe x, for the
    monomial v of gauge degree m, with v^*, v v^*, every v^* x and every
    Phi_j(x) formed for this k alone: what key_fact_check decides."""
    ((mu, nu),) = v.terms
    m = len(mu) - len(nu)
    v_star = adjoint(v)
    range_proj = multiply(v, v_star)
    return all(
        equals(multiply(v, modular.gauge_component(multiply(v_star, x), k)),
               multiply(range_proj, modular.gauge_component(x, k + m)))
        for x in probes
    )


@sweep("keyfact")
def oracle_keyfact_sweep(n: int, max_len: int):
    """keyfact_sweep with oracle_key_fact for each (v, k)."""
    k_span = endos.KEYFACT_K_SPAN
    ws = words_upto(n, max_len)
    probes = monomial_elements(n, endos.KEYFACT_PROBE_LEN)
    for mu in ws:
        for nu in ws:
            v = monomial(n, mu, nu)
            for k in range(-k_span, k_span + 1):
                yield case(oracle_key_fact(v, k, probes), lambda: f"v=S_{mu}S*_{nu} k={k}")


def oracle_endo_traces(e) -> tuple[QSqrt, QSqrt]:
    """(tau_tilde(e), tau_delta(e)) leg by leg: each leg's <y, x> read by
    inner_product and its <y, Delta x> by inner_product against
    delta_power of the output leg, both looked up in modular per call."""
    tilde = delta = QSqrt.zero(e.n)
    for c, th in e.terms:
        tilde = tilde + c * modular.inner_product(th.y, th.x)
        delta = delta + c * modular.inner_product(th.y, modular.delta_power(th.x, 1))
    return tilde, delta


@sweep("tracesplit")
def oracle_tracesplit_sweep(n: int, max_len: int):
    """tracesplit_sweep with pi(f) Phi_k built leg by leg by compose_left_mult
    for every case, and both traces read by oracle_endo_traces."""
    mod = modular
    k_span = endos.TRACESPLIT_K_SPAN
    for k in range(-k_span, k_span + 1):
        phi_k = endos.phi_k_endo(k, n)
        tilde, delta = oracle_endo_traces(phi_k)
        yield case(tilde == n_power(n, k), lambda: f"tau_tilde(Phi_{k}) != n^{k}")
        yield case(delta == QSqrt.one(n), lambda: f"tau_delta(Phi_{k}) != 1")
        for length in range(max_len + 1):
            for alpha in words(n, length):
                for beta in words(n, length):
                    f = monomial(n, alpha, beta)
                    tilde, delta = oracle_endo_traces(endos.compose_left_mult(f, phi_k))
                    yield case(tilde == n_power(n, k) * mod.trace_F(f),
                               lambda: f"trace split tau_tilde f=S_{alpha}S*_{beta} k={k}")
                    yield case(delta == mod.trace_F(f), lambda: f"trace split tau_delta f=S_{alpha}S*_{beta} k={k}")


@pytest.fixture
def rng():
    return random.Random(20260809)
