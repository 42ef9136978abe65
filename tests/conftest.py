import random
from fractions import Fraction

import pytest

from cuntzmod.algebra import canonical_form, monomial, multiply, projection, words_upto, zero
from cuntzmod.matrices import AlgMatrix, apply_sigma
from cuntzmod.modular import commutator_D, expectation, state_psi
from cuntzmod.scalars import QSqrt

COEFF_POOL = [
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(3, 4),
    Fraction(-5, 3),
]


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
    of the last two, exact or float like the engine's certificate."""
    u_star = u.adjoint()
    ident = AlgMatrix.identity(u.n, u.k, u.exact)
    unit = [x for p in (u @ u_star - ident, u_star @ u - ident) for row in p.rows for x in row]
    modular = [
        x - expectation(x)
        for p in (u @ apply_sigma(u_star), u_star @ apply_sigma(u))
        for row in p.rows
        for x in row
    ]

    def largest(entries):
        coeffs = [c for x in entries for c in canonical_form(x).terms.values()]
        if not u.exact:
            return max((abs(c) for c in coeffs), default=0.0)
        return max((c.abs_exact() for c in coeffs), key=float, default=QSqrt.zero(u.n))

    return largest(unit), largest(modular)


def oracle_flow(u: AlgMatrix):
    """sum_{i,l} psi(u_il [D, u*_li]), with every product built."""
    u_star = u.adjoint()
    total = QSqrt.zero(u.n) if u.exact else 0j
    for i in range(u.k):
        for l in range(u.k):
            total = total + state_psi(multiply(u.rows[i][l], commutator_D(u_star.rows[l][i])))
    return total


@pytest.fixture
def rng():
    return random.Random(20260809)
