"""Floating-point confirmations of the analytic limits.

Everything here consumes exact rationals (weights, coefficients) and
converts to double precision at the boundary; no exact arithmetic happens
inside summation loops.

* ``lattice_sum``: sum_{|k|<=K} (1+(k+shift)^2)^(-e) plus the two integrals
  T beyond |k| = K + 1/2, each a closed-form positive series; |shift| <= K.
  A cutoff past ``LATTICE_BUDGET`` points is refused before any summing.
* ``dixmier_limit``: (s-1) * lattice_sum(0, s/2), extrapolated linearly in
  (s-1) to s=1 by the least-squares intercept; the limit is 2 (2*tau(f)
  for a weighted variant).  The schedule's exponents share one grid.
* ``beta_constant``: C_s = int (1+x^2)^(-s) dx = sqrt(pi) Gamma(s-1/2)/Gamma(s).
* ``sf_integral``: the Laplace-transformed spectral-flow integral reduced
  over the diagonalised perturbation X = sum_j c_j Q_j (orthogonal
  projections over F with weights w_j = tau(Q_j)):

      sf = 1/C_{1/2+r} * int_0^1 sum_j c_j w_j
                          sum_{k in Z} (1+(k+t c_j)^2)^(-1/2-r) dt.

  The reduction holds because D + tX has eigenvalue k + t c_j on the
  (Q_j, degree-k) block with tau_delta-weight tau(Q_j), the complement of
  sum Q_j contributes nothing, and the trace-split lemma evaluates each
  block weight; in the K -> infinity limit the t-integral telescopes to
  sum_j c_j w_j exactly, independently of r > 0.  With L = lattice_sum
  (even in x), e = 1/2 + r, g(y) = (1+y^2)^(-e), T(a) = int_a^inf g, C = C_e,
  term j is sign(c_j) w_j int_0^|c_j| L / C.  Over q = floor |c_j| whole
  periods the body gives q C - sum_{K-q<k<=K+q} T(k), and the tails add
  int T over [K-q+1/2, K+q+1/2]: T's series in y (1+y^2)^(-e-j) integrates
  term by term to positive shares [(1+y^2)^p] / 2p, p = 1-e-j, where by
  parts [y T] + int y g would cancel a factor of about K^(1-2r)/r.  The
  rest [q, |c_j|] is one fixed 16-node Gauss-Legendre panel: L is analytic
  for |Im x| < 1 and the panel is shorter than 1, so 16 nodes already agree
  with every higher order to double precision.  Integer c_j never call
  lattice_sum.
* ``eta_numeric``: eta_eps(D) vanishes because sum_k k e^(-t k^2) = 0 by
  the k <-> -k symmetry; the truncated sum is evaluated and must stay
  below 1e-14 before 0.0 is returned.

Everything is pure Python on doubles; no third-party module is imported.
Summation order is fixed, so identical configs reproduce identical
doubles: a lattice body is g(shift) + H(shift) + H(-shift) with each half
H(s) = sum_{k=1}^K g(k+s) an exactly rounded ``math.fsum`` over ascending
k (at shift 0 the one half serves twice), the tails follow it, the series
sum ascending j, and the remainder panel, the intercept fit and eta's
heat sums are ``fsum`` too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .errors import DomainError, UsageError


class SummationConfig(namedtuple("SummationConfig", "cutoff tail_correction")):
    """Lattice cutoff K (sums run over |k| <= K) and whether the integral
    tails beyond K are added.  Immutable, compared and hashed by value."""

    __slots__ = ()

    def __new__(cls, cutoff: int = 10_000, tail_correction: bool = True):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise UsageError(f"cutoff must be an integer, got {cutoff!r}")
        if cutoff < 1:
            raise UsageError(f"cutoff must be >= 1, got {cutoff}")
        return super().__new__(cls, cutoff, tail_correction)

    # namedtuple's _make, and _replace through it, would skip __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class ProjectionPerturbation(namedtuple("ProjectionPerturbation", "terms")):
    """Diagonalised perturbation data: X = sum_j c_j Q_j with pairwise
    orthogonal projections Q_j over F, stored as (c_j, tau(Q_j)) pairs."""

    __slots__ = ()

    def __new__(cls, terms: Sequence[tuple[Fraction, Fraction]]):
        clean = []
        for c, w in terms:
            c = Fraction(c)
            w = Fraction(w)
            if c == 0:
                raise UsageError("perturbation coefficients must be nonzero")
            if not 0 < w <= 1:
                raise UsageError(f"projection weight {w} outside (0, 1]")
            clean.append((c, w))
        return super().__new__(cls, tuple(clean))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # as in SummationConfig

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Fraction, Fraction]]) -> "ProjectionPerturbation":
        return cls(tuple(pairs))


def beta_constant(s: float) -> float:
    """C_s = int_-inf^inf (1+x^2)^(-s) dx via log-gamma."""
    if s <= 0.5:
        raise DomainError(f"C_s diverges for s <= 1/2, got s={s}")
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(s - 0.5) - math.lgamma(s))


# The 16-node Gauss-Legendre rule on [-1, 1] as (node, weight) for its 8
# positive nodes; -node carries the same weight.  Bit for bit the rule
# numpy.polynomial.legendre.leggauss(16) returns.
REMAINDER_RULE = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
REMAINDER_NODES = 2 * len(REMAINDER_RULE)


def _series(expo: float, w: float, share=None) -> float:
    """sum_j (e)_j / (e+1/2)_j w^j share(1-e-j) for 0 < w < 1 and positive,
    decreasing shares (1 when share is None), summed until a term no longer
    moves the sum."""
    total, term, j = 0.0, 1.0, 0
    while True:
        step = term if share is None else term * share(1.0 - expo - j)
        if total + step == total:
            return total
        total += step
        term *= w * (expo + j) / (expo + 0.5 + j)
        j += 1


def _tail_integral(lower: float, expo: float) -> float:
    """T(a) = int_a^inf (1+y^2)^(-e) dy = a w^e/(2e-1) sum_j (e)_j/(e+1/2)_j w^j,
    w = 1/(1+a^2): Pfaff's transformation (DLMF 15.8.1) of the closed form
    a^(1-2e)/(2e-1) 2F1(e, e-1/2; e+1/2; -1/a^2).  About 150 terms at a = 1/2,
    23 at 2, 2 at 1e5; the count grows like 1/a^2, so a < 1/2 is refused."""
    if not expo > 0.5:
        raise DomainError(f"tail integral diverges for exponent {expo} <= 1/2")
    if not lower >= 0.5:
        raise DomainError(f"tail integral needs a lower bound >= 1/2, got {lower}")
    w = 1.0 / (1.0 + lower * lower)
    return lower * w**expo / (2.0 * expo - 1.0) * _series(expo, w)


# Most lattice points one lattice_sum visits (cutoff <= 1e6).  It bounds
# time first: 2,000,001 points take about 0.5 CPU s (2-core Xeon VM,
# Python 3.11).  The squares of both halves are held while they are summed,
# about 32 bytes a point, so 76 MB at the budget.
LATTICE_BUDGET = 2_000_001


def lattice_sum(shift: float, expo: float, cfg: SummationConfig) -> float:
    """sum_{k in Z} (1+(k+shift)^2)^(-expo), truncated at |k| <= cutoff with
    the integral tails beyond when tail_correction is on; |shift| <= cutoff."""
    return _lattice_sums(shift, (expo,), cfg)[0]


def _lattice_sums(shift: float, expos: Sequence[float], cfg: SummationConfig) -> list[float]:
    """lattice_sum(shift, e, cfg) for each e in expos.  The squares
    1 + (k +- shift)^2 of the two halves are formed once for all of them."""
    cutoff = cfg.cutoff
    if not abs(shift) <= cutoff:
        raise DomainError(f"lattice_sum needs |shift| <= cutoff {cutoff}, got {shift}")
    points = 2 * cutoff + 1
    if points > LATTICE_BUDGET:
        raise UsageError(
            f"lattice_sum: cutoff {cutoff} needs {points} lattice points, "
            f"past the lattice budget of {LATTICE_BUDGET}"
        )
    shift = float(shift)
    ks = range(1, cutoff + 1)
    upper = [1.0 + x * x for x in map(shift.__radd__, ks)]
    lower = upper if shift == 0 else [1.0 + x * x for x in map((-shift).__radd__, ks)]
    sums = []
    for expo in expos:
        half = math.fsum(map(pow, upper, repeat(-expo)))
        other = half if lower is upper else math.fsum(map(pow, lower, repeat(-expo)))
        total = (1.0 + shift * shift) ** -expo + half + other
        if cfg.tail_correction:
            total += _tail_integral(cutoff + 0.5 + shift, expo)
            total += _tail_integral(cutoff + 0.5 - shift, expo)
        sums.append(total)
    return sums


def dixmier_limit(n: int, s_schedule: Sequence[float], cfg: SummationConfig, weight=1) -> float:
    """Extrapolate (s-1) tau_delta(pi(f) (1+D^2)^(-s/2)) to s = 1.

    ``weight`` is tau(f); the limit is 2*weight.  A single-element schedule
    returns the un-extrapolated value at that s; a longer one needs at
    least two distinct s to fit the line through."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    schedule = [float(s) for s in s_schedule]
    if not schedule:
        raise UsageError("empty s schedule")
    for s in schedule:
        if not 1.0 < s <= 2.0:
            raise DomainError(f"dixmier_limit needs s in (1, 2], got {s}")
    if len(schedule) > 1 and len(set(schedule)) < 2:
        raise DomainError(f"dixmier_limit extrapolates a line and needs two distinct s, got {schedule}")
    if cfg.cutoff < 1000:
        raise DomainError("dixmier_limit needs cutoff >= 1000")
    w = float(weight)
    sums = _lattice_sums(0.0, [s / 2.0 for s in schedule], cfg)
    values = [(s - 1.0) * total * w for s, total in zip(schedule, sums)]
    if len(values) == 1:
        return values[0]
    # least squares in centred form: slope sum dx dy / sum dx^2, then the
    # line through the means (xm, ym) read at x = 0
    x = [s - 1.0 for s in schedule]
    xm = math.fsum(x) / len(x)
    ym = math.fsum(values) / len(values)
    dx = [xi - xm for xi in x]
    slope = math.fsum(d * (y - ym) for d, y in zip(dx, values)) / math.fsum(d * d for d in dx)
    return ym - slope * xm


def sf_integral(x: ProjectionPerturbation, r: float, cfg: SummationConfig) -> float:
    """The reduced spectral-flow integral at exponent 1/2 + r; converges to
    the exact flow as cutoff -> infinity for every fixed r > 0."""
    if not isinstance(x, ProjectionPerturbation):
        x = ProjectionPerturbation.from_pairs(x)
    if not x.terms:
        raise UsageError("empty perturbation")
    if not (r > 0 and math.isfinite(r)):
        raise DomainError(f"sf_integral needs a finite r > 0, got {r}")
    largest = max(abs(c) for c, _ in x.terms)
    if cfg.cutoff <= largest:
        raise DomainError(f"cutoff {cfg.cutoff} must exceed the largest |c| {largest}")
    expo = 0.5 + r
    if expo == 0.5:
        raise DomainError(f"sf_integral needs 1/2 + r > 1/2 in floats, got r={r}, which rounds 1/2 + r to 1/2")
    norm = beta_constant(expo)
    total = 0.0
    for c, w in x.terms:
        q, f = divmod(abs(c), 1)
        low, high = cfg.cutoff - q + 1, cfg.cutoff + q + 1
        area = q * norm - sum(_tail_integral(k, expo) for k in range(low, high))
        if cfg.tail_correction:
            a, b = low - 0.5, high - 0.5
            base = 1.0 + a * a
            ell = math.log1p((b - a) * (b + a) / base)  # ln((1 + b^2) / (1 + a^2))
            rise = _series(expo, 1.0 / base, lambda p: math.expm1(p * ell) / (2.0 * p) if p else ell / 2.0)
            area += base ** (1.0 - expo) * rise / (2.0 * expo - 1.0)
        if f:
            half = float(f) / 2.0
            area += half * math.fsum(
                wt * lattice_sum(q + half * (1.0 + t), expo, cfg) for node, wt in REMAINDER_RULE for t in (-node, node)
            )
        total += math.copysign(float(w), c) * area
    return total / norm


def symmetric_heat_sum(t: float, cutoff: int) -> float:
    """sum_{|k|<=K} k e^(-t k^2); identically zero by symmetry.  Summed with
    fsum over exactly paired magnitudes, so the float result is exact."""
    return math.fsum(k * math.exp(-t * k * k) for k in range(-cutoff, cutoff + 1))


def one_sided_heat_sum(t: float, cutoff: int) -> float:
    """sum_{k=1}^K k e^(-t k^2), the nonzero control for the eta check."""
    return math.fsum(k * math.exp(-t * k * k) for k in range(1, cutoff + 1))


def eta_numeric(epsilon: float, cfg: SummationConfig) -> float:
    """eta_epsilon(D) = (1/sqrt pi) int_eps^inf tau_delta(D e^(-t D^2)) t^(-1/2) dt.

    The integrand vanishes identically (symmetric integer spectrum); the
    truncated inner sum is evaluated at a spread of t >= epsilon and must
    stay below 1e-14 before 0.0 is returned."""
    if not epsilon > 0:
        raise DomainError(f"eta_numeric needs epsilon > 0, got {epsilon}")
    probes = sorted({epsilon, 2.0 * epsilon, max(1.0, epsilon), max(10.0, epsilon)})
    for t in probes:
        inner = symmetric_heat_sum(t, cfg.cutoff)
        if abs(inner) >= 1e-14:
            raise ArithmeticError(
                f"heat sum asymmetry {inner} at t={t}; spectral symmetry violated"
            )
    return 0.0
