"""Floating-point confirmations of the analytic limits.

Everything here consumes exact rationals (weights, coefficients) and
converts to double precision at the boundary; no exact arithmetic happens
inside summation loops.

* ``lattice_sum``: sum_{|k|<=K} (1+(k+shift)^2)^(-e), tail-corrected by the
  two integrals beyond |k| = K + 1/2 (the midpoint-consistent tail rule).
* ``dixmier_limit``: (s-1) * lattice_sum(0, s/2), extrapolated linearly in
  (s-1) to s=1; the limit is 2 (2*tau(f) for a weighted variant).
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
  (even in x), g(y) = (1+y^2)^(-1/2-r), T(a) = int_a^inf g and C = C_{1/2+r},
  term j is sign(c_j) w_j int_0^|c_j| L / C.  Over q = floor |c_j| whole
  periods the body gives q C - sum_{K-q<k<=K+q} T(k), and the tails add
  int T over [K-q+1/2, K+q+1/2]: for the tail rule's T, a sum of positive
  shares [(m^2+y^2)^(1/2-r)] / (1-2r) over its panel midpoints m, where by
  parts [y T] + int y g would cancel a factor of about K^(1-2r)/r.  The
  rest [q, |c_j|] is one fixed 16-node Gauss-Legendre panel: L is analytic
  for |Im x| < 1 and the panel is shorter than 1, so 16 nodes already agree
  with every higher order to double precision.  Integer c_j never call
  lattice_sum.
* ``eta_numeric``: eta_eps(D) vanishes because sum_k k e^(-t k^2) = 0 by
  the k <-> -k symmetry; the truncated sum is evaluated and must stay
  below 1e-14 before 0.0 is returned.

Summation order is fixed (numpy sums over an ascending k grid, fsum for
the eta cancellation), so identical configs reproduce identical doubles.
numpy is imported by the functions that use it, not by this module, so a
process that never sums (every exact verb of the CLI) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, UsageError


@dataclass(frozen=True)
class SummationConfig:
    cutoff: int = 10_000
    tail_correction: bool = True

    def __post_init__(self):
        if self.cutoff < 1:
            raise UsageError(f"cutoff must be >= 1, got {self.cutoff}")


@dataclass(frozen=True)
class ProjectionPerturbation:
    """Diagonalised perturbation data: X = sum_j c_j Q_j with pairwise
    orthogonal projections Q_j over F, stored as (c_j, tau(Q_j)) pairs."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        clean = []
        for c, w in self.terms:
            c = Fraction(c)
            w = Fraction(w)
            if c == 0:
                raise UsageError("perturbation coefficients must be nonzero")
            if not 0 < w <= 1:
                raise UsageError(f"projection weight {w} outside (0, 1]")
            clean.append((c, w))
        object.__setattr__(self, "terms", tuple(clean))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Fraction, Fraction]]) -> "ProjectionPerturbation":
        return cls(tuple(pairs))

    def zeroth_moment(self) -> Fraction:
        """sum_j c_j w_j; equals the exact spectral flow for u_{mu,nu} data."""
        return sum((c * w for c, w in self.terms), Fraction(0))


def beta_constant(s: float) -> float:
    """C_s = int_-inf^inf (1+x^2)^(-s) dx via log-gamma."""
    if s <= 0.5:
        raise DomainError(f"C_s diverges for s <= 1/2, got s={s}")
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(s - 0.5) - math.lgamma(s))


TAIL_PANELS = 256
REMAINDER_NODES = 16


def _tail_integral(lower: float, expo: float) -> float:
    """int_lower^inf (1+y^2)^(-expo) dy with y = lower/u, evaluated by a
    weighted midpoint rule that integrates the endpoint factor u^(2e-2)
    exactly on each panel (the rest is smooth and nearly constant, so this
    stays accurate down to expo -> 1/2 where generic adaptive quadrature on
    the unbounded interval breaks down)."""
    if expo <= 0.5:
        raise DomainError(f"tail integral diverges for exponent {expo} <= 1/2")
    if lower <= 0.0:
        raise DomainError(f"tail integral needs a positive lower bound, got {lower}")
    import numpy as np

    mids, weights = _tail_rule(expo)
    smooth = lower * (mids * mids + lower * lower) ** (-expo)
    return float(np.dot(smooth, weights))


def _tail_rule(expo: float):
    """Midpoints m_i and weights w_i of the tail rule: the tail integral
    from a is sum_i w_i a (m_i^2 + a^2)^(-expo)."""
    import numpy as np

    p = 2.0 * expo - 1.0
    edges = np.linspace(0.0, 1.0, TAIL_PANELS + 1)
    return 0.5 * (edges[:-1] + edges[1:]), (edges[1:] ** p - edges[:-1] ** p) / p


def lattice_sum(shift: float, expo: float, cfg: SummationConfig) -> float:
    """sum_{k in Z} (1+(k+shift)^2)^(-expo), truncated at |k| <= cutoff with
    midpoint-consistent integral tails when tail_correction is on."""
    import numpy as np

    k = np.arange(-cfg.cutoff, cfg.cutoff + 1, dtype=np.float64)
    total = float(np.sum((1.0 + (k + shift) ** 2) ** (-expo)))
    if cfg.tail_correction:
        half = cfg.cutoff + 0.5
        total += _tail_integral(half + shift, expo)
        total += _tail_integral(half - shift, expo)
    return total


def dixmier_limit(n: int, s_schedule: Sequence[float], cfg: SummationConfig, weight=1) -> float:
    """Extrapolate (s-1) tau_delta(pi(f) (1+D^2)^(-s/2)) to s = 1.

    ``weight`` is tau(f); the limit is 2*weight.  A single-element schedule
    returns the un-extrapolated value at that s."""
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    schedule = [float(s) for s in s_schedule]
    if not schedule:
        raise UsageError("empty s schedule")
    for s in schedule:
        if not 1.0 < s <= 2.0:
            raise DomainError(f"dixmier_limit needs s in (1, 2], got {s}")
    if cfg.cutoff < 1000:
        raise DomainError("dixmier_limit needs cutoff >= 1000")
    w = float(weight)
    values = [(s - 1.0) * lattice_sum(0.0, s / 2.0, cfg) * w for s in schedule]
    if len(values) == 1:
        return values[0]
    import numpy as np

    x = np.array([s - 1.0 for s in schedule])
    y = np.array(values)
    slope_intercept = np.polyfit(x, y, 1)
    return float(slope_intercept[1])


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
    import numpy as np

    expo = 0.5 + r
    p, norm = 1.0 - expo, beta_constant(expo)
    nodes, weights = np.polynomial.legendre.leggauss(REMAINDER_NODES)
    mids, tail_weights = _tail_rule(expo)
    total = 0.0
    for c, w in x.terms:
        q, f = divmod(abs(c), 1)
        low, high = cfg.cutoff - q + 1, cfg.cutoff + q + 1
        area = q * norm - sum(_tail_integral(k, expo) for k in range(low, high))
        if cfg.tail_correction:
            a, b = low - 0.5, high - 0.5
            base = mids * mids + a * a
            log_ratio = np.log1p((b - a) * (b + a) / base)  # ln((m^2 + b^2) / (m^2 + a^2))
            rise = base**p * np.expm1(p * log_ratio) / (2.0 * p) if p else log_ratio / 2.0
            area += float(np.dot(rise, tail_weights))
        if f:
            half = float(f) / 2.0
            area += half * float(np.dot(weights, [lattice_sum(q + half * (1.0 + t), expo, cfg) for t in nodes]))
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
