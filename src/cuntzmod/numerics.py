"""Floating-point confirmations of the analytic limits.

Everything here consumes exact rationals (weights, coefficients) and
converts to double precision at the boundary; no exact arithmetic happens
inside summation loops.

* ``lattice_sum``: sum_{|k|<=K} (1+(k+shift)^2)^(-e) plus the two integrals
  T beyond |k| = K + 1/2, each a closed-form positive series; |shift| <= K.
  The points with |k + shift| <= NEAR (64) are summed one by one and each
  run beyond them by Euler-Maclaurin, so a sum costs the same at any cutoff
  up to ``CUTOFF_LIMIT`` (10^153), where the doubles would overflow.
* ``dixmier_limit``: (s-1) * lattice_sum(0, s/2), extrapolated linearly in
  (s-1) to s=1 by the least-squares intercept; the limit is 2 (2*tau(f)
  for a weighted variant).  The schedule's exponents share one grid.
* ``beta_constant``: C_s = int (1+x^2)^(-s) dx = sqrt(pi) Gamma(s-1/2)/Gamma(s),
  from log-gamma below s = 10 and from the Stirling series past it, which
  holds for every finite s; a non-finite s is refused.
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
  with every higher order to double precision up to r = ``REMAINDER_R_LIMIT``
  (20); past it the peak is too narrow for the panel, and a fractional c_j
  is refused.  Integer c_j never call lattice_sum.  The whole periods cost
  two tail integrals each, so a coefficient with more than ``PERIOD_LIMIT``
  (10^6, 1.5-2 CPU s) of them is refused before any integral is taken.
* ``eta_numeric``: eta_eps(D) vanishes because sum_k k e^(-t k^2) = 0 by
  the k <-> -k symmetry; the truncated sum, cut where e^(-t k^2) underflows
  to 0.0, is evaluated and must stay below 1e-14 before 0.0 is returned.

Everything is pure Python on doubles; no third-party module is imported.
Summation order is fixed, so identical configs reproduce identical
doubles: a lattice sum is one exactly rounded ``math.fsum`` of its direct
points, its runs' integrals and their Euler-Maclaurin corrections, the
series sum ascending j, and the remainder panel, the intercept fit and
eta's heat sums are ``fsum`` too.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .errors import DomainError, UsageError


# Largest cutoff K.  The sums square points out to |k + shift| = 2K + 1
# (|shift| <= K), and (2K + 1)^2 must stay below the largest double, 1.8e308.
CUTOFF_LIMIT = 10**153

# Most whole periods floor |c| of one sf_integral coefficient; each costs two
# tail integrals, about 2 ms per 1,000 periods on a 2-core Xeon VM.
PERIOD_LIMIT = 10**6

# Largest r at which sf_integral takes a coefficient with a fractional part.
# Its remainder is one 16-node panel, and the lattice sum's peak narrows like
# 1/sqrt(1/2 + r): against the panel split in 256, the relative error for
# fractional parts near 1 is 6e-13 at r = 20, 5e-12 at 26 and 3e-3 at 1,000.
REMAINDER_R_LIMIT = 20


class SummationConfig(namedtuple("SummationConfig", "cutoff tail_correction")):
    """Lattice cutoff K (sums run over |k| <= K) and whether the integral
    tails beyond K are added.  Immutable, compared and hashed by value."""

    __slots__ = ()

    def __new__(cls, cutoff: int = 10_000, tail_correction: bool = True):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise UsageError(f"cutoff must be an integer, got {cutoff!r}")
        if cutoff < 1:
            raise UsageError(f"cutoff must be >= 1, got {cutoff}")
        if cutoff > CUTOFF_LIMIT:
            raise UsageError(
                "cutoff must be <= 10**153, past which the lattice sums' doubles overflow; "
                f"got a {_digits(cutoff)}-digit cutoff"
            )
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


# From this s on, beta_constant takes log Gamma(s - 1/2) - log Gamma(s) from
# the Stirling series: there the difference of two lgamma values loses
# digits to cancellation (2.9e-8 relative at s = 1e8).  Below it the two
# lgamma values are kept, and with them every earlier result's bits.
STIRLING_FROM = 10.0


def _stirling_tail(z: float) -> float:
    """sum_{k=1..6} B_2k / (2k (2k-1) z^(2k-1)), the Stirling series of
    log Gamma(z) past (z - 1/2) ln z - z + ln(2 pi)/2; for z >= 9.5 the
    terms left out change a difference of two tails by under 1e-15."""
    w = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188 - 691 / 360360 * w) * w) * w) * w) * w) / z


def _digits(whole: int) -> int:
    """The decimal digits of an int other than 0, exactly; str() refuses past 4,300 digits."""
    low = int(math.log10(abs(whole)))  # within one of floor(log10(abs(whole)))
    return low + (abs(whole) >= 10**low) + (abs(whole) >= 10 ** (low + 1))


def beta_constant(s: float) -> float:
    """C_s = int_-inf^inf (1+x^2)^(-s) dx = sqrt(pi) Gamma(s-1/2)/Gamma(s), for
    finite s > 1/2.  Below STIRLING_FROM it is read from log-gamma.
    From there on the Stirling series gives log Gamma(s-1/2) - log Gamma(s) as
    (s-1) log1p(-1/(2s)) - (1/2) ln s + 1/2 plus the tails' difference, and
    C_s = sqrt(pi/s) e^(the rest), which is small, so no large logarithm is
    rounded."""
    if isinstance(s, int) and abs(s) > sys.float_info.max:  # past every double: math.isfinite overflows
        raise DomainError(f"C_s needs a finite s; got an s of {_digits(s)} digits")
    if s <= 0.5:
        raise DomainError(f"C_s diverges for s <= 1/2, got s={s}")
    if not math.isfinite(s):
        raise DomainError(f"C_s needs a finite s; got s={s}")
    if s < STIRLING_FROM:
        return math.exp(0.5 * math.log(math.pi) + math.lgamma(s - 0.5) - math.lgamma(s))
    rest = (s - 1.0) * math.log1p(-0.5 / s) + 0.5 + _stirling_tail(s - 0.5) - _stirling_tail(s)
    return math.sqrt(math.pi / s) * math.exp(rest)


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


def _series(expo: float, w: float, share=None, top=None) -> float:
    """sum_j (e)_j / (t)_j w^j share(1-e-j), t = e + 1/2 unless ``top`` gives
    it, for |w| < 1 and positive, decreasing shares (1 when share is None),
    summed until a term no longer moves the sum."""
    top = expo + 0.5 if top is None else top
    total, term, j = 0.0, 1.0, 0
    while True:
        step = term if share is None else term * share(1.0 - expo - j)
        if total + step == total:
            return total
        total += step
        term *= w * (expo + j) / (top + j)
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


def _span_integral(a: float, b: float, expo: float) -> float:
    """int_a^b (1+y^2)^(-e) dy for 1 < a <= b, from the binomial series
    sum_i binom(-e, i) y^(-2e-2i): term i integrates to a^(1-2e) a^(-2i) times
    the positive share expm1(q L)/q, q = 1-2e-2i = 2p-1 at _series' p = 1-e-i,
    L = ln(b/a).  At e near 1/2 that share stays exact where T(a) - T(b)
    would cancel a factor of about a^(1-2e)/(2e-1)."""
    ell = math.log1p((b - a) / a)

    def share(p):
        q = 2.0 * p - 1.0
        return math.expm1(q * ell) / q if q else ell

    scale = a ** (1.0 - 2.0 * expo)
    if scale == 0.0:  # also where e/a^2 > 1 would make the series' terms grow first
        return 0.0
    return scale * _series(expo, -1.0 / (a * a), share, 1.0)


# B_2j(1/2)/(2j)! for j = 1..6, B_2j(1/2) = (2^(1-2j) - 1) B_2j: Euler-Maclaurin
# (DLMF 2.10.1) for a sum over the midpoints of unit steps.  Past |x| = 63.5
# the next term is below 1e-22 of the sum for every exponent in (0, 1].
_MIDPOINT = (-1 / 24, 7 / 5760, -31 / 967680, 127 / 154828800, -73 / 3503554560, 1414477 / 2678117105664000)

# Lattice points with |k + shift| <= NEAR are summed one by one.
NEAR = 64


def _midpoint_correction(y: float, expo: float) -> float:
    """sum_j _MIDPOINT[j-1] g^(2j-1)(y) for g(y) = (1+y^2)^(-e).  The
    derivatives come from (1+y^2) g' = -2e y g differentiated k times,
    (1+y^2) g^(k+1) = -(2e+2k) y g^(k) - k (2e+k-1) g^(k-1),
    so each is a multiple of g(y) and none overflows where g underflows."""
    square = 1.0 + y * y
    before, at = 0.0, square**-expo
    if at == 0.0:  # every derivative is a multiple of g(y)
        return 0.0
    total = 0.0
    for k in range(2 * len(_MIDPOINT) - 1):
        before, at = at, -((2.0 * expo + 2 * k) * y * at + k * (2.0 * expo + k - 1) * before) / square
        if k % 2 == 0:
            total += _MIDPOINT[k // 2] * at
    return total


def lattice_sum(shift: float, expo: float, cfg: SummationConfig) -> float:
    """sum_{k in Z} (1+(k+shift)^2)^(-expo), truncated at |k| <= cutoff with
    the integral tails beyond when tail_correction is on; |shift| <= cutoff
    and expo > 0."""
    return _lattice_sums(shift, (expo,), cfg)[0]


def _lattice_sums(shift: float, expos: Sequence[float], cfg: SummationConfig) -> list[float]:
    """lattice_sum(shift, e, cfg) for each e in expos, in O(NEAR) work for
    any cutoff and shift.

    With shift = m + t (m an integer, |t| <= 1/2) the points are j + t over
    j in [m - K, m + K].  Those with |j| <= NEAR are summed directly; their
    squares 1 + (j + t)^2 are formed once for all exponents.  Beyond them
    each side is one run x = a, a + 1, .., b of |j + t|, and with A = a - 1/2,
    B = b + 1/2 the midpoint Euler-Maclaurin formula gives its sum as
    int_A^B g + C(B) - C(A), C from ``_midpoint_correction``.  With the tail
    T(B) added, int_A^B g + T(B) is T(A), so nothing is subtracted."""
    cutoff = cfg.cutoff
    if not abs(shift) <= cutoff:
        raise DomainError(f"lattice_sum needs |shift| <= cutoff {cutoff}, got {shift}")
    for expo in expos:
        if not expo > 0:
            raise DomainError(f"lattice_sum needs an exponent > 0, got {expo}")
    shift = float(shift)
    m = round(shift)
    t = shift - m  # exact, so every point and bound below is rounded once
    low, high = max(m - cutoff, -NEAR), min(m + cutoff, NEAR)
    squares = [1.0 + x * x for x in map(t.__radd__, range(low, high + 1))]
    # each side: its last directly summed |j|, its last |j| and its offset
    sides = ((high, m + cutoff, t), (-low, cutoff - m, -t))
    sums = []
    for expo in expos:
        parts = list(map(pow, squares, repeat(-expo)))
        for last, far, side in sides:
            end = far + 0.5 + side
            if last < far:
                start = last + 0.5 + side
                body = _tail_integral(start, expo) if cfg.tail_correction else _span_integral(start, end, expo)
                parts += (body, _midpoint_correction(end, expo), -_midpoint_correction(start, expo))
            elif cfg.tail_correction:
                parts.append(_tail_integral(end, expo))
        sums.append(math.fsum(parts))
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
    if isinstance(r, int) and abs(r) > sys.float_info.max:  # past every double: math.isfinite overflows
        raise DomainError(f"sf_integral needs a finite r > 0, got an r of {_digits(r)} digits")
    if not (r > 0 and math.isfinite(r)):
        raise DomainError(f"sf_integral needs a finite r > 0, got {r}")
    if r > REMAINDER_R_LIMIT and any(c.denominator != 1 for c, _ in x.terms):
        raise DomainError(
            f"sf_integral's remainder panel cannot resolve the lattice sum's peak past r = {REMAINDER_R_LIMIT} "
            f"for a coefficient with a fractional part; got r={r}"
        )
    largest = max(abs(c) for c, _ in x.terms)
    if cfg.cutoff <= largest:
        raise DomainError(f"cutoff {cfg.cutoff} must exceed the largest |c| {largest}")
    periods = math.floor(largest)
    if periods > PERIOD_LIMIT:
        raise DomainError(
            f"sf_integral takes two tail integrals per whole period of |c|; |c| = {largest} has "
            f"{periods} periods, past the limit of {PERIOD_LIMIT}"
        )
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


def _heat_reach(t: float, cutoff: int) -> int:
    """The last k a heat sum adds: e^(-t k^2) is exactly 0.0 past t k^2 = 746,
    so fsum's bits stay.  746/t is inf at subnormal t; t <= 0 or nan keeps all."""
    reach = math.sqrt(746 / t) if t > 0 else math.inf
    return cutoff if reach >= cutoff else math.ceil(reach)


def symmetric_heat_sum(t: float, cutoff: int) -> float:
    """sum_{|k|<=K} k e^(-t k^2); identically zero by symmetry.  Summed with
    fsum over exactly paired magnitudes, so the float result is exact."""
    reach = _heat_reach(t, cutoff)
    return math.fsum(k * math.exp(-t * k * k) for k in range(-reach, reach + 1))


def one_sided_heat_sum(t: float, cutoff: int) -> float:
    """sum_{k=1}^K k e^(-t k^2), the nonzero control for the eta check."""
    return math.fsum(k * math.exp(-t * k * k) for k in range(1, _heat_reach(t, cutoff) + 1))


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
