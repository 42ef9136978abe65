import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import oracle_heat_sums, oracle_lattice_sum

import cuntzmod
from cuntzmod import numerics
from cuntzmod.errors import DomainError, UsageError
from cuntzmod.flow import projection_perturbation_data
from cuntzmod.numerics import (
    ProjectionPerturbation,
    SummationConfig,
    beta_constant,
    dixmier_limit,
    eta_numeric,
    lattice_sum,
    one_sided_heat_sum,
    sf_integral,
    symmetric_heat_sum,
)

# independently computed reference values (direct summation oracles)
PI_COTH_PI = 3.153348094952035  # sum_{k in Z} 1/(1+k^2)
ONE_SIDED_T1 = 0.4048813985713107  # sum_{k>=1} k e^{-k^2}
# sf_integral at r = 1/2, cutoff 10_000, from scipy.integrate.quad (epsabs 1e-9)
SF_FRACTIONAL = 0.6779492134117977  # [(7/3, 1/3), (-1/2, 1/5)]
SF_M20 = 9.999990463257362  # [(-20, 2^-21), (20, 1/2)]


# T(a) = int_a^inf (1+y^2)^(-e) dy from its closed form
# a^(1-2e)/(2e-1) 2F1(e, e-1/2; e+1/2; -1/a^2), computed with mpmath.hyp2f1 at
# 60 digits with e the exact double below, and rounded to 20 digits.  Row e,
# column a in TAIL_LOWERS.
TAIL_LOWERS = (0.5, 1, 1.5, 2, 20, 100.5, 100000.5)
TAIL_CLOSED_FORM = {
    0.505: (
        100.21041388749654293, 99.81113304908882544, 99.499196272731029796, 99.252049443838481335,
        97.04808604127788506, 95.494471902381293305, 89.125089357108634159,
    ),
    0.55: (
        10.197322729743466492, 9.8058752598046541673, 9.5067081650899202742, 9.2745576793420624581,
        7.4108597053471458665, 6.3064109512423867729, 3.1622760790256092533,
    ),
    0.75: (
        2.1497747817275168262, 1.7911613381111823392, 1.5425938339671308147, 1.3667569208961671076,
        0.4470460938871534015, 0.19949890453843346579, 0.0063245395089128831372,
    ),
    1: (
        1.107148717794090503, 0.78539816339744830962, 0.58800260354756755125, 0.46364760900080611621,
        0.04995839572194276141, 0.0099499203928051694529, 9.9999499999166704166e-6,
    ),
    1.5: (
        0.55278640450004206072, 0.2928932188134524756, 0.16794970566215631697, 0.10557280900008412144,
        0.0012476611221553253019, 0.00004950004953037218529, 4.999950000000005e-11,
    ),
    3.5: (
        0.14217050846937012244, 0.026573473482974274179, 0.0055475844989141450461, 0.0014472970853833575475,
        2.5871534345013223372e-9, 1.6171098175800853734e-13, 1.6666166671041724998e-31,
    ),
}
# sf_integral of [(c, 1)] at r and cutoff K, each in closed form with mpmath at
# 60 digits, e = 0.5 + r rounded to a double as sf_integral rounds it, and
# G(y) = int_0^y (1+t^2)^(-e) dt = y 2F1(1/2, e; 3/2; -y^2):
#   sign(c)/C_e * [sum_{|k|<=K} (G(k+|c|) - G(k)) + int_{K+1/2-|c|}^{K+1/2+|c|} T],
#   int_al^be T = (be-al) C_e/2 - [y G(y) - (1+y^2)^(1-e) / (2-2e)]_al^be
# (ln(1+y^2)/2 in place of the last term at e = 1), rounded to 20 digits.  mpmath.quad of the tail-corrected lattice sum agreed
# with three of them to 1e-30.  Row (c, r), column K in SF_CUTOFFS.
SF_CUTOFFS = (2, 5, 20)
SF_CLOSED_FORM = {
    (1, 0.1): (1.0010137245158374542, 1.0002028276092459101, 1.0000114687997315322),
    (1, 0.5): (1.002966016562884197, 1.0003139521842786765, 1.000006152708204238),
    (1, 3): (1.0004747940177271814, 1.0000007537788113552, 1.0000000000177561329),
    (Fraction(1, 2), 0.1): (0.50046769671680990452, 0.50009879634632511445, 0.500005722494633936),
    (Fraction(1, 2), 0.5): (0.5012807702333160271, 0.50015006807350133485, 0.50000306546853487155),
    (Fraction(1, 2), 3): (0.50010178321884020675, 0.50000029001747882399, 0.50000000000869175769),
    (Fraction(-7, 4), 0.1): (-1.7521007644519953366, -1.7503135953075272821, -1.749951360464289449),
    (Fraction(-7, 4), 0.5): (-1.7569985746296663957, -1.7500301970987242713, -1.7494164482691838876),
    (Fraction(-7, 4), 3): (-1.7385503261133770077, -1.7325285382167600196, -1.732525887194665001),
    (Fraction(3, 2), 0.1): (1.5017283721711106074, 1.5003181518900515078, 1.5000172630325163309),
    (Fraction(3, 2), 0.5): (1.505647113788870092, 1.5005085911899318655, 1.5000092838765302989),
    (Fraction(3, 2), 3): (1.5025025739475766515, 1.500001731226811854, 1.5000000000275902357),
}


def test_beta_constant_closed_forms():
    assert beta_constant(1.0) == pytest.approx(math.pi, rel=1e-12)
    assert beta_constant(1.5) == pytest.approx(2.0, rel=1e-12)
    assert beta_constant(2.0) == pytest.approx(math.pi / 2, rel=1e-12)
    with pytest.raises(DomainError):
        beta_constant(0.5)


# C_s = B(1/2, s - 1/2) by mpmath at 50 digits, and at 400 from 1e306 on,
# past 2.56e305, where math.lgamma(s) overflows
BETA_REFERENCE = {
    10.0: 0.5826730148984365358507298,
    16.0: 0.453848448838170454337349,
    1e4: 0.01772520321386930666429342,
    1e8: 0.0001772453857552218002812092,
    1e12: 0.000001772453850906180697492257,
    1e16: 1.772453850905516093765187e-8,
    1e306: 1.772453850905516012040827e-153,
    1e307: 5.604991216397928738459176e-154,
    1e308: 1.772453850905516017568226e-154,
}


@pytest.mark.parametrize("s", sorted(BETA_REFERENCE))
def test_beta_constant_is_accurate_for_large_s(s):
    # lgamma(s - 1/2) - lgamma(s) read 2.9e-8 relative at 1e8 and 1.0 at 1e16;
    # at the switch each Stirling term the series keeps moves C_s by over 1e-14
    assert beta_constant(s) == pytest.approx(BETA_REFERENCE[s], rel=1e-14 if s > 16 else 2e-15, abs=0)


def test_beta_constant_below_the_switch_keeps_the_log_gamma_bits():
    below = [0.5000001, 0.75, 1.0, 1.5, 2.0, 3.7, 5.0, 9.25, 9.999, math.nextafter(numerics.STIRLING_FROM, 0)]
    below += [0.5 + k / 64 for k in range(1, 608)]
    for s in below:
        assert s < numerics.STIRLING_FROM
        assert beta_constant(s) == math.exp(0.5 * math.log(math.pi) + math.lgamma(s - 0.5) - math.lgamma(s)), s


def test_beta_constant_refuses_only_a_non_finite_s():
    top = sys.float_info.max
    assert beta_constant(top) == pytest.approx(math.sqrt(math.pi / top), rel=1e-15, abs=0)
    for s in (math.inf, math.nan):
        with pytest.raises(DomainError, match=rf"^C_s needs a finite s; got s={s}$"):
            beta_constant(s)


def test_an_int_past_the_largest_double_is_refused_by_its_digit_count():
    # float(10**400) overflows; the refusal counts digits, since str() of
    # an int past 4,300 digits raises
    x = ProjectionPerturbation.from_pairs([(Fraction(1), Fraction(1))])
    for value, digits in ((10**400, 401), (-(10**400), 401), (10**5000, 5001)):
        with pytest.raises(DomainError, match=rf"^C_s needs a finite s; got an s of {digits} digits$"):
            beta_constant(value)
        with pytest.raises(DomainError, match=rf"^sf_integral needs a finite r > 0, got an r of {digits} digits$"):
            sf_integral(x, value, SummationConfig())
    assert sf_integral(x, 10**300, SummationConfig()) == 1.0
    # only an int past every double is read by its digits: a string is
    # still refused, and a small int is shown as it is
    with pytest.raises(TypeError):
        beta_constant("3")
    with pytest.raises(TypeError):
        sf_integral(x, "2", SummationConfig())
    with pytest.raises(DomainError, match=r"^C_s diverges for s <= 1/2, got s=0$"):
        beta_constant(0)
    with pytest.raises(DomainError, match=r"^sf_integral needs a finite r > 0, got -1$"):
        sf_integral(x, -1, SummationConfig())


def test_digit_count_is_exact_at_each_power_of_ten():
    # log10 rounds 10**k - 1 up to k for large k; the count corrects it
    for k in range(1, 4300, 7):
        for value in (10**k - 1, 10**k, -(10**k)):
            assert numerics._digits(value) == len(str(abs(value))), value


def test_beta_constant_normalisation_limit():
    # (s-1)/2 * C_{s/2} -> 1 as s -> 1+
    values = [(s - 1) / 2 * beta_constant(s / 2) for s in (1.1, 1.01, 1.001)]
    errors = [abs(v - 1.0) for v in values]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-3


def test_dixmier_limit():
    cfg = SummationConfig(cutoff=100_000)
    value = dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], cfg)
    assert abs(value - 2.0) < 1e-2


def test_dixmier_limit_weighted():
    cfg = SummationConfig(cutoff=100_000)
    value = dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], cfg, weight=Fraction(1, 2))
    assert abs(value - 1.0) < 1e-2


def test_dixmier_single_point_against_series_oracle():
    cfg = SummationConfig(cutoff=10_000)
    value = dixmier_limit(2, [2.0], cfg)
    assert value == pytest.approx(PI_COTH_PI, abs=1e-10)


def test_dixmier_refinement_stability():
    base = dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], SummationConfig(cutoff=100_000))
    doubled = dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], SummationConfig(cutoff=200_000))
    assert abs(base - doubled) < 1e-2


def test_dixmier_validation():
    cfg = SummationConfig(cutoff=100_000)
    with pytest.raises(DomainError):
        dixmier_limit(2, [0.9], cfg)
    with pytest.raises(DomainError):
        dixmier_limit(2, [1.1], SummationConfig(cutoff=10))
    with pytest.raises(UsageError):
        dixmier_limit(2, [], cfg)
    with pytest.raises(UsageError, match="^need n >= 2, got 1$"):
        dixmier_limit(1, [1.1, 1.05], cfg)


def test_dixmier_refuses_degenerate_schedule(monkeypatch):
    # a line through one repeated abscissa has no intercept: refused before
    # any lattice sum, while a one-element schedule keeps its plain value
    monkeypatch.setattr(numerics, "_lattice_sums", None)
    cfg = SummationConfig(cutoff=100_000)
    for schedule in ([1.1, 1.1], [1.5, 1.5, 1.5]):
        with pytest.raises(DomainError, match="two distinct s"):
            dixmier_limit(2, schedule, cfg)


def test_integer_sf_integral_has_no_lattice_budget():
    huge = SummationConfig(cutoff=10**11)
    integer = ProjectionPerturbation.from_pairs([(Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2))])
    assert sf_integral(integer, 0.5, huge) == 0.25


# The same truncated sums plus tails at huge cutoffs, with mpmath at 50 digits
# and rounded to 30 (doubles as the code rounds them: e = s/2, 1/2 + r):
#   lattice: at e = 1 the tail-corrected sum equals the infinite one,
#     pi sinh(2 pi)/(cosh(2 pi) - cos(2 pi a)), to far below 30 digits; at
#     e = 3/4 without tails, 300 points each side directly and each run by
#     mpmath.sumem;
#   dixmier: its four such sums at shift 0, each (s-1) times, and the
#     least-squares intercept in 50 digits;
#   sf_integral: the c = 1/2 and c = -3/2 bodies as unions of half-unit
#     intervals, G(K+1/2) + int_K^{K+1} T and C - T(K) - T(K+1)
#     + int_{K-1/2}^{K+3/2} T + G(K-1/2) + int_K^{K+1/2} g + int_{K+1}^{K+3/2} g
#     + int_{K+3/2}^{K+2} T + int_{K-1}^{K-1/2} T, over C, weighted 1/3 and 1/5.
LATTICE_E1_SHIFT_03 = 3.13794911242356773332852144823  # lattice_sum(0.3, 1, cutoff 10^12)
LATTICE_E075_SHIFT_M27_NO_TAILS = 5.24191023081018557429931267182  # lattice_sum(-2.7, 0.75), tails off
DIXMIER_AT_10_12 = 2.00057165608019324984175150130  # s in (1.1, 1.05, 1.02, 1.01)
SF_FRACTIONAL_AT_10_11 = -0.133333333333333333333333334076  # [(1/2, 1/3), (-3/2, 1/5)] at r = 0.1


def _cpu(call):
    start = time.process_time()
    value = call()
    return value, time.process_time() - start


def test_huge_cutoffs_answer_in_bounded_cpu():
    # the work no longer grows with the cutoff: each call takes under 1 ms of
    # CPU here (2-core Xeon VM), against 50 ms allowed
    cases = [
        (lambda: lattice_sum(0.3, 1.0, SummationConfig(10**12)), LATTICE_E1_SHIFT_03),
        (lambda: lattice_sum(-2.7, 0.75, SummationConfig(10**12, False)), LATTICE_E075_SHIFT_M27_NO_TAILS),
        (lambda: dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], SummationConfig(10**12)), DIXMIER_AT_10_12),
        (
            lambda: sf_integral(
                ProjectionPerturbation([(Fraction(1, 2), Fraction(1, 3)), (Fraction(-3, 2), Fraction(1, 5))]),
                0.1,
                SummationConfig(10**11),
            ),
            SF_FRACTIONAL_AT_10_11,
        ),
        (lambda: eta_numeric(0.1, SummationConfig(10**12)), 0.0),  # its heat sums stop at k = 87
    ]
    for call, want in cases:
        value, cpu = _cpu(call)
        assert value == pytest.approx(want, rel=2e-15, abs=0)
        assert cpu < 0.05


def test_lattice_cost_does_not_grow_with_the_cutoff():
    small, huge = SummationConfig(10**3), SummationConfig(10**12)
    for _ in range(3):
        _, at_small = _cpu(lambda: [lattice_sum(0.3, 0.75, small) for _ in range(50)])
        _, at_huge = _cpu(lambda: [lattice_sum(0.3, 0.75, huge) for _ in range(50)])
        if at_huge < 2 * at_small:
            break
    assert at_huge < 2 * at_small


@pytest.mark.parametrize("cutoff", [numerics.NEAR - 1, numerics.NEAR, numerics.NEAR + 1, 2 * numerics.NEAR])
def test_lattice_sum_across_the_direct_range_matches_the_oracle(cutoff):
    # cutoffs on either side of NEAR, where the runs summed by Euler-Maclaurin
    # begin, and shifts that put one run at full length and the other empty
    shifts = (0.0, 0.3, -2.7, cutoff, -cutoff, cutoff - 0.5, -(cutoff - 0.5))
    worst = 0.0
    for tails in (True, False):
        cfg = SummationConfig(cutoff=cutoff, tail_correction=tails)
        for shift in shifts:
            for expo, got in zip(LATTICE_EXPOS, numerics._lattice_sums(shift, LATTICE_EXPOS, cfg)):
                want = oracle_lattice_sum(shift, expo, cfg)
                worst = max(worst, abs(got - want) / want)
    assert worst < 2e-15


def test_lattice_sum_needs_a_positive_exponent():
    for expo in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError, match="exponent > 0"):
            lattice_sum(0.0, expo, SummationConfig(cutoff=10, tail_correction=False))


def test_cutoff_limit_is_where_the_doubles_end():
    # (2K + 1)^2 must stay a double; 10^153 answers, one more is refused
    at = SummationConfig(numerics.CUTOFF_LIMIT)
    assert math.isfinite(lattice_sum(float(at.cutoff), 0.75, at))
    assert math.isfinite(lattice_sum(-0.3, 0.75, SummationConfig(numerics.CUTOFF_LIMIT, False)))
    for cutoff, digits in ((numerics.CUTOFF_LIMIT + 1, 154), (10**200 - 1, 200), (10**400, 401), (10**5000, 5001)):
        with pytest.raises(UsageError, match=rf"cutoff must be <= 10\*\*153, .* got a {digits}-digit cutoff"):
            SummationConfig(cutoff)


def test_sf_integral_reproduces_exact_flow():
    data = projection_perturbation_data(2, (1, 1), (2,))
    x = ProjectionPerturbation.from_pairs(data)
    cfg = SummationConfig(cutoff=10_000)
    values = {r: sf_integral(x, r, cfg) for r in (0.25, 0.5, 1.0)}
    for r, value in values.items():
        assert abs(value - 0.25) < 1e-4, (r, value)
    pairwise = [abs(a - b) for a in values.values() for b in values.values()]
    assert max(pairwise) < 1e-3


def test_sf_integral_n3():
    x = ProjectionPerturbation.from_pairs(projection_perturbation_data(3, (1, 2), (3,)))
    value = sf_integral(x, 1.0, SummationConfig(cutoff=10_000))
    assert abs(value - 2 / 9) < 1e-4


def test_sf_integral_takes_raw_pairs_at_a_large_r():
    # Raw (c, w) pairs are converted to a ProjectionPerturbation, here at the
    # largest r a fractional coefficient is taken at.  The exact flow is 1/8.
    pairs = [(Fraction(5, 2), Fraction(1, 4)), (Fraction(-1), Fraction(1, 2))]
    cfg = SummationConfig(1000, tail_correction=False)
    r = numerics.REMAINDER_R_LIMIT
    value = sf_integral(pairs, r, cfg)
    assert value == sf_integral(ProjectionPerturbation.from_pairs(pairs), r, cfg)
    assert abs(value - 0.125) < 1e-12
    # At exponent 200.5 the runs past the directly summed points underflow:
    # the span integral's scale a^(1 - 2e) and the midpoint correction's g(y) are 0.
    assert lattice_sum(2.25, 200.5, cfg) == pytest.approx(oracle_lattice_sum(2.25, 200.5, cfg), rel=1e-14)


def test_sf_integral_refuses_a_fractional_coefficient_past_the_remainder_limit():
    # For this example at cutoff 10^4 the one remainder panel lost 6.8e-5 of
    # itself at r = 10^3 and returned 0.0 at r = 10^8.  Up to the limit the
    # answer is within 1e-12 of 1/8; past it, it is refused.
    assert numerics.REMAINDER_R_LIMIT == 20
    pairs = [(Fraction(5, 2), Fraction(1, 4)), (Fraction(-1), Fraction(1, 2))]
    cfg = SummationConfig(10_000)
    for r in (0.25, 0.5, 1.0, 5.0, 10.0, 19.5, 20):
        assert abs(sf_integral(pairs, r, cfg) - 0.125) < 1e-12, r
    for r in (20.000001, 26.0, 1e3, 1e8, 1e300, 1.7e308):
        with pytest.raises(DomainError) as caught:
            sf_integral(pairs, r, cfg)
        assert str(caught.value) == (
            "sf_integral's remainder panel cannot resolve the lattice sum's peak past r = 20 "
            f"for a coefficient with a fractional part; got r={r}"
        )
    # integer coefficients never call lattice_sum and meet no such bound
    integer = [(Fraction(3), Fraction(1, 4)), (Fraction(-1), Fraction(1, 2))]
    assert sf_integral(integer, 1e300, cfg) == pytest.approx(0.25, abs=1e-12)


def test_remainder_panel_holds_1e_12_at_the_limit():
    # sf_integral's panel over [2, 2 + f], read as the difference of two
    # calls, against the same 16-node rule over 64 equal pieces; fractional
    # parts near 1 lose most (6e-13 relative at r = 20, 5e-12 at r = 26)
    r = numerics.REMAINDER_R_LIMIT
    expo, cfg = 0.5 + r, SummationConfig(1000)
    whole = sf_integral([(Fraction(2), Fraction(1))], r, cfg)
    for f in (Fraction(1, 100), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(999_999, 10**6)):
        width = float(f) / 64
        pieces = math.fsum(
            wt * lattice_sum(2 + width * (j + (1 + t) / 2), expo, cfg)
            for j in range(64) for node, wt in numerics.REMAINDER_RULE for t in (-node, node)
        )
        panel = sf_integral([(2 + f, Fraction(1))], r, cfg) - whole
        assert panel == pytest.approx(width / 2 * pieces / beta_constant(expo), rel=1e-12), f


def test_sf_integral_against_adaptive_reference():
    cfg = SummationConfig(cutoff=10_000)
    fractional = [(Fraction(7, 3), Fraction(1, 3)), (Fraction(-1, 2), Fraction(1, 5))]
    # term j has period 1/20 in t, which a single-panel rule misses
    m20 = [(Fraction(-20), Fraction(1, 2**21)), (Fraction(20), Fraction(1, 2))]
    assert sf_integral(ProjectionPerturbation.from_pairs(fractional), 0.5, cfg) == pytest.approx(SF_FRACTIONAL, rel=1e-12)
    assert sf_integral(ProjectionPerturbation.from_pairs(m20), 0.5, cfg) == pytest.approx(SF_M20, rel=1e-12)


def _slow_path_integral(c: Fraction, r: float, cfg: SummationConfig) -> float:
    """sign(c) int_0^|c| L / C by a 32-node Gauss-Legendre rule on unit
    x-panels (the last one cut at |c|), with L the numpy grid sum
    conftest.oracle_lattice_sum: the reference for the closed form, which
    shares only the tail series of _tail_integral with it."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(32)
    top = float(abs(c))
    total = 0.0
    for left in range(math.ceil(top)):
        half = (min(left + 1.0, top) - left) / 2.0
        total += half * sum(wt * oracle_lattice_sum(left + half * (1.0 + t), 0.5 + r, cfg) for t, wt in zip(nodes, weights))
    return math.copysign(total, c) / beta_constant(0.5 + r)


@pytest.mark.parametrize("tails", [True, False])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 3.0])
def test_sf_integral_matches_slow_path(r, tails):
    cfg = SummationConfig(cutoff=2000, tail_correction=tails)
    for c in (1, -1, 3, -3, 20, Fraction(7, 3), Fraction(-1, 2), Fraction(13, 4), Fraction(-41, 5)):
        value = sf_integral(ProjectionPerturbation.from_pairs([(Fraction(c), Fraction(1))]), r, cfg)
        assert value == pytest.approx(_slow_path_integral(Fraction(c), r, cfg), rel=1e-12), c


@pytest.mark.parametrize("expo", TAIL_CLOSED_FORM)
def test_tail_integral_matches_closed_form(expo):
    for lower, want in zip(TAIL_LOWERS, TAIL_CLOSED_FORM[expo]):
        assert numerics._tail_integral(lower, expo) == pytest.approx(want, rel=2e-15, abs=0), lower


@pytest.mark.parametrize("c, r", SF_CLOSED_FORM, ids=str)
def test_sf_integral_matches_closed_form_at_small_cutoffs(c, r):
    x = ProjectionPerturbation.from_pairs([(Fraction(c), Fraction(1))])
    for cutoff, want in zip(SF_CUTOFFS, SF_CLOSED_FORM[c, r]):
        assert sf_integral(x, r, SummationConfig(cutoff=cutoff)) == pytest.approx(want, rel=0, abs=1e-14), cutoff


def test_tail_bounds_stay_at_one_half_or_more():
    # the tail series needs about 1/a^2 terms, so bounds below 1/2 are refused
    assert numerics._tail_integral(0.5, 1.0) == pytest.approx(math.atan(2.0), rel=1e-15)
    for lower in (0.4999, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="lower bound >= 1/2"):
            numerics._tail_integral(lower, 1.0)
    with pytest.raises(DomainError, match="diverges"):
        numerics._tail_integral(1.0, 0.5)
    # at |shift| = cutoff one tail starts at 1/2: at e = 1, T(a) = pi/2 - atan(a)
    cfg = SummationConfig(cutoff=10)
    edge = math.fsum(1 / (1 + m * m) for m in range(21)) + math.pi - math.atan(20.5) - math.atan(0.5)
    for shift in (10.0, -10.0):
        assert lattice_sum(shift, 1.0, cfg) == pytest.approx(edge, rel=1e-14)
    for shift in (10.5, -10.001, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"\|shift\| <= cutoff 10"):
            lattice_sum(shift, 1.0, cfg)


def test_sf_integral_refuses_past_the_period_limit_before_any_integral(monkeypatch):
    cfg = SummationConfig(cutoff=10**120)
    assert numerics.PERIOD_LIMIT == 10**6
    monkeypatch.setattr(numerics, "_tail_integral", None)  # any integral would raise TypeError
    monkeypatch.setattr(numerics, "lattice_sum", None)
    for c in (Fraction(10**6 + 1), Fraction(-2 * 10**6 - 3, 2), Fraction(10**100)):
        periods = math.floor(abs(c))
        data = [(Fraction(1, 2), Fraction(1, 3)), (c, Fraction(1, 5))]
        with pytest.raises(DomainError) as caught:
            sf_integral(data, 0.5, cfg)
        assert str(caught.value) == (
            f"sf_integral takes two tail integrals per whole period of |c|; |c| = {abs(c)} has "
            f"{periods} periods, past the limit of 1000000"
        )


def test_sf_integral_period_limit_admits_its_own_count(monkeypatch):
    monkeypatch.setattr(numerics, "PERIOD_LIMIT", 3)
    cfg = SummationConfig(cutoff=10_000)
    for c in (Fraction(3), Fraction(-7, 2)):
        assert sf_integral([(c, Fraction(1, 2))], 0.5, cfg) == pytest.approx(float(c) / 2, abs=1e-12)
    with pytest.raises(DomainError, match=r"\|c\| = 4 has 4 periods, past the limit of 3"):
        sf_integral([(Fraction(4), Fraction(1, 2))], 0.5, cfg)


def test_sf_integral_sums_lattice_only_for_fractional_coefficients(monkeypatch):
    calls = []
    lattice_sum = numerics.lattice_sum

    def counted(shift, expo, cfg):
        calls.append(shift)
        return lattice_sum(shift, expo, cfg)

    monkeypatch.setattr(numerics, "lattice_sum", counted)
    cfg = SummationConfig(cutoff=10_000)
    criterion_10 = [(Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2))]
    m20 = [(Fraction(-20), Fraction(1, 2**21)), (Fraction(20), Fraction(1, 2))]
    for data in (criterion_10, m20):
        sf_integral(ProjectionPerturbation.from_pairs(data), 0.5, cfg)
    assert calls == []
    mixed = [(Fraction(7, 3), Fraction(1, 3)), (Fraction(-1, 2), Fraction(1, 5)), (Fraction(3), Fraction(1, 4))]
    sf_integral(ProjectionPerturbation.from_pairs(mixed), 0.5, cfg)
    assert len(calls) == 2 * numerics.REMAINDER_NODES == 32
    assert all(2 < s < 7 / 3 for s in calls[:16]) and all(0 < s < 1 / 2 for s in calls[16:])


def test_cli_import_loads_no_scipy():
    code = "import sys, cuntzmod.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
    src = str(Path(cuntzmod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_sf_integral_validation():
    x = ProjectionPerturbation.from_pairs([(Fraction(1), Fraction(1, 2))])
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sf_integral(x, r, SummationConfig())
    with pytest.raises(UsageError):
        sf_integral(ProjectionPerturbation(()), 0.5, SummationConfig())
    huge = ProjectionPerturbation.from_pairs([(Fraction(50), Fraction(1, 2))])
    for tails in (True, False):
        with pytest.raises(DomainError, match=r"cutoff 10 must exceed the largest \|c\| 50"):
            sf_integral(huge, 0.5, SummationConfig(cutoff=10, tail_correction=tails))


def test_sf_integral_refuses_an_r_that_vanishes_beside_one_half():
    # 1/2 + r rounds to 1/2 for 0 < r <= 2^-54; the refusal names r, not the exponent
    x = ProjectionPerturbation.from_pairs([(Fraction(1), Fraction(1, 2))])
    for r in (1e-17, 2.0**-54, 5e-324):
        with pytest.raises(DomainError, match=f"got r={r}, which rounds 1/2 \\+ r to 1/2"):
            sf_integral(x, r, SummationConfig())


def test_projection_perturbation_validation():
    with pytest.raises(UsageError):
        ProjectionPerturbation(((Fraction(0), Fraction(1, 2)),))
    with pytest.raises(UsageError):
        ProjectionPerturbation(((Fraction(1), Fraction(2)),))
    x = ProjectionPerturbation.from_pairs([(-1, Fraction(1, 4)), (1, Fraction(1, 2))])
    assert x.terms == ((Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2)))


def test_projection_perturbation_make_and_replace_validate():
    # namedtuple's own _make builds the tuple without __new__'s checks
    with pytest.raises(UsageError, match="weight 3 outside"):
        ProjectionPerturbation([(1, 1)])._replace(terms=((5, 3),))
    with pytest.raises(UsageError, match="nonzero"):
        ProjectionPerturbation._make([((0, 2),)])
    x = ProjectionPerturbation([(1, 1)])._replace(terms=((2, Fraction(1, 2)),))
    assert x == ProjectionPerturbation([(2, Fraction(1, 2))]) and type(x) is ProjectionPerturbation


def test_dixmier_functional_recovers_spectral_flow():
    # sf = (1/2) lim (s-1) tau_delta(u[D,u^*](1+D^2)^(-s/2)); the element
    # u[D,u^*] lies in F with trace equal to the zeroth moment, so the
    # weighted limit halves back to the exact flow
    from cuntzmod.flow import projection_perturbation_data

    data = projection_perturbation_data(2, (1, 1), (2,))
    weight = sum((c * w for c, w in data), Fraction(0))
    cfg = SummationConfig(cutoff=100_000)
    value = dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], cfg, weight=weight)
    assert abs(value / 2 - 0.25) < 1e-2


def test_eta_numeric():
    cfg = SummationConfig(cutoff=100)
    assert eta_numeric(0.1, cfg) == 0.0
    assert eta_numeric(1.0, cfg) == 0.0
    assert eta_numeric(5e-324, cfg) == 0.0  # 746 / t is inf here
    with pytest.raises(DomainError):
        eta_numeric(0.0, cfg)


def test_eta_numeric_refuses_an_asymmetric_heat_sum(monkeypatch):
    # fsum over exactly paired +-k terms returns exactly 0.0; patch in a residue
    monkeypatch.setattr(numerics, "symmetric_heat_sum", lambda t, cutoff: 3e-14)
    with pytest.raises(ArithmeticError) as caught:
        eta_numeric(0.1, SummationConfig(cutoff=100))
    assert type(caught.value) is ArithmeticError
    assert str(caught.value) == "heat sum asymmetry 3e-14 at t=0.1; spectral symmetry violated"


def test_heat_sums():
    assert symmetric_heat_sum(0.1, 200) == 0.0
    assert symmetric_heat_sum(1.0, 50) == 0.0
    assert one_sided_heat_sum(1.0, 50) == pytest.approx(ONE_SIDED_T1, abs=1e-12)
    assert one_sided_heat_sum(1.0, 50) > 0


def test_heat_sums_match_the_full_loop_bit_for_bit():
    # the sums stop at k = ceil(sqrt(746 / t)); every term past it is exactly
    # 0.0, so the bits match the loop over every k.  t = 5e-324 makes 746 / t
    # inf, 746 and 745 sit at the underflow, and a huge t keeps only k = 0
    for cutoff in (1, 2, 3, 10, 87, 88, 1000, 10**5):
        for t in (5e-324, 1e-12, 1e-3, 0.0746, 0.1, 1.0, 2.5, 745.0, 746.0, 1e300):
            got = (symmetric_heat_sum(t, cutoff), one_sided_heat_sum(t, cutoff))
            assert [x.hex() for x in got] == [x.hex() for x in oracle_heat_sums(t, cutoff)], (t, cutoff)


def test_summation_config_validation():
    with pytest.raises(UsageError):
        SummationConfig(cutoff=0)
    # a float cutoff would sum a shifted grid: 2.5 gave 3.1347 for pi coth pi
    for cutoff in (2.5, 1000.7, 1000.0, "5", True, False, None):
        with pytest.raises(UsageError, match="cutoff must be an integer"):
            SummationConfig(cutoff=cutoff)
        with pytest.raises(UsageError, match="cutoff must be an integer"):
            SummationConfig(cutoff, False)
    assert SummationConfig(cutoff=2).cutoff == 2
    with pytest.raises(UsageError, match="cutoff must be an integer"):
        SummationConfig()._replace(cutoff=2.5)
    with pytest.raises(UsageError, match="cutoff must be an integer"):
        SummationConfig._make((2.5, True))
    assert SummationConfig()._replace(cutoff=7) == SummationConfig(7)


LATTICE_EXPOS = (0.505, 0.55, 0.75, 1.0, 3.5)


@pytest.mark.parametrize("cutoff", [1, 2, 10, 2000, 100_000])
def test_lattice_sum_matches_the_numpy_grid_oracle(cutoff):
    # all exponents over one grid: lattice_sum reads the same sums one by one
    shifts = [s for s in (0.0, 0.3, -0.3, 2.7, cutoff, -cutoff, cutoff - 0.5) if abs(s) <= cutoff]
    worst = 0.0
    for tails in (True, False):
        cfg = SummationConfig(cutoff=cutoff, tail_correction=tails)
        for shift in shifts:
            for expo, got in zip(LATTICE_EXPOS, numerics._lattice_sums(shift, LATTICE_EXPOS, cfg)):
                want = oracle_lattice_sum(shift, expo, cfg)
                worst = max(worst, abs(got - want) / want)
    assert worst < 2e-15


def test_lattice_sums_share_one_grid_bit_for_bit():
    for cutoff, shift in ((50, 0.0), (50, 0.3), (50, -7.25), (50, 50.0), (1, -0.5)):
        cfg = SummationConfig(cutoff=cutoff)
        assert numerics._lattice_sums(shift, LATTICE_EXPOS, cfg) == [lattice_sum(shift, e, cfg) for e in LATTICE_EXPOS]


def test_remainder_rule_is_numpy_leggauss_16():
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(numerics.REMAINDER_NODES)
    assert all(x > 0 for x, _ in numerics.REMAINDER_RULE)
    rule = sorted((t, wt) for x, wt in numerics.REMAINDER_RULE for t in (-x, x))
    assert [t for t, _ in rule] == nodes.tolist()
    assert [wt for _, wt in rule] == weights.tolist()


@pytest.mark.parametrize("n, weight", [(2, 1), (2, Fraction(1, 2)), (3, Fraction(1, 4))])
def test_dixmier_intercept_matches_polyfit(n, weight):
    import numpy as np

    cfg = SummationConfig(cutoff=100_000)
    schedule = [1.1, 1.05, 1.02, 1.01]
    x = [s - 1.0 for s in schedule]
    y = [(s - 1.0) * lattice_sum(0.0, s / 2.0, cfg) * float(weight) for s in schedule]
    assert dixmier_limit(n, schedule, cfg, weight=weight) == pytest.approx(float(np.polyfit(x, y, 1)[1]), rel=0, abs=1e-14)


def test_numerics_run_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    fractional = ProjectionPerturbation.from_pairs([(Fraction(7, 3), Fraction(1, 3)), (Fraction(-1, 2), Fraction(1, 5))])
    assert abs(dixmier_limit(2, [1.1, 1.05, 1.02, 1.01], SummationConfig(cutoff=1000)) - 2.0) < 1e-1
    assert sf_integral(fractional, 0.5, SummationConfig()) == pytest.approx(SF_FRACTIONAL, rel=1e-12)
    assert eta_numeric(0.1, SummationConfig(cutoff=100)) == 0.0


def test_config_types_are_read_only_values():
    cfg = SummationConfig()
    assert cfg == SummationConfig(10_000, True) and hash(cfg) == hash(SummationConfig(cutoff=10_000))
    assert cfg != SummationConfig(tail_correction=False)
    assert repr(cfg) == "SummationConfig(cutoff=10000, tail_correction=True)"
    x = ProjectionPerturbation([(1, Fraction(1, 2)), (Fraction(-3, 2), Fraction(1, 4))])
    assert x == ProjectionPerturbation.from_pairs(x.terms) and hash(x) == hash(ProjectionPerturbation(x.terms))
    assert x.terms == ((Fraction(1), Fraction(1, 2)), (Fraction(-3, 2), Fraction(1, 4)))
    assert repr(x) == "ProjectionPerturbation(terms=((Fraction(1, 1), Fraction(1, 2)), (Fraction(-3, 2), Fraction(1, 4))))"
    for obj, field in ((cfg, "cutoff"), (cfg, "tail_correction"), (x, "terms"), (cfg, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
