import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_beta_constant_closed_forms():
    assert beta_constant(1.0) == pytest.approx(math.pi, rel=1e-12)
    assert beta_constant(1.5) == pytest.approx(2.0, rel=1e-12)
    assert beta_constant(2.0) == pytest.approx(math.pi / 2, rel=1e-12)
    with pytest.raises(DomainError):
        beta_constant(0.5)


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


def test_sf_integral_against_adaptive_reference():
    cfg = SummationConfig(cutoff=10_000)
    fractional = [(Fraction(7, 3), Fraction(1, 3)), (Fraction(-1, 2), Fraction(1, 5))]
    # term j has period 1/20 in t, which a single-panel rule misses
    m20 = [(Fraction(-20), Fraction(1, 2**21)), (Fraction(20), Fraction(1, 2))]
    assert sf_integral(ProjectionPerturbation.from_pairs(fractional), 0.5, cfg) == pytest.approx(SF_FRACTIONAL, rel=1e-12)
    assert sf_integral(ProjectionPerturbation.from_pairs(m20), 0.5, cfg) == pytest.approx(SF_M20, rel=1e-12)


def _slow_path_integral(c: Fraction, r: float, cfg: SummationConfig) -> float:
    """sign(c) int_0^|c| lattice_sum / C by a 32-node Gauss-Legendre rule on
    unit x-panels (the last one cut at |c|): the reference for the closed
    form, which shares only lattice_sum's tail rule with it."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(32)
    top = float(abs(c))
    total = 0.0
    for left in range(math.ceil(top)):
        half = (min(left + 1.0, top) - left) / 2.0
        total += half * sum(wt * numerics.lattice_sum(left + half * (1.0 + t), 0.5 + r, cfg) for t, wt in zip(nodes, weights))
    return math.copysign(total, c) / beta_constant(0.5 + r)


@pytest.mark.parametrize("tails", [True, False])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 3.0])
def test_sf_integral_matches_slow_path(r, tails):
    cfg = SummationConfig(cutoff=2000, tail_correction=tails)
    for c in (1, -1, 3, -3, 20, Fraction(7, 3), Fraction(-1, 2), Fraction(13, 4), Fraction(-41, 5)):
        value = sf_integral(ProjectionPerturbation.from_pairs([(Fraction(c), Fraction(1))]), r, cfg)
        assert value == pytest.approx(_slow_path_integral(Fraction(c), r, cfg), rel=1e-12), c


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


def test_projection_perturbation_validation():
    with pytest.raises(UsageError):
        ProjectionPerturbation(((Fraction(0), Fraction(1, 2)),))
    with pytest.raises(UsageError):
        ProjectionPerturbation(((Fraction(1), Fraction(2)),))
    x = ProjectionPerturbation.from_pairs([(Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2))])
    assert x.zeroth_moment() == Fraction(1, 4)


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
    with pytest.raises(DomainError):
        eta_numeric(0.0, cfg)


def test_heat_sums():
    assert symmetric_heat_sum(0.1, 200) == 0.0
    assert symmetric_heat_sum(1.0, 50) == 0.0
    assert one_sided_heat_sum(1.0, 50) == pytest.approx(ONE_SIDED_T1, abs=1e-12)
    assert one_sided_heat_sum(1.0, 50) > 0


def test_summation_config_validation():
    with pytest.raises(UsageError):
        SummationConfig(cutoff=0)
