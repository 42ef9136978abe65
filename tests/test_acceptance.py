"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import random_element
from cuntzmod.algebra import adjoint, monomial, multiply, one, words_upto
from cuntzmod.expr import parse
from cuntzmod.flow import (
    aps_index_traces,
    closed_form_sf,
    cocycle_b_defect,
    correction_terms,
    flow_report,
    hochschild_orientation,
    sf_closed_form_chunk,
    spectral_flow,
    twisted_theta,
)
from cuntzmod.endos import key_fact_check, tracesplit_sweep
from cuntzmod.matrices import (
    AlgMatrix,
    build_u_mu_nu,
    build_u_v,
    find_nonmodular_product_witness,
    homotopy_path_check,
    modular_certificate,
    rotation_direct_sum_path,
    swap_two_stage_path,
)
from cuntzmod.modular import kms_sweep, state_psi, tomita_sweep
from cuntzmod.numerics import (
    ProjectionPerturbation,
    SummationConfig,
    dixmier_limit,
    eta_numeric,
    one_sided_heat_sum,
    sf_integral,
)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_spectral_flow_closed_form():
    start = time.time()
    cases = failures = 0
    for n in (2, 3, 4):
        for len_mu in range(1, 5):
            for len_nu in range(1, 5):
                if len_mu == len_nu:
                    continue
                chunk = sf_closed_form_chunk(n, len_mu, len_nu)
                cases += chunk["cases"]
                failures += chunk["failures"]
    elapsed = time.time() - start
    ok = failures == 0 and cases == 53276 and elapsed < 10.0
    report(1, ok, f"{cases} unitaries, {failures} failures, {elapsed:.2f}s (< 10 s)")


def test_criterion_02_kms_identity():
    start = time.time()
    r2 = kms_sweep(2, 2)
    r3 = kms_sweep(3, 2)
    elapsed = time.time() - start
    cases = r2["cases"] + r3["cases"]
    failures = r2["failures"] + r3["failures"]
    ok = failures == 0 and cases == 49**2 + 169**2 and elapsed < 30.0
    report(2, ok, f"{cases} pairs, {failures} failures, {elapsed:.2f}s (< 30 s)")


def test_criterion_03_tomita_axioms():
    r2 = tomita_sweep(2, 2)
    r3 = tomita_sweep(3, 2)
    cases = r2["cases"] + r3["cases"]
    failures = r2["failures"] + r3["failures"]
    ok = failures == 0 and cases == 14_749 + 172_549
    report(3, ok, f"{cases} axiom checks, {failures} failures")


def test_criterion_04_twisted_cocycle():
    ws = words_upto(2, 2)
    monos = [monomial(2, a, b) for a in ws for b in ws]
    failures = cases = 0
    ident = one(2)
    for a0 in monos:
        cases += 1
        if not twisted_theta(ident, a0).is_zero:
            failures += 1
    for a0, a1, a2 in itertools.product(monos, repeat=3):
        cases += 1
        if not cocycle_b_defect(a0, a1, a2).is_zero:
            failures += 1
    rng = random.Random(51)
    for _ in range(1000):
        a0 = random_element(rng, 3, max_terms=5, allow_zero=False)
        a1 = random_element(rng, 3, max_terms=5, allow_zero=False)
        a2 = random_element(rng, 3, max_terms=5, allow_zero=False)
        cases += 2
        if not cocycle_b_defect(a0, a1, a2).is_zero:
            failures += 1
        if not twisted_theta(one(3), a0).is_zero:
            failures += 1
    ok = failures == 0
    report(4, ok, f"{cases} cocycle evaluations (exhaustive n=2 + 1000 random n=3), {failures} failures")


def test_criterion_05_orientation_cycle():
    failures = 0
    for n in range(2, 7):
        r = hochschild_orientation(n)
        if not (r["boundary_is_zero"] and r["represents_identity"]):
            failures += 1
    ok = failures == 0
    report(5, ok, f"orientation chain exact for n in 2..6, {failures} failures")


def test_criterion_06_corrections_vanish():
    ws = words_upto(2, 4)
    failures = cases = 0
    for mu in ws:
        for nu in ws:
            cases += 1
            if correction_terms(build_u_v(monomial(2, mu, nu))) != (0, 0):
                failures += 1
    ok = failures == 0
    report(6, ok, f"eta and kernel corrections exactly (0,0) on {cases} u_v, {failures} failures")


def test_criterion_07_aps_traces():
    exact_pair = aps_index_traces(monomial(2, (1, 1), (2,)))
    failures = 0 if exact_pair == (Fraction(-1, 4), Fraction(1, 2)) else 1
    ws = words_upto(2, 4)
    cases = 1
    for mu in ws:
        for nu in ws:
            v = monomial(2, mu, nu)
            pair = aps_index_traces(v)
            cases += 1
            if pair[0] + pair[1] != spectral_flow(build_u_v(v)):
                failures += 1
    probe_words = words_upto(2, 3)
    probes = [monomial(2, a, b) for a in probe_words for b in probe_words]
    for mu in words_upto(2, 2):
        for nu in words_upto(2, 2):
            for k in (-2, -1, 0, 1, 2):
                cases += 1
                if not key_fact_check(monomial(2, mu, nu), k, probes):
                    failures += 1
    ok = failures == 0
    report(7, ok, f"APS pair (-1/4, 1/2) exact; {cases} consistency and key-fact cases, {failures} failures")


def test_criterion_08_trace_split():
    r2 = tracesplit_sweep(2, 2)
    r3 = tracesplit_sweep(3, 2)
    failures = r2["failures"] + r3["failures"]
    ok = failures == 0
    report(8, ok, f"{r2['cases'] + r3['cases']} trace-split identities, {failures} failures")


def test_criterion_09_dixmier_limit():
    start = time.time()
    cfg = SummationConfig(cutoff=100_000)
    schedule = [1.1, 1.05, 1.02, 1.01]
    plain = dixmier_limit(2, schedule, cfg)
    weighted = dixmier_limit(2, schedule, cfg, weight=Fraction(1, 2))
    quarter = dixmier_limit(3, schedule, cfg, weight=Fraction(1, 4))
    elapsed = time.time() - start
    ok = (
        abs(plain - 2.0) < 1e-2
        and abs(weighted - 1.0) < 1e-2
        and abs(quarter - 0.5) < 1e-2
        and elapsed < 5.0
    )
    report(9, ok, f"extrapolated {plain:.5f} (target 2 +- 1e-2), weighted variants ok, {elapsed:.2f}s (< 5 s)")


def test_criterion_10_integral_formula():
    start = time.time()
    x = ProjectionPerturbation.from_pairs([(Fraction(-1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2))])
    cfg = SummationConfig(cutoff=10_000)
    values = {r: sf_integral(x, r, cfg) for r in (0.25, 0.5, 1.0)}
    elapsed = time.time() - start
    close = all(abs(v - 0.25) < 1e-4 for v in values.values())
    spread = max(abs(a - b) for a in values.values() for b in values.values())
    ok = close and spread < 1e-3 and elapsed < 10.0
    report(10, ok, f"sf integral at r=0.25/0.5/1.0 within 1e-4 of 1/4, spread {spread:.2e} (< 1e-3), {elapsed:.2f}s")


def test_criterion_11_eta_vanishing():
    cfg = SummationConfig(cutoff=100)
    vals = [eta_numeric(0.1, cfg), eta_numeric(1.0, cfg)]
    control = one_sided_heat_sum(1.0, 100)
    ok = all(abs(v) < 1e-14 for v in vals) and control > 0.4
    report(11, ok, f"eta terms {vals} (< 1e-14); one-sided control {control:.6f} nonzero")


def test_criterion_12_relative_entropy():
    rng = random.Random(12)
    failures = cases = 0
    for n in (2, 3, 4):
        for len_mu in range(1, 5):
            for len_nu in range(1, 5):
                if len_mu == len_nu:
                    continue
                for _ in range(2):
                    mu = tuple(rng.randint(1, n) for _ in range(len_mu))
                    nu = tuple(rng.randint(1, n) for _ in range(len_nu))
                    rep = flow_report(n, mu, nu)
                    target = math.log(n) * float(closed_form_sf(n, mu, nu))
                    cases += 1
                    if abs(rep.entropy - target) > abs(target) * 1e-12:
                        failures += 1
    ok = failures == 0
    report(12, ok, f"entropy == ln(n)*sf to 12 significant digits on {cases} reports, {failures} failures")


def test_criterion_13_homotopy_checks():
    u = build_u_mu_nu(2, (1, 1), (2,))
    v = build_u_mu_nu(2, (1,), (2,))
    rot = homotopy_path_check(rotation_direct_sum_path(u, v), samples=21)
    swap = homotopy_path_check(swap_two_stage_path(2, (1, 1), (2,)), samples=21)
    witness = find_nonmodular_product_witness(2)
    witness_ok = False
    if witness is not None:
        product = AlgMatrix.single(
            multiply(parse(witness["left_expr"], 2), parse(witness["right_expr"], 2))
        )
        defect = modular_certificate(product)[1]
        witness_ok = (not defect.is_zero) and str(defect) == witness["defect"]
    worst = max(
        max(s["unitarity_defect"], s["modular_defect"]) for s in rot["samples"] + swap["samples"]
    )
    ok = rot["passed"] and swap["passed"] and worst < 1e-12 and witness_ok
    report(13, ok, f"21-sample paths max defect {worst:.2e} (< 1e-12); witness defect {witness and witness['defect']}")


def test_criterion_14_equality_oracle():
    rng = random.Random(14)
    relator = one(2) - monomial(2, (1,), (1,)) - monomial(2, (2,), (2,))
    disagreements = 0
    from cuntzmod.algebra import equals

    for _ in range(10_000):
        a = random_element(rng, 2, max_terms=6, max_len=2)
        b = random_element(rng, 2, max_terms=6, max_len=2)
        roll = rng.random()
        if roll < 0.15:
            b = a + multiply(relator, random_element(rng, 2, max_terms=2))
        elif roll < 0.25:
            b = a
        diff = a - b
        oracle = state_psi(multiply(adjoint(diff), diff)).is_zero
        if equals(a, b) != oracle:
            disagreements += 1
    ok = disagreements == 0
    report(14, ok, f"equals vs psi-norm oracle on 10000 randomized pairs, {disagreements} disagreements")
