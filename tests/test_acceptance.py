"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Stochastic criteria run at the frozen seed ACCEPT_SEED; the samplers are
deterministic for a given seed regardless of thread count, so these are exact
regression tests.  Criteria 4, 6, 7, 8, 9 and 10 measure through the same
``sepprob.checks`` functions as ``verify all``, at this module's seeds and
counts, and criteria 8 and 9 also decide through them.  Every other bound is
pinned here, except criterion 6's quadrature bounds (max error at most 1e-6,
and at most 1e-9 of each spectrum's peak density), which it shares with
``check_marginal_oracle``.  The bounds that criteria 8 and 9 share with
``verify all`` are 0.01 against 8/33 for each slice, and fewer than
count // 1000 samples in the half-bound tie band.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from sepprob import checks
from sepprob import sampling as sp
from sepprob import sep_integral as si
from sepprob.exactmath import MultiPoly, SymbolicReal
from sepprob.volumes import hs_symplectic_relation_holds, state_space_volume_hs

ACCEPT_SEED = 17


def criterion(num: int, ok: bool, desc: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_probability():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sepprob.cli", "integrate", "--emit", "prob"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - t0
    rep = json.loads(proc.stdout)
    ok = proc.returncode == 0 and rep["results"]["prob"] == "8/33" and elapsed < 60
    criterion(1, ok, f"integrate --emit prob = {rep['results']['prob']} exactly, {elapsed:.1f}s < 60s")


def test_criterion_2_radial_volume_identity():
    t0 = time.monotonic()
    f = si.separable_slice_poly()
    a = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    expected_poly = (one - a) ** 9 * (a**3 * 33 + a**2 * 162 + a * 72 + one * 8)
    ok_poly = f.prefactor == SymbolicReal(F(1, 319334400), 5) and f.poly == expected_poly
    ok_zero = si.separable_slice_volume(0) == SymbolicReal(F(1, 39916800), 5)
    elapsed = time.monotonic() - t0
    ok = ok_poly and ok_zero and elapsed < 60
    criterion(2, ok, f"slice volume = pi^5/319334400 * (1-a)^9(33a^3+162a^2+72a+8), value at 0 = pi^5/39916800, {elapsed:.1f}s < 60s")


def test_criterion_3_partial_integral_polynomials():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    expected_1 = (
        x * (x * 3 - one) ** 9
        * (x**4 * 567 - x**3 * 3564 + x**2 * 5526 - x * 3152 - one * 1345)
        / 387370509926400
    )
    expected_3 = MultiPoly(
        1,
        {
            (14,): F(-1, 691891200),
            (3,): F(15013, 84757991915520),
            (2,): F(-1531501, 7628219272396800),
            (1,): F(115799, 1983337010823168),
        },
    )
    expected_sum = (
        x * x * (one - x) ** 9 * (x**3 * 33 + x**2 * 162 + x * 72 + one * 8) / 40874803200
    )
    expected_2 = expected_sum - expected_1 - expected_3

    got_1, got_2, got_3 = si.gap_piece(1), si.gap_piece(2), si.gap_piece(3)
    ok_1 = got_1 == expected_1
    ok_3 = got_3 == expected_3
    ok_sum = got_1 + got_2 + got_3 == expected_sum
    if got_2 != expected_2:
        diff = got_2 - expected_2
        for exps, _ in sorted(diff.terms.items()):
            print(
                f"    second partial integral x^{exps[0]}: "
                f"got {got_2.coefficient(exps)}, expected {expected_2.coefficient(exps)}",
                flush=True,
            )
    criterion(3, ok_1 and ok_3 and ok_sum,
              "partial integrals 1 and 3 match their published forms exactly; "
              "sum = (1-x)^9 x^2 (33x^3+162x^2+72x+8)/40874803200 exactly")


def test_criterion_4_density_triple_agreement():
    broken = checks.density_identity_failure()
    errs = [abs(closed - oracle) for _, closed, oracle in checks.density_oracle_points(ACCEPT_SEED, 100)]
    worst = max(errs)
    ok = broken is None and worst <= 1e-9 and len(errs) >= 300
    criterion(4, ok, f"closed = wall-crossing and walls continuous, exactly ({broken or 'both hold'}); "
                     f"fiber oracle max |err| {worst:.2e} <= 1e-9 at {len(errs)} points")


def test_criterion_5_volume_identities():
    t0 = time.monotonic()
    from math import factorial

    ok_state = state_space_volume_hs(4) == SymbolicReal(F(2 * 64 * 2 * 6, factorial(15)), 6)
    ok_radial = si.radial_volume_identity_holds()
    rng = random.Random(ACCEPT_SEED + 1)
    ok_orbits = all(hs_symplectic_relation_holds(checks.random_simple_centered(rng)) for _ in range(50))
    elapsed = time.monotonic() - t0
    ok = ok_state and ok_radial and ok_orbits and elapsed < 10
    criterion(5, ok, f"state-space volume = 2(2pi)^6 2! 3!/15!, radial identity, "
                     f"50 random orbit relations, all exact, {elapsed:.1f}s < 10s")


def test_criterion_6_marginal_density():
    ok_mass, mass = checks.check_marginal_mass(ACCEPT_SEED + 2)
    ok_oracle, oracle = checks.check_marginal_oracle()
    criterion(6, ok_mass and ok_oracle, f"gap-density mass = Vandermonde/12 exactly ({mass}); "
                                        f"quadrature oracle within 1e-6 and 1e-9 of the peak ({oracle})")


def test_criterion_7_monte_carlo_global():
    """Statistic: |fraction - 8/33| over 10^6 iid flat-measure states.  Sigma
    model: binomial, sigma = sqrt(p (1 - p) / n) = 4.29e-4 at p = 8/33.  The
    bound 0.002 is 4.67 sigma, a two-sided false-alarm rate of 3.1e-6.  At
    seed 17 it reads 0.00023 (0.55 sigma)."""
    t0 = time.monotonic()
    est = sp.estimate_sep_prob(sp.SamplerConfig(seed=ACCEPT_SEED, count=1_000_000), threads=4)
    elapsed = time.monotonic() - t0
    dev = abs(est.fraction - 8 / 33)
    ok = dev <= 0.002 and elapsed < 120
    criterion(7, ok, f"10^6 flat-measure states: fraction {est.fraction:.6f}, "
                     f"|dev| {dev:.6f} <= 0.002, {elapsed:.1f}s < 120s")


@pytest.fixture(scope="module")
def slices():
    return checks.conditioned_slices(ACCEPT_SEED, 100_000)


def test_criterion_8_conditioned_constancy(slices):
    """Statistic: |fraction - 8/33| on each of the three slices a = 0, 0.2,
    0.4, from 10^5 iid slice samples each.  Sigma model: binomial, sigma =
    1.36e-3 per slice.  The bound 0.01 is 7.38 sigma, a two-sided rate of
    1.6e-13 per slice and at most 4.8e-13 over the three (union bound).  At
    seed 17 the largest reads 0.0016 (1.2 sigma, a = 0.2)."""
    ok, detail = checks.check_conditioned_constancy(slices)
    criterion(8, ok, f"10^5 iid slice samples per slice within 0.01 of 8/33: {detail}")


def test_criterion_9_halfbound_equivalence(slices):
    """At a = 0 the transpose test and lambda_max <= 1/2 are equivalent state
    by state, so no sigma model: they must agree on every sample outside the
    1e-9 tie band, and the band must hold fewer than 100 of the 10^5 samples."""
    ok, detail = checks.check_halfbound_equivalence(slices[0], 100_000)
    criterion(9, ok, f"transpose test == half-bound test on all 10^5 zero-radius samples "
                     f"outside the 1e-9 band, band < 0.1% ({detail})")


def test_criterion_10_fixed_spectrum_marginal_law():
    """Statistic: the sup-norm over 50 equal bins of |empirical - exact| bin
    density, for 10^6 orbit gaps at SPEC_45.  Sigma model: binomial counts,
    so bin i has sigma sqrt(p_i (1 - p_i) / n) / width; the fullest bin gives
    sigma_peak = 0.0232.  The bound 0.05 is 2.16 sigma_peak, and the sup runs
    over 50 bins, so correct code fails often: 20 of the 40 fresh seeds
    2000-2039 read above 0.05 (sup-norms 0.031 to 0.084).  At seed 17 it
    reads 0.0486."""
    t0 = time.monotonic()
    bins = 50
    # Support [0, 11/25] with density kinks at 1/10 and 13/50; the per-bin
    # analytic masses integrate across the kinks exactly.
    hist = checks.marginal_histogram(checks.SPEC_45, 1_000_000, ACCEPT_SEED, bins, threads=4)
    elapsed = time.monotonic() - t0
    ok = hist.sup_norm < 0.05 and elapsed < 180
    criterion(10, ok, f"10^6 orbit samples on [0, 0.44]: sup-norm {hist.sup_norm:.4f} < 0.05 "
                      f"over {bins} bins, {elapsed:.1f}s < 180s")
