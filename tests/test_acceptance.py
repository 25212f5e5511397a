"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Stochastic criteria run at the frozen seed
ACCEPT_SEED; the samplers are deterministic for a given seed regardless of
thread count, so these are exact regression tests.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from sepprob import dh_density as dh
from sepprob import sampling as sp
from sepprob import sep_integral as si
from sepprob.checks import chamber_point, marginal_histogram
from sepprob.exactmath import MultiPoly, SymbolicReal
from sepprob.volumes import (
    CenteredSpectrum,
    hs_symplectic_relation_holds,
    state_space_volume_hs,
)

ACCEPT_SEED = 17


def criterion(num: int, ok: bool, desc: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line, flush=True)
    assert ok, line


def random_simple_centered(rng):
    while True:
        raw = sorted({F(rng.randint(1, 400), 801) for _ in range(4)}, reverse=True)
        if len(raw) == 4:
            total = sum(raw)
            return CenteredSpectrum([x / total - F(1, 4) for x in raw])


@pytest.fixture(scope="module")
def conditioned_zero_stats():
    cfg = sp.SamplerConfig(seed=ACCEPT_SEED, count=100_000)
    return sp.conditioned_ppt_stats(0.0, cfg)


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
    closed = dh.convolution_density_closed()
    ok_jump = dh.convolution_density_jump() == closed

    r = MultiPoly.variable(2, 0)
    zero = MultiPoly(2)
    ok_walls = (
        closed.piece("C1").substitute(1, zero) == closed.piece("C2").substitute(1, zero)
        and closed.piece("C2").substitute(1, r) == closed.piece("C3").substitute(1, r)
        and closed.piece("C1").substitute(1, -r).is_zero
        and closed.piece("C3").substitute(0, zero).is_zero
    )

    rng = random.Random(ACCEPT_SEED)
    worst = 0.0
    points = 0
    for label in ("C1", "C2", "C3", "C0"):
        for _ in range(100):
            rr, ss = chamber_point(rng, label)
            err = abs(dh.fiber_polytope_density((rr, ss)) - float(closed.evaluate(rr, ss)))
            worst = max(worst, err)
            points += 1
    ok_oracle = worst <= 1e-9 and points >= 300
    criterion(4, ok_jump and ok_walls and ok_oracle,
              f"closed = wall-crossing (exact), walls continuous (exact), "
              f"fiber oracle max |err| {worst:.2e} <= 1e-9 at {points} points")


def test_criterion_5_volume_identities():
    t0 = time.monotonic()
    from math import factorial

    ok_state = state_space_volume_hs(4) == SymbolicReal(F(2 * 64 * 2 * 6, factorial(15)), 6)
    ok_radial = si.radial_volume_identity_holds()
    rng = random.Random(ACCEPT_SEED + 1)
    ok_orbits = all(hs_symplectic_relation_holds(random_simple_centered(rng)) for _ in range(50))
    elapsed = time.monotonic() - t0
    ok = ok_state and ok_radial and ok_orbits and elapsed < 10
    criterion(5, ok, f"state-space volume = 2(2pi)^6 2! 3!/15!, radial identity, "
                     f"50 random orbit relations, all exact, {elapsed:.1f}s < 10s")


def test_criterion_6_marginal_density():
    rng = random.Random(ACCEPT_SEED + 2)
    ok_mass = all(
        dh.total_gap_mass(c) == dh.vandermonde_over_twelve(c)
        for c in (random_simple_centered(rng) for _ in range(10))
    )

    spectra = [
        CenteredSpectrum([F(1, 5), F(1, 50), F(-7, 100), F(-3, 20)]),
        CenteredSpectrum([F(1, 10), F(1, 100), F(-7, 200), F(-3, 40)]),
        CenteredSpectrum([F(9, 40), F(1, 40), F(-2, 40), F(-8, 40)]),
    ]
    worst = 0.0
    for c in spectra:
        density = dh.marginal_gap_density(c)
        top = float(dh.marginal_support(c).b3)
        for i in range(1, 51):
            x = top * i / 52
            worst = max(worst, abs(dh.marginal_gap_density_numeric(c, x) - density.evaluate_float(x)))
    ok = ok_mass and worst <= 1e-6
    criterion(6, ok, f"gap-density mass = Vandermonde/12 exactly for 10 random spectra; "
                     f"quadrature oracle max |err| {worst:.2e} <= 1e-6 on 50-point grids, 3 spectra")


def test_criterion_7_monte_carlo_global():
    t0 = time.monotonic()
    est = sp.estimate_sep_prob(sp.SamplerConfig(seed=ACCEPT_SEED, count=1_000_000), threads=4)
    elapsed = time.monotonic() - t0
    dev = abs(est.fraction - 0.2424242)
    ok = dev <= 0.002 and elapsed < 120
    criterion(7, ok, f"10^6 flat-measure states: fraction {est.fraction:.6f}, "
                     f"|dev| {dev:.6f} <= 0.002, {elapsed:.1f}s < 120s")


def test_criterion_8_conditioned_constancy(conditioned_zero_stats):
    fractions = {0.0: conditioned_zero_stats.fraction}
    for a in (0.2, 0.4):
        cfg = sp.SamplerConfig(seed=ACCEPT_SEED, count=100_000)
        fractions[a] = sp.conditioned_ppt_stats(a, cfg).fraction
    devs = {a: abs(f - 8 / 33) for a, f in fractions.items()}
    ok = all(d <= 0.01 for d in devs.values())
    detail = ", ".join(f"a={a}: {fractions[a]:.4f} (dev {devs[a]:.4f})" for a in (0.0, 0.2, 0.4))
    criterion(8, ok, f"10^5 walk samples per slice within 0.01 of 8/33: {detail}")


def test_criterion_9_halfbound_equivalence(conditioned_zero_stats):
    stats = conditioned_zero_stats
    ok = stats.agreement_halfbound == 1.0 and stats.band_count < 100_000 * 0.001
    criterion(9, ok, f"transpose test == half-bound test on all 10^5 zero-radius samples "
                     f"outside the 1e-9 band (agreement {stats.agreement_halfbound:.6f}, "
                     f"band {stats.band_count} < 0.1%)")


def test_criterion_10_fixed_spectrum_marginal_law():
    t0 = time.monotonic()
    centered = CenteredSpectrum([F(1, 5), F(1, 50), F(-7, 100), F(-3, 20)])
    bins = 50
    # Support [0, 11/25] with density kinks at 1/10 and 13/50; the per-bin
    # analytic masses integrate across the kinks exactly.
    hist = marginal_histogram(centered, 1_000_000, ACCEPT_SEED, bins, threads=4)
    sup = hist.sup_norm
    elapsed = time.monotonic() - t0
    ok = sup < 0.05 and elapsed < 180
    criterion(10, ok, f"10^6 orbit samples on [0, 0.44]: sup-norm {sup:.4f} < 0.05 "
                      f"over {bins} bins, {elapsed:.1f}s < 180s")
