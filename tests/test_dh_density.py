"""Planar chamber density (three routes), marginal support, and the
one-variable gap density with its quadrature oracle."""

import random
from fractions import Fraction as F

from reference import (
    bravyi_compatible,
    integral_between_by_pieces,
    moment_polytope,
    project_to_plane,
    weights_from_roots,
)
from sepprob import dh_density as dh
from sepprob.checks import SPEC_45, check_marginal_oracle, random_simple_centered
from sepprob.dh_density import (
    DISTINCT_WEIGHTS,
    MarginalSupport,
    classify_chamber,
    convolution_density_closed,
    convolution_density_jump,
    fiber_polytope_density,
    marginal_gap_density,
    marginal_gap_density_numeric,
    marginal_support,
)
from sepprob.exactmath import MultiPoly
from sepprob.volumes import CenteredSpectrum, Spectrum, vandermonde

class TestWeights:
    def test_multiset(self):
        ws = weights_from_roots()
        assert len(ws) == 6
        assert sorted(ws) == sorted([(-2, 2), (-2, 0), (-2, 0), (-2, -2), (0, -2), (0, -2)])

    def test_doubled_weights(self):
        ws = weights_from_roots()
        assert ws.count((-2, 0)) == 2
        assert ws.count((0, -2)) == 2

    def test_single_root_image(self):
        # The root (0, 1, -1, 0) maps to (2, -2); its negative is (-2, 2).
        px, py = project_to_plane((0, 1, -1, 0))
        assert (-px, -py) == (-2, 2)

    def test_distinct_weights_cover_multiset(self):
        assert set(weights_from_roots()) == set(DISTINCT_WEIGHTS)


class TestClosedDensity:
    def test_point_values(self):
        d = convolution_density_closed()
        assert d.evaluate(-2, -1) == F(7, 64)   # inside C2
        assert d.evaluate(-1, 1) == 0           # wall r + s = 0
        assert d.evaluate(1, 1) == 0            # outside the support

    def test_chamber_classification(self):
        assert classify_chamber(-2, 1) == "C1"
        assert classify_chamber(-2, -1) == "C2"
        assert classify_chamber(-1, -2) == "C3"
        assert classify_chamber(1, 0) == "C0"
        # Walls resolve deterministically with priority C1 > C2 > C3.
        assert classify_chamber(-1, 0) == "C1"
        assert classify_chamber(-1, -1) == "C2"

    def test_nonnegative_on_chambers(self):
        d = convolution_density_closed()
        grid = 100
        for i in range(grid):
            r = -5.0 * (i + 1) / grid
            for j in range(grid):
                theta = j / (grid - 1)
                assert d.evaluate_float(r, -r * theta) >= -1e-12   # C1
                assert d.evaluate_float(r, r * theta) >= -1e-12    # C2
                assert d.evaluate_float(r, r - 5 * theta) >= -1e-12  # C3


class TestJumpDerivation:
    def test_piece_progression(self):
        jump = convolution_density_jump()
        r = MultiPoly.variable(2, 0)
        s = MultiPoly.variable(2, 1)
        assert jump.piece("C1") == (r + s) ** 2 / 64
        assert jump.piece("C2") == jump.piece("C1") - s * s / 32
        assert jump.piece("C3") == jump.piece("C2") + (r - s) ** 2 / 64
        assert jump.piece("C3") == r * r / 32


class TestFiberOracle:
    def test_known_point(self):
        assert abs(fiber_polytope_density((-2, -1)) - 7 / 64) < 1e-9

    def test_outside_cone(self):
        assert fiber_polytope_density((1, 1)) == 0.0

    def test_boundary(self):
        assert abs(fiber_polytope_density((-1, 1))) < 1e-9


class TestMarginalSupport:
    def test_worked_example(self):
        assert marginal_support(SPEC_45) == MarginalSupport(F(1, 10), F(13, 50), F(11, 25))

    def test_degenerate_b1(self):
        c = CenteredSpectrum([F(3, 20), F(1, 20), F(-1, 20), F(-3, 20)])
        assert marginal_support(c).b1 == 0

    def test_symmetric_degenerate(self):
        c = CenteredSpectrum([F(3, 8), F(-1, 8), F(-1, 8), F(-1, 8)])
        b = marginal_support(c)
        assert b.b2 == b.b3 == F(1, 2)

    def test_ordering_invariant(self):
        rng = random.Random(23)
        for _ in range(50):
            b = marginal_support(random_simple_centered(rng))
            assert 0 <= b.b1 <= b.b2 <= b.b3


class TestMomentPolytope:
    def test_vertices_on_boundary(self):
        b = marginal_support(SPEC_45)
        poly = moment_polytope(b)
        for x, y in [(b.b2, b.b1), (b.b1, b.b2), (b.b2, b.b3), (b.b3, b.b2), (b.b1, b.b3), (b.b3, b.b1)]:
            assert poly.contains(x, y)

    def test_outside_box(self):
        b = marginal_support(SPEC_45)
        assert not moment_polytope(b).contains(b.b3 + F(1, 1000), 0)

    def test_origin(self):
        b = marginal_support(SPEC_45)
        # |0 - 0| <= b3 - b1 always holds, so the origin is a member.
        assert moment_polytope(b).contains(0, 0)


class TestBravyi:
    def test_maximally_mixed(self):
        s = Spectrum([F(1, 4)] * 4)
        assert bravyi_compatible(s, F(1, 2), F(1, 2))

    def test_pure_entangled(self):
        s = Spectrum([1, 0, 0, 0])
        assert bravyi_compatible(s, F(1, 2), F(1, 2))

    def test_pure_mismatched_marginals(self):
        s = Spectrum([1, 0, 0, 0])
        assert not bravyi_compatible(s, F(1, 2), F(0))


class TestMarginalGapDensity:
    def test_vanishes_at_ends(self):
        d = marginal_gap_density(SPEC_45)
        assert d.evaluate(0) == 0
        assert d.evaluate(marginal_support(SPEC_45).b3) == 0

    def test_exact_mass_worked_example(self):
        assert marginal_gap_density(SPEC_45).integral() == vandermonde(SPEC_45.entries) / 12

    def test_continuity_at_breakpoints(self):
        d = marginal_gap_density(SPEC_45)
        for i in range(len(d.pieces) - 1):
            bp = d.breakpoints[i + 1]
            assert d.pieces[i].evaluate([bp]) == d.pieces[i + 1].evaluate([bp])

    def test_nonnegative_on_support(self):
        d = marginal_gap_density(SPEC_45)
        b3 = float(marginal_support(SPEC_45).b3)
        for i in range(501):
            assert d.evaluate_float(b3 * i / 500) >= -1e-12

    def test_degenerate_b1_drops_first_piece(self):
        c = CenteredSpectrum([F(3, 20), F(1, 20), F(-1, 20), F(-3, 20)])
        d = marginal_gap_density(c)
        assert d.breakpoints[0] == 0 and d.breakpoints[1] > 0
        assert d.integral() == vandermonde(c.entries) / 12

    def test_scaling_covariance(self):
        rng = random.Random(37)
        for _ in range(10):
            c = random_simple_centered(rng)
            tau = F(rng.randint(1, 9), rng.randint(1, 9))
            base = marginal_support(c)
            scaled = marginal_support(c.scaled(tau))
            assert scaled == MarginalSupport(tau * base.b1, tau * base.b2, tau * base.b3)
            assert marginal_gap_density(c.scaled(tau)).breakpoints[-1] == tau * base.b3


class TestExactCdf:
    def test_matches_integral_between(self):
        rng = random.Random(41)
        for c in [SPEC_45, CenteredSpectrum([F(3, 20), F(1, 20), F(-1, 20), F(-3, 20)])] + [
            random_simple_centered(rng) for _ in range(5)
        ]:
            d = marginal_gap_density(c)
            b3 = d.breakpoints[-1]
            pieces = zip(d.breakpoints, d.breakpoints[1:])
            inside = [lo + (hi - lo) * t for lo, hi in pieces for t in (F(1, 3), F(5, 7))]
            points = [F(-1, 10), F(0), *d.breakpoints, *inside, b3 + F(1, 100), F(2)]
            cdf = d.cdf(points)
            assert cdf == [integral_between_by_pieces(d, d.breakpoints[0], x) for x in points]
            assert d.integral() == integral_between_by_pieces(d, d.breakpoints[0], b3)

    def test_integral_between_wraps_cdf(self):
        # Random pairs, lo > hi and points outside [0, b3] included.
        rng = random.Random(43)
        d = marginal_gap_density(SPEC_45)
        for _ in range(400):
            lo, hi = (F(rng.randint(-100, 600), 1000) for _ in range(2))
            assert d.integral_between(lo, hi) == integral_between_by_pieces(d, lo, hi)

    def test_differences_are_bin_masses(self):
        d = marginal_gap_density(SPEC_45)
        b3 = d.breakpoints[-1]
        edges = [F(i) * b3 / 50 for i in range(51)]
        cdf = d.cdf(edges)
        masses = [integral_between_by_pieces(d, lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert [hi - lo for lo, hi in zip(cdf, cdf[1:])] == masses


class TestMarginalOracle:
    def test_inside_first_interval(self):
        b1 = float(marginal_support(SPEC_45).b1)
        x = 0.5 * b1
        d = marginal_gap_density(SPEC_45)
        assert abs(marginal_gap_density_numeric(SPEC_45, x) - d.evaluate_float(x)) < 1e-8

    def test_support_edge(self):
        b3 = float(marginal_support(SPEC_45).b3)
        assert abs(marginal_gap_density_numeric(SPEC_45, b3 - 1e-6)) < 1e-6

    def test_outside_support(self):
        assert marginal_gap_density_numeric(SPEC_45, -0.1) == 0.0
        assert marginal_gap_density_numeric(SPEC_45, 0.9) == 0.0

    def test_check_fails_on_an_oracle_four_percent_off(self, monkeypatch):
        # Negative control of "marginal oracle" and criterion 6: the absolute
        # 1e-6 alone passes this oracle on SPEC_45 / 2 (max error 8.0e-7).
        monkeypatch.setattr(dh, "marginal_gap_density_numeric", lambda c, x: 1.04 * marginal_gap_density_numeric(c, x))
        passed, detail = check_marginal_oracle()
        assert not passed and "max err 8.0e-07" in detail, detail
