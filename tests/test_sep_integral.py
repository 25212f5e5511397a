"""The exact pipeline: change of variables, regions, partial integrals, the
radial volume polynomial, and the final probability.

The published closed forms of 8/33, the slice-volume polynomial, the first
and third partial integrals and their sum are acceptance criteria 1-3, and
verify all's "exact pipeline" and "integration regions" checks cover the
Vandermonde, the equal halves and the ordered region bounds.  This module holds
what none of them asserts: the factor tables against operator-built
references, the second partial's expansion and the per-region partials
(frozen constants rebuilt with bare ring operations, independent of the
integration machinery under test), the half-bounded fractions, the
slice-volume exponent in exact real coordinates, the 149/2048 identity and
the modulo-x^3 route.  That route takes three integrals, not seven: the
thin regions R2ab, R2b and R3b are O(x^3), which a test ties to their
computed partials, and R1b counts as a second R1a.  Only the Gauss-Legendre
cross-check needs numpy.
"""

import random
from fractions import Fraction as F

import pytest

from reference import (
    bounds_by_operators,
    gap_integrand_by_operators,
    gap_integrand_pullback,
    support_polys,
    vandermonde_by_operators,
)
from sepprob import sep_integral as si
from sepprob.exactmath import MultiPoly, compose, integrate_once, iterated_integrate
from sepprob.sep_integral import (
    SymbolicReal,
    X,
    T1,
    T2,
    T3,
    ZERO_CONDITIONED_VOLUME,
    centered_vandermonde_in_gaps_matches,
    conditioned_volume,
    gap_change_of_variables,
    gap_integrand,
    gap_piece,
    gap_piece_partials,
    gap_piece_sum,
    radial_shell_integral,
    radial_volume_identity_holds,
    region_integral,
    separability_probability,
    separable_slice_poly,
    separable_slice_volume,
    vandermonde_gap_poly,
)
from sepprob.volumes import state_space_volume_hs


def x1():
    return MultiPoly.variable(1, 0)


def one1():
    return MultiPoly.constant(1, 1)


def expected_piece_1():
    x = x1()
    bracket = x**4 * 567 - x**3 * 3564 + x**2 * 5526 - x * 3152 - one1() * 1345
    return x * (x * 3 - one1()) ** 9 * bracket / 387370509926400


def expected_piece_3():
    return MultiPoly(
        1,
        {
            (14,): F(-1, 691891200),
            (3,): F(15013, 84757991915520),
            (2,): F(-1531501, 7628219272396800),
            (1,): F(115799, 1983337010823168),
        },
    )


def expected_piece_2():
    return MultiPoly(
        1,
        {
            (14,): F(-499, 17712414720),
            (13,): F(41, 151388160),
            (12,): F(-1061, 1135411200),
            (11,): F(653, 371589120),
            (10,): F(-163, 82575360),
            (9,): F(557, 412876800),
            (8,): F(-11, 20643840),
            (7,): F(1, 10321920),
            (3,): F(-90533, 84757991915520),
            (2,): F(3677549, 7628219272396800),
            (1,): F(-613427, 9916685054115840),
        },
    )


def expected_radial_poly():
    a = x1()
    return (one1() - a) ** 9 * (a**3 * 33 + a**2 * 162 + a * 72 + one1() * 8)


class TestChangeOfVariables:
    def test_jacobian(self):
        assert gap_change_of_variables().jacobian == F(1, 24)

    def test_measure_factor_is_twice_the_jacobian(self):
        # The region integrals carry the spectrum-ordering unfolding (x2)
        # times the Jacobian of the gap change of variables.
        assert si._MEASURE_FACTOR == 2 * gap_change_of_variables().jacobian

    def test_forward_at_uniform_point(self):
        change = gap_change_of_variables()
        values = [p.evaluate([0, 0, 0, 1]) for p in change.forward]
        assert values == [0, 0, 0, 0]

    def test_roundtrip_is_identity(self):
        change = gap_change_of_variables()
        for k in range(4):
            back = compose(change.inverse[k], list(change.forward))
            assert back == MultiPoly.variable(4, k)

    def test_support_scale_in_gaps(self):
        _, _, b3 = support_polys()
        t1, t2, t3 = (MultiPoly.variable(4, i) for i in (T1, T2, T3))
        assert b3 == t1 + t2 + t3 / 3


class TestGapVandermonde:
    def test_point_value(self):
        assert vandermonde_gap_poly().evaluate([0, 1, 1, 1]) == F(55, 144)

    def test_vanishes_without_middle_gap(self):
        v = vandermonde_gap_poly()
        assert v.substitute(T2, MultiPoly(4)).is_zero

    def test_matches_entry_difference_product(self):
        assert centered_vandermonde_in_gaps_matches()


class TestGapIntegrands:
    def test_pullback_identities(self):
        assert gap_integrand(1, "pos") == gap_integrand_pullback(1)
        assert gap_integrand(2) == gap_integrand_pullback(2)
        assert gap_integrand(3) == gap_integrand_pullback(3)

    def test_negative_branch_is_sign_flip(self):
        x = MultiPoly.variable(4, X)
        b1, b2, b3 = support_polys()
        flipped = (b3 * b3 - b2 * b2) / 64 * x * (x + b1) ** 2
        assert gap_integrand(1, "neg") == flipped

    def test_zero_at_x_zero(self):
        g = gap_integrand(1, "pos")
        assert g.substitute(X, MultiPoly(4)).is_zero

    def test_third_vanishes_on_its_breakpoint(self):
        _, _, b3 = support_polys()
        g = gap_integrand(3)
        assert g.substitute(X, b3).is_zero

    def test_branch_argument_contract(self):
        with pytest.raises(ValueError):
            gap_integrand(1)
        with pytest.raises(ValueError):
            gap_integrand(2, "pos")


def assert_same_terms(got: MultiPoly, want: MultiPoly) -> None:
    """Term for term: the same exponent tuples and equal Fraction coefficients."""
    assert got.arity == want.arity
    assert got.terms == want.terms
    assert all(type(c) is F for c in got.terms.values())


BRANCHES = [(1, "pos"), (1, "neg"), (2, None), (3, None)]
BOUND_NAMES = ["R1a", "R1b", "Delta3", "R2a", "R3a", "R2b", "R2ab", "R3b"]


class TestFactorTables:
    """The product-built Vandermonde, integrands and bounds match the same
    expressions built by chains of MultiPoly operators."""

    def test_vandermonde(self):
        assert_same_terms(vandermonde_gap_poly(), vandermonde_by_operators())

    @pytest.mark.parametrize("k, branch", BRANCHES)
    def test_contribution(self, k, branch):
        assert_same_terms(gap_integrand(k, branch), gap_integrand_by_operators(k, branch))

    @pytest.mark.parametrize("k, branch", BRANCHES)
    def test_full_integrand(self, k, branch):
        want = vandermonde_by_operators() * gap_integrand_by_operators(k, branch)
        assert_same_terms(si._full_integrand(k, branch), want)

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_bounds(self, name):
        got, want = si._bounds(name), bounds_by_operators(name)
        assert [var for var, _, _ in got] == [var for var, _, _ in want]
        for (_, lower, upper), (_, ref_lower, ref_upper) in zip(got, want):
            assert_same_terms(lower, ref_lower)
            assert_same_terms(upper, ref_upper)


ONE = MultiPoly.constant(4, 1)


class TestRegions:
    def test_simplex_volume(self):
        assert region_integral("Delta3", ONE) == one1() / 6

    def test_halves_have_equal_volume(self):
        assert region_integral("R1a", ONE) == region_integral("R1b", ONE)

    def test_region_integral_vs_gauss_quadrature(self):
        # Independent numerical check of the simplex contribution to the third
        # partial integral, at x = 1/6, against tensorized Gauss-Legendre
        # quadrature (exact for polynomial integrands up to rounding).
        np = pytest.importorskip("numpy")
        integrand = vandermonde_gap_poly() * gap_integrand(3)
        exact = region_integral("Delta3", integrand).evaluate([F(1, 6)])

        nodes, weights = np.polynomial.legendre.leggauss(12)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        xv = 1.0 / 6.0
        total = 0.0
        for t3, w3 in zip(nodes, weights):
            for u2, w2 in zip(nodes, weights):
                t2 = u2 * (1.0 - t3)
                j2 = 1.0 - t3
                for u1, w1 in zip(nodes, weights):
                    t1 = u1 * (1.0 - t2 - t3)
                    j1 = 1.0 - t2 - t3
                    total += w3 * w2 * w1 * j2 * j1 * integrand.evaluate_float([xv, t1, t2, t3])
        assert abs(float(exact) - total) < 1e-9

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            region_integral("R9z", ONE)


class TestPartialIntegrals:
    def test_first_piece_matches(self):
        assert gap_piece(1) == expected_piece_1()

    def test_third_piece_matches(self):
        assert gap_piece(3) == expected_piece_3()

    def test_second_piece_matches_published_expansion(self):
        got = gap_piece(2)
        want = expected_piece_2()
        if got != want:
            diff = got - want
            report = [f"x^{e[0]}: got {got.coefficient(e)}, want {want.coefficient(e)}"
                      for e, _ in sorted(diff.terms.items())]
            pytest.fail("second partial integral differs term by term:\n" + "\n".join(report))

    def test_low_order_table_leaves_out_exactly_the_thin_regions(self):
        # The modulo-x^3 route may leave out a region only if its partial
        # starts at x^3 or later.  R1b is the one other omission: it equals
        # R1a ("exact pipeline" check), so R1a counts twice.
        assert si.LOW_ORDER_DECOMPOSITION.keys() == si.REGION_DECOMPOSITION.keys()
        for k, parts in si.REGION_DECOMPOSITION.items():
            low = {name: (weight, branch) for name, weight, branch in si.LOW_ORDER_DECOMPOSITION[k]}
            assert low.keys() <= {name for name, _, _ in parts}
            partials = gap_piece_partials(k)
            for name, weight, branch in parts:
                if name == "R1b":
                    assert name not in low
                    continue
                kept = partials[name].min_degree_in(0) < 3
                assert (name in low) == kept, (k, name)
                if kept:
                    assert low[name] == (weight * (2 if name == "R1a" else 1), branch), (k, name)

    def test_shared_region_sum_equals_sum_of_pieces(self):
        # Seven integrals, one per distinct set of bounds, against nine, one
        # per region of each partial integral.
        assert gap_piece_sum() == gap_piece(1) + gap_piece(2) + gap_piece(3)

    def test_second_piece_region_partials(self):
        # Signed per-region contributions, frozen from their published
        # intermediate factored forms.
        x, one = x1(), one1()
        want = {
            "Delta3": -x * (x * x * 725985 - x * 560326 + one * 123355) / 96842627481600,
            "R2ab": -(x**8)
            * (x**6 * 2894 - x**5 * 24570 + x**4 * 81900 - x**3 * 150150
               + x * x * 160875 - x * 96525 + one * 25740)
            / 177124147200,
            "R2a": x * (x * x * 637485030 - x * 525965687 + one * 120181250) / 99166850541158400,
            "R2b": -(x**7)
            * (x**7 * 1572 - x**6 * 17550 + x**5 * 62712 - x**4 * 120835
               + x**3 * 141570 - x * x * 106821 + x * 51480 - one * 12870)
            / 132843110400,
        }
        got = gap_piece_partials(2)
        for name, expected in want.items():
            assert got[name] == expected, name

    def test_third_piece_region_partials(self):
        x, one = x1(), one1()
        want = {
            "Delta3": x * (x * x * 2340 - x * 3341 + one * 1220) / 1513166054400,
            "R3a": -x * (x * x * 135789030 - x * 199046263 + one * 74163970) / 99166850541158400,
            "R3b": -(x**14) / 691891200,
        }
        got = gap_piece_partials(3)
        for name, expected in want.items():
            assert got[name] == expected, name


class TestRadialVolume:
    def test_prefactor_and_polynomial(self):
        f = separable_slice_poly()
        assert f.prefactor == SymbolicReal(F(1, 319334400), 5)
        assert f.poly == expected_radial_poly()

    def test_value_at_zero(self):
        assert separable_slice_volume(0) == SymbolicReal(F(1, 39916800), 5)

    def test_value_at_one_third(self):
        expected = F(2, 3) ** 9 * (F(33, 27) + 162 * F(1, 9) + 72 * F(1, 3) + 8)
        assert separable_slice_volume(F(1, 3)) == SymbolicReal(expected / 319334400, 5)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            separable_slice_volume(F(1, 2))

    def test_half_bounded_fraction(self):
        # f(a) / V(a) = (1-a)^3 (33a^3 + 162a^2 + 72a + 8) / (33 (1+a)^6): the
        # half-bounded fraction, which equals the separable 8/33 only at a = 0.
        expected = {
            F(0): F(8, 33),
            F(1, 10): F(4095279, 19487171),  # 0.210152...
            F(1, 5): F(3643, 24057),  # 0.151432...
            F(1, 3): F(461, 5632),  # 0.081853...
        }
        for a, want in expected.items():
            assert separable_slice_volume(a) / conditioned_volume(a) == SymbolicReal(want)

    def test_conditioned_volume(self):
        assert conditioned_volume(0) == SymbolicReal(F(1, 9676800), 5)
        assert conditioned_volume(F(1, 2)) == ZERO_CONDITIONED_VOLUME * F(3, 4) ** 6
        with pytest.raises(ValueError):
            conditioned_volume(1)

    def test_radial_shell_integral(self):
        assert radial_shell_integral() == F(1024, 45045)

    def test_radial_identity(self):
        assert radial_volume_identity_holds()

    def test_shell_weighted_consistency(self):
        # (pi/2) * integral_0^{1/3} a^2 f(a) da equals (2 pi)^6 times the
        # integral of the summed partials over the same range, symbolically.
        f = separable_slice_poly()
        a = MultiPoly.variable(1, 0)
        weighted = a * a * f.poly
        lhs_scalar = integrate_once(weighted, 0, 0, F(1, 3)).evaluate([0])
        lhs = f.prefactor * lhs_scalar * SymbolicReal(F(1, 2), 1)
        rhs_scalar = integrate_once(gap_piece_sum(), 0, 0, F(1, 3)).evaluate([0])
        rhs = SymbolicReal(rhs_scalar * 64, 6)
        assert lhs == rhs

    def test_radial_identity_is_sharp(self):
        # Any perturbation of the slice volume or the scaling exponent must
        # break the identity; this guards against a vacuous check.
        shell = SymbolicReal(radial_shell_integral() / 2, 1)
        perturbed = SymbolicReal(F(101, 100) / 9676800, 5)
        assert shell * perturbed != state_space_volume_hs(4)

        a = x1()
        wrong_moment = a * a * (one1() - a * a) ** 5
        wrong_shell = SymbolicReal(integrate_once(wrong_moment, 0, 0, 1).evaluate([0]) / 2, 1)
        assert wrong_shell * ZERO_CONDITIONED_VOLUME != state_space_volume_hs(4)


# -- the slice-volume exponent, in exact real coordinates --------------------
#
# A complex matrix re + i*im is held as its real form [[re, -im], [im, re]],
# so products are real products and the adjoint is the transpose.


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _realify(re, im):
    return [r + [-x for x in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]


def _herm_basis(n):
    """A real basis of the n x n Hermitian matrices: E_jj, E_jk + E_kj and
    i(E_jk - E_kj) for j < k, in the order ``_herm_coords`` reads."""
    basis = []
    for j in range(n):
        for k in range(j, n):
            for imaginary in (False, True) if j < k else (False,):
                re, im = [[F(0)] * n for _ in range(n)], [[F(0)] * n for _ in range(n)]
                if imaginary:
                    im[j][k], im[k][j] = F(1), F(-1)
                else:
                    re[j][k] = re[k][j] = F(1)
                basis.append(_realify(re, im))
    return basis


def _herm_coords(x, n):
    """Coordinates of a Hermitian matrix (real form) in ``_herm_basis(n)``."""
    return [x[n + j][k] if imaginary else x[j][k]
            for j in range(n) for k in range(j, n) for imaginary in ((False, True) if j < k else (False,))]


def _trace_b(x):
    """Partial trace over the second qubit of a 4 x 4 matrix in real form."""
    return [[sum(x[4 * (r // 2) + 2 * (r % 2) + b][2 * (c % 2) + b + 4 * (c // 2)] for b in range(2))
             for c in range(4)] for r in range(4)]


def _nullspace(rows):
    """A basis of the null space of a Fraction matrix, from its reduced row echelon form."""
    a, pivots = [list(r) for r in rows], []
    for c in range(len(a[0])):
        p = next((i for i in range(len(pivots), len(a)) if a[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(a[0])) if c not in pivots):
        v = [F(0)] * len(a[0])
        v[free] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -a[i][free]
        basis.append(v)
    return basis


def _det(rows):
    a, det = [list(r) for r in rows], F(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            a[i] = [x - a[i][c] / a[c][c] * y for x, y in zip(a[i], a[c])]
    return det


def slice_map_determinant(m_re, m_im):
    """Determinant of Phi(X) = (M (x) I) X (M (x) I)^dag on ker Tr_B, the
    real 12-dimensional tangent space of a fixed-marginal slice."""
    herm4 = _herm_basis(4)
    constraints = _transpose([_herm_coords(_trace_b(e), 2) for e in herm4])
    kernel = _nullspace(constraints)
    assert len(kernel) == 12
    eye = [[F(int(i == j)) for j in range(2)] for i in range(2)]

    def kron_eye(m):
        return [[m[i // 2][j // 2] * eye[i % 2][j % 2] for j in range(4)] for i in range(4)]

    a = _realify(kron_eye(m_re), kron_eye(m_im))
    images = []
    for v in kernel:
        x = [[sum(c * e[i][j] for c, e in zip(v, herm4)) for j in range(8)] for i in range(8)]
        images.append(_herm_coords(_mul(_mul(a, x), _transpose(a)), 4))
    # Phi(K) = K A for the kernel basis K (16 x 12), so det A = det(K^T Phi(K)) / det(K^T K).
    return _det(_mul(kernel, _transpose(images))) / _det(_mul(kernel, _transpose(kernel)))


class TestSliceVolumeExponent:
    """conditioned_volume's (1 - a^2)^6: the determinant of the slice map on
    ker Tr_B is |det M|^12, built and reduced in Fractions."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_determinant_is_twelfth_power(self, seed):
        rng = random.Random(seed)
        abs_det_sq = F(0)
        while not abs_det_sq:
            m_re, m_im = ([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)] for _ in range(2)]
                          for _ in range(2))
            abs_det_sq = _det(_realify(m_re, m_im))  # the real form's determinant is |det M|^2
        assert slice_map_determinant(m_re, m_im) == abs_det_sq**6

    def test_scales_the_radius_zero_slice(self):
        # M = diag(7, 1) / 5 has M M^dag / 2 = diag(49, 1) / 50, Bloch radius 24/25.
        m_re = [[F(7, 5), F(0)], [F(0), F(1, 5)]]
        zero = [[F(0)] * 2 for _ in range(2)]
        det12 = slice_map_determinant(m_re, zero)
        assert det12 == (1 - F(24, 25) ** 2) ** 6
        assert conditioned_volume(F(24, 25)) == ZERO_CONDITIONED_VOLUME * det12


class TestHalfBoundedIdentity:
    """Flat-measure P(lambda_max <= 1/2) = 149/2048, computed twice: over the
    spectrum simplex directly, and as the radial average of f(a) / V(a).  The
    radius range [0, 1/3] carries only part of the radial mass, so the
    identity also tests the polynomial f beyond its derived range."""

    def spectrum_vandermonde_squared(self):
        lam = [MultiPoly.variable(3, i) for i in range(3)]
        lam.append(MultiPoly.constant(3, 1) - lam[0] - lam[1] - lam[2])
        v = MultiPoly.constant(3, 1)
        for i in range(4):
            for j in range(i + 1, 4):
                v = v * (lam[i] - lam[j]) ** 2
        return v

    def test_simplex_side(self):
        # lambda_4 = 1 - l1 - l2 - l3 <= 1/2 puts l3 above 1/2 - l1 - l2; the
        # two linear pieces split at l1 + l2 = 1/2.
        integrand = self.spectrum_vandermonde_squared()
        assert len(integrand.terms) == 336 and integrand.degree() == 12
        l1, l2 = MultiPoly.variable(3, 0), MultiPoly.variable(3, 1)
        half, one, zero = MultiPoly.constant(3, F(1, 2)), MultiPoly.constant(3, 1), MultiPoly(3)
        below = [(2, half - l1 - l2, half), (1, zero, half - l1), (0, zero, half)]
        above = [(2, zero, one - l1 - l2), (1, half - l1, half), (0, zero, half)]
        simplex = [(2, zero, one - l1 - l2), (1, zero, one - l1), (0, zero, one)]
        bounded = iterated_integrate(integrand, below) + iterated_integrate(integrand, above)
        whole = iterated_integrate(integrand, simplex)
        assert bounded.arity == whole.arity == 3 and bounded.degree() == whole.degree() == 0
        assert bounded.coefficient((0, 0, 0)) / whole.coefficient((0, 0, 0)) == F(149, 2048)

    def test_radial_side(self):
        f = separable_slice_poly()
        a = x1()
        f_moment = integrate_once(a * a * f.poly, 0, 0, 1).evaluate([0]) * f.prefactor
        v_moment = conditioned_volume(0) * radial_shell_integral()
        assert f_moment / v_moment == SymbolicReal(F(149, 2048))
        # The closed form of f stays guarded to [0, 1/3].
        with pytest.raises(ValueError):
            separable_slice_volume(F(2, 5))


class TestProbability:
    def test_pi_powers_cancel(self):
        ratio = separable_slice_volume(0) / ZERO_CONDITIONED_VOLUME
        assert ratio.pi_power == 0 and ratio.radicand == 1

    def test_route_modulo_x3_matches_full_slice_volume(self):
        ratio = separable_slice_volume(0) / ZERO_CONDITIONED_VOLUME
        assert ratio == SymbolicReal(separability_probability())

    def test_route_modulo_x3_runs_three_integrals_on_three_integrands(self, monkeypatch):
        calls = {"integrals": 0, "integrands": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(si, "region_integral", counted("integrals", si.region_integral))
        monkeypatch.setattr(si, "_full_integrand", counted("integrands", si._full_integrand))
        separability_probability()
        assert calls == {"integrals": 3, "integrands": 3}

    def test_route_modulo_x3_rejects_a_lost_factor_x(self, monkeypatch):
        # Negative control: without its factor x the third contribution
        # brings x^0 and x^1 terms into the sum, which must raise.
        factors = si._contribution_factors

        def third_without_x(k, branch):
            fs, scale = factors(k, branch)
            if k == 3:
                assert fs[-1] == si._affine(x=1)
                fs = fs[:-1]
            return fs, scale

        monkeypatch.setattr(si, "_contribution_factors", third_without_x)
        with pytest.raises(ArithmeticError, match="did not cancel"):
            separability_probability()
