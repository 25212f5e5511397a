"""Exact-arithmetic substrate tests: ring behavior, calculus, residues,
symbolic constants."""

import cmath
import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from reference import convolve
from sepprob.exactmath import (
    MultiPoly,
    SymbolicReal,
    _fractions,
    _int_form,
    _width,
    compose,
    extract_univariate,
    integrate_once,
    iterated_integrate,
    product,
    rational_from_str,
    rational_str,
    residue_of_exp_over_linear_factors,
)


def x_(arity=1, i=0):
    return MultiPoly.variable(arity, i)


def const(c, arity=1):
    return MultiPoly.constant(arity, c)


def random_poly(rng, arity, degree):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        exps = tuple(rng.randint(0, degree) for _ in range(arity))
        terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(arity, terms)


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        x = x_()
        assert (x + 1) * (x - 1) == x * x - 1

    def test_additive_identity(self):
        p = MultiPoly(2, {(1, 2): F(3, 7), (0, 0): F(-1)})
        assert p + MultiPoly(2) == p

    def test_binomial_expansion(self):
        r, s = x_(2, 0), x_(2, 1)
        expanded = (r + s) ** 2
        assert expanded == r * r + 2 * r * s + s * s
        assert expanded.coefficient((1, 1)) == 2

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            x_(1) + x_(2, 0)
        with pytest.raises(ValueError):
            x_(1) * x_(2, 0)

    def test_power_is_repeated_multiplication(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_poly(rng, 2, 2)
            chain = const(1, arity=2)
            for n in range(5):
                assert (p**n).terms == chain.terms
                chain = chain * p

    def test_product_rejects_no_factors_and_mixed_arities(self):
        with pytest.raises(ValueError):
            product(())
        with pytest.raises(ValueError):
            product([x_(2, 0), x_(1), x_(2, 1)])

    def test_linear_is_built_from_its_coefficients(self):
        assert MultiPoly.linear(3, {2: F(1, 3), 0: -2}, 5) == x_(3, 2) / 3 - x_(3, 0) * 2 + 5
        assert MultiPoly.linear(2, {0: 0, 1: 0}).terms == {}
        with pytest.raises(ValueError):
            MultiPoly.linear(2, {2: 1})

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_poly(rng, 2, 3)
            b = random_poly(rng, 2, 3)
            c = random_poly(rng, 2, 3)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_canonical_no_zero_terms(self):
        p = x_() - x_()
        assert p.is_zero and p.terms == {}

    def test_graded_lex_ordering(self):
        p = MultiPoly(2, {(0, 2): F(1), (1, 0): F(2), (0, 0): F(3), (2, 0): F(4)})
        order = [e for e, _ in p.sorted_terms()]
        assert order == [(0, 0), (1, 0), (0, 2), (2, 0)]


def assert_canonical(p, arity):
    """Nonzero Fraction coefficients on exponent tuples of the right arity."""
    assert p.arity == arity
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == arity
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is F and coeff != 0
        assert coeff.denominator > 0 and gcd(coeff.numerator, coeff.denominator) == 1


class TestCanonicalResults:
    """Arithmetic results skip the public constructor's checks, so their
    invariants are asserted here for every operation."""

    def test_public_constructor_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): F(1)})
        with pytest.raises(ValueError):
            MultiPoly(1, {(1, 0): F(1)})

    def test_public_constructor_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, -1): F(1)})

    def test_public_constructor_normalises(self):
        p = MultiPoly(2, {(1, 0): 3, (0, 1): 0, (0, 0): F(0)})
        assert p.terms == {(1, 0): F(3)}
        assert_canonical(p, 2)

    def test_every_operation_random(self):
        rng = random.Random(19)
        for _ in range(40):
            p = random_poly(rng, 3, 3)
            q = random_poly(rng, 3, 2)
            c = F(rng.randint(-5, 5), rng.randint(1, 5))
            v = rng.randint(0, 2)
            results = [
                p + q, p - q, -p, p * c, p * rng.randint(-3, 3), p * q, p**3,
                p.substitute(v, q), compose(p, [q, x_(3, 0), q - 1]),
                p.derivative(v), p.antiderivative(v), (p * x_(3, v) ** 2).shift_down(v, 2),
                product([p, q, x_(3, v) - 1], c), MultiPoly.linear(3, {0: c, 1: 0, 2: rng.randint(-3, 3)}, c),
            ]
            for r in results:
                assert_canonical(r, 3)

    def test_cancelled_middle_term_is_dropped(self):
        x = x_()
        p = (x + 1) * (x - 1)
        assert (1,) not in p.terms
        assert p.terms == {(2,): F(1), (0,): F(-1)}

    def test_exact_cancellation_leaves_empty_terms(self):
        x, y = x_(2, 0), x_(2, 1)
        p = x * 3 - y / 2 + 1
        assert (p - p).terms == {}
        assert (p + (-p)).terms == {}
        assert (p * 0).terms == {}
        assert (p * MultiPoly(2)).terms == {}
        assert (x - y).substitute(0, y).terms == {}
        assert compose(x - y, [y, y]).terms == {}
        assert (x + 1) ** 2 - x * x - x * 2 == 1
        assert ((x + 1) ** 2 - x * x - x * 2).terms == {(0, 0): F(1)}
        assert p.derivative(0).derivative(0).terms == {}

    def test_int_operands_store_fractions(self):
        x = x_()
        results = [
            x * 2 + 3, 2 - x, 3 * x**2 * 5, (x + 1).substitute(0, 2),
            compose(x * x, [x + 2]), (x**3 * 4).derivative(0),
            (x * 3).antiderivative(0), (x**2 * 7).shift_down(0, 1),
        ]
        for r in results:
            assert_canonical(r, 1)
            assert r.terms


# Coefficients with large, mutually coprime denominators and both signs, so
# the integer kernels' common denominators and final reductions are exercised.
WIDE_COEFFS = [F(1, factorial(15)), F(7, 11**9), F(-3, 2**61 - 1), F(-5, 13), F(2), F(-1)]


def wide_poly(rng, arity, degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, degree) for _ in range(arity))
        terms[exps] = rng.choice(WIDE_COEFFS) * rng.randint(-4, 4)
    return MultiPoly(arity, terms)


def random_point(rng, arity):
    return [F(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(arity)]


def assert_substitution_evaluates(p, var, r, rng):
    """p.substitute(var, r) agrees with p evaluated at pt[var] = r(pt)."""
    s = p.substitute(var, r)
    assert_canonical(s, p.arity)
    for _ in range(3):
        pt = random_point(rng, p.arity)
        inner = list(pt)
        inner[var] = r.evaluate(pt)
        assert s.evaluate(pt) == p.evaluate(inner)


class TestIntegerKernels:
    """Products and substitutions run on integer numerators over a common
    denominator; these oracles recompute them one Fraction at a time."""

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_product_matches_naive_convolution(self, arity):
        rng = random.Random(100 + arity)
        for _ in range(25):
            p, q = wide_poly(rng, arity, 3), wide_poly(rng, arity, 2)
            pq = p * q
            assert pq.terms == convolve(p.terms, q.terms)
            assert_canonical(pq, arity)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_substitution_matches_evaluation(self, arity):
        rng = random.Random(200 + arity)
        for _ in range(15):
            p, r = wide_poly(rng, arity, 4), wide_poly(rng, arity, 2)
            assert_substitution_evaluates(p, rng.randrange(arity), r, rng)

    def test_cross_terms_cancel_to_nothing(self):
        x, y = x_(2, 0), x_(2, 1)
        a, b = F(1, factorial(15)), F(7, 11**9)
        p = (x * a + y * b) * (x * a - y * b)
        assert p.terms == {(2, 0): a * a, (0, 2): -b * b}
        assert_canonical(p, 2)
        # x^2 - 2bxy + b^2 y^2 with x := b y cancels across three powers of x.
        square = (x - y * b) ** 2
        assert square.substitute(0, y * b).terms == {}
        assert (x - y**2 * a).substitute(0, y**2 * a).terms == {}

    def test_substitute_absent_variable(self):
        rng = random.Random(5)
        for arity in (2, 3, 4):
            p = wide_poly(rng, arity, 3).substitute(arity - 1, MultiPoly(arity))
            assert not p.involves(arity - 1)
            assert p.substitute(arity - 1, wide_poly(rng, arity, 2)) == p

    def test_constant_value(self):
        rng = random.Random(6)
        for arity in (1, 2, 3):
            p = wide_poly(rng, arity, 4)
            for value in (F(7, 11**9), F(-1, factorial(15)), 3):
                assert_substitution_evaluates(p, 0, const(value, arity), rng)
                assert p.substitute(0, value) == p.substitute(0, const(value, arity))

    def test_zero_polynomial_on_either_side(self):
        rng = random.Random(7)
        for arity in (1, 2, 3):
            p, zero = wide_poly(rng, arity, 3), MultiPoly(arity)
            assert (p * zero).terms == {} and (zero * p).terms == {}
            assert zero.substitute(0, p).terms == {}
            assert_substitution_evaluates(p, 0, zero, rng)


class TestPackedKeys:
    """Each kernel packs a term's exponents into one int, ``_width(D)`` bits
    per variable, D a degree bound of its result.  These results fill an
    exponent field exactly (2**width - 1) or pass it by one; a carry would
    move exponent into the next variable."""

    def test_width_is_the_bit_length_of_the_bound(self):
        assert [_width(d) for d in (-1, 0, 1, 15, 16, 63, 64)] == [1, 1, 1, 4, 5, 6, 7]

    def test_pack_round_trip_at_a_full_field(self):
        p = MultiPoly(3, {(15, 0, 15): F(1, 3), (0, 15, 1): F(-2)})
        num, den = _int_form(p, 4)
        assert num.keys() == {15 | 15 << 8, 15 << 4 | 1 << 8}
        assert _fractions(num, den, 3, 4) == p.terms

    @pytest.mark.parametrize("left, right", [(7, 8), (8, 8), (31, 32), (32, 32)])
    def test_product_fills_the_field_without_carry(self, left, right):
        x, y = x_(2, 0), x_(2, 1)
        assert _width(left + right) == (left + right).bit_length()
        assert (x**left * (x**right + y)).terms == {(left + right, 0): 1, (left, 1): 1}

    @pytest.mark.parametrize("a, b, c", [(7, 4, 4), (8, 4, 4), (15, 8, 8), (16, 8, 8)])
    def test_chain_product_fills_the_field_without_carry(self, a, b, c):
        x, y = x_(2, 0), x_(2, 1)
        # The degrees sum to 15, 16, 31 and 32: a full field, or one past it.
        got = product([x**a, x**b + y, x**c], -3)
        assert _width(a + b + c) == (a + b + c).bit_length()
        assert got.terms == {(a + b + c, 0): -3, (a + c, 1): -3}

    def test_substitution_fills_the_field_without_carry(self):
        x, y = x_(3, 0), x_(3, 1)
        # deg 5 * deg 3 = 15: width 4, and y**15 fills its field.
        assert (x**5).substitute(0, y**3).terms == {(0, 15, 0): 1}
        assert (x**4 * y**3).substitute(0, y**3).terms == {(0, 15, 0): 1}

    def test_iterated_integral_fills_the_field_without_carry(self):
        y, z = x_(3, 1), x_(3, 2)
        # (14 + 1) * 1 = 15: width 4, and z**15 fills its field.
        assert iterated_integrate(y**14, [(1, 0, z)]).terms == {(0, 0, 15): F(1, 15)}
        # Two levels: (14 + 1) * 1 + 1 = 16 needs width 5.
        got = iterated_integrate(y**14, [(1, 0, z), (2, 0, x_(3, 0))])
        assert got.terms == {(16, 0, 0): F(1, 240)}


class TestSubstitution:
    def test_numeric_substitution(self):
        assert (x_() ** 2).substitute(0, const(3)) == const(9)

    def test_symbolic_substitution(self):
        x, y = x_(2, 0), x_(2, 1)
        assert (x + y).substitute(0, const(1, 2) - y) == const(1, 2)

    def test_gap_shift_identity(self):
        # (t1 - t3/3) with t1 := x + t3/3 collapses to x, checked by expansion.
        x, t1, t3 = x_(3, 0), x_(3, 1), x_(3, 2)
        p = t1 - t3 / 3
        assert p.substitute(1, x + t3 / 3) == x

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            x_().substitute(5, const(1))

    def test_compose_simultaneous(self):
        x, y = x_(2, 0), x_(2, 1)
        # Swap of variables must be simultaneous, not sequential.
        swapped = compose(x - y, [y, x])
        assert swapped == y - x

    def test_extract_univariate(self):
        p = MultiPoly(3, {(2, 0, 0): F(5), (0, 0, 0): F(1)})
        q = extract_univariate(p, 0)
        assert q == MultiPoly(1, {(2,): F(5), (0,): F(1)})
        with pytest.raises(ValueError):
            extract_univariate(MultiPoly(3, {(0, 1, 0): F(1)}), 0)


class TestIntegration:
    def test_monomial(self):
        assert integrate_once(x_() ** 2, 0, 0, 1) == const(F(1, 3))

    def test_constant_to_linear_bound(self):
        x, y = x_(2, 0), x_(2, 1)
        assert integrate_once(const(1, 2), 0, const(0, 2), const(1, 2) - y) == const(1, 2) - y

    def test_radial_moment(self):
        # integral_0^1 a^2 (1-a^2)^6 da, expanded term by term: 1024/45045.
        a = x_()
        val = integrate_once(a * a * (const(1) - a * a) ** 6, 0, 0, 1)
        assert val == const(F(1024, 45045))

    def test_bound_involving_variable_raises(self):
        with pytest.raises(ValueError):
            integrate_once(x_(), 0, 0, x_())

    def test_linearity_random(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_poly(rng, 2, 4)
            q = random_poly(rng, 2, 4)
            alpha = F(rng.randint(-5, 5), rng.randint(1, 4))
            beta = F(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = integrate_once(p * alpha + q * beta, 0, 0, 1)
            rhs = alpha * integrate_once(p, 0, 0, 1) + beta * integrate_once(q, 0, 0, 1)
            assert lhs == rhs

    def test_fundamental_theorem_random(self):
        rng = random.Random(7)
        for _ in range(100):
            p = random_poly(rng, 3, 6)
            v = rng.randint(0, 2)
            assert p.antiderivative(v).derivative(v) == p


class TestIteratedIntegration:
    def simplex_bounds(self):
        one = const(1, 3)
        t2, t3 = x_(3, 1), x_(3, 2)
        return [(0, MultiPoly(3), one - t2 - t3), (1, MultiPoly(3), one - t3), (2, MultiPoly(3), one)]

    def test_simplex_volume(self):
        assert iterated_integrate(const(1, 3), self.simplex_bounds()) == const(F(1, 6), 3)

    def test_simplex_first_moment(self):
        assert iterated_integrate(x_(3, 0), self.simplex_bounds()) == const(F(1, 24), 3)

    def test_dependency_violation_raises(self):
        # Outer bound referencing the already-integrated inner variable.
        t1 = x_(3, 0)
        bad = [(0, MultiPoly(3), const(1, 3)), (1, MultiPoly(3), t1)]
        with pytest.raises(ValueError):
            iterated_integrate(const(1, 3), bad)

    def test_simplex_quadratic_moment_vs_quadrature(self):
        # Independent check of a degree-6 integrand against tensor
        # Gauss-Legendre quadrature (exact for polynomials).
        np = pytest.importorskip("numpy")

        integrand = x_(3, 0) ** 2 * x_(3, 1) * (x_(3, 2) + const(1, 3)) ** 3
        exact = iterated_integrate(integrand, self.simplex_bounds()).evaluate([0, 0, 0])

        nodes, weights = np.polynomial.legendre.leggauss(10)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        total = 0.0
        for t3, w3 in zip(nodes, weights):
            for u2, w2 in zip(nodes, weights):
                t2 = u2 * (1 - t3)
                for u1, w1 in zip(nodes, weights):
                    t1 = u1 * (1 - t2 - t3)
                    total += w3 * w2 * w1 * (1 - t3) * (1 - t2 - t3) * (t1**2 * t2 * (t3 + 1) ** 3)
        assert abs(float(exact) - total) < 1e-12


class TestLaurentResidue:
    def test_triple_pole_negative_exponent(self):
        # Res[e^{-(r+s) z} / z^3] = (r+s)^2 / 2.
        r, s = x_(2, 0), x_(2, 1)
        res = residue_of_exp_over_linear_factors(-(r + s), [1, 1, 1])
        assert res == (r + s) ** 2 / 2

    def test_simple_pole_constant(self):
        res = residue_of_exp_over_linear_factors(MultiPoly(2), [1])
        assert res == MultiPoly.constant(2, 1)

    def test_triple_pole_positive_exponent(self):
        r, s = x_(2, 0), x_(2, 1)
        res = residue_of_exp_over_linear_factors(r - s, [1, 1, 1])
        assert res == (r - s) ** 2 / 2

    def test_identically_zero_factor_raises(self):
        with pytest.raises(ZeroDivisionError, match="identically zero"):
            residue_of_exp_over_linear_factors(x_(2, 0), [1, 0, 1])

    def test_matches_contour_trapezoid(self):
        # Res = (1 / 2 pi i) times the contour integral over |z| = 1.  The
        # trapezoid rule on N nodes aliases in only the Laurent coefficients
        # of degree N - 1 and up, which |L| <= 9 makes negligible.  Random L
        # and slopes.
        rng = random.Random(11)
        nodes = [cmath.exp(2j * cmath.pi * k / 128) for k in range(128)]
        for _ in range(200):
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
            exponent = MultiPoly.linear(2, {0: coeffs[0], 1: coeffs[1]}, coeffs[2])
            slopes = [F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            point = [rng.randint(-9, 9) / 9 for _ in range(2)]
            want = residue_of_exp_over_linear_factors(exponent, slopes).evaluate_float(point)
            lval = exponent.evaluate_float(point)
            total = 0j
            for z in nodes:
                den = 1
                for b in slopes:
                    den *= float(b) * z
                total += cmath.exp(lval * z) * z / den
            assert abs(total / len(nodes) - want) <= 1e-9 * max(1.0, abs(want))


class TestSymbolicReal:
    def test_radicand_square_free(self):
        v = SymbolicReal(1, 0, 8)
        assert (v.coeff, v.radicand) == (F(2), 2)

    def test_sqrt_product_absorbed(self):
        v = SymbolicReal(1, 0, 2) * SymbolicReal(1, 0, 2)
        assert v == SymbolicReal(2)

    def test_zero_canonical(self):
        z = SymbolicReal(0, 3, 5)
        assert (z.coeff, z.pi_power, z.radicand) == (F(0), 0, 1)

    def test_mixed_product(self):
        v = SymbolicReal(F(2, 3), 2, 3) * SymbolicReal(F(3, 4), 1, 6)
        assert v == SymbolicReal(F(3, 2), 3, 2)

    def test_division_cancels_pi(self):
        num = SymbolicReal(F(1, 39916800), 5)
        den = SymbolicReal(F(1, 9676800), 5)
        assert num / den == SymbolicReal(F(8, 33))

    def test_float_value(self):
        import math

        v = SymbolicReal(F(1, 2), 1, 2)
        assert abs(v.to_float() - 0.5 * math.pi * math.sqrt(2)) < 1e-15


class TestSerialization:
    def test_rational_roundtrip(self):
        q = F(-8, 33)
        assert rational_from_str(rational_str(q)) == q
        assert rational_str(q) == "-8/33"

    def test_rational_from_decimal(self):
        assert rational_from_str("0.45") == F(9, 20)

    def test_symreal_json(self):
        assert SymbolicReal(F(1, 3), 2, 5).to_json() == {"coeff": "1/3", "pi_pow": 2, "sqrt": 5}

    def test_poly_json_sorted(self):
        p = MultiPoly(2, {(2, 0): F(1), (0, 0): F(-1, 2)})
        assert p.to_json() == [
            {"exps": [0, 0], "coeff": "-1/2"},
            {"exps": [2, 0], "coeff": "1/1"},
        ]
