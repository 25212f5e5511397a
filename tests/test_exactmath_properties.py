"""Algebraic laws of MultiPoly stated as hypothesis properties: the ring
laws, substitution as a ring homomorphism, compose and products against
evaluation, the product rule and inverse of the derivative, the chain product
kernel against operator steps, the packed-key integer kernels (products,
substitution, iterated integrals) against a reference on plain exponent
tuples and Fractions, and iterated integrals modulo a power of a free
variable against the full integral with its higher terms dropped."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import convolve
from sepprob.exactmath import MultiPoly, compose, iterated_integrate, product

ARITY = 3
# Fixed examples (no example database), so every run checks the same cases.
EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)


@st.composite
def polys(draw, arity=ARITY, max_degree=2):
    exps = st.tuples(*[st.integers(0, max_degree)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(exps, rationals, max_size=5)))


points = st.lists(rationals, min_size=ARITY, max_size=ARITY)
variables = st.integers(0, ARITY - 1)

ONE = MultiPoly.constant(ARITY, 1)
ZERO = MultiPoly(ARITY)


@EXAMPLES
@given(polys(), polys())
def test_commutativity(p, q):
    assert p + q == q + p
    assert p * q == q * p


@EXAMPLES
@given(polys(), polys(), polys())
def test_associativity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)


@EXAMPLES
@given(polys(), polys(), polys())
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@EXAMPLES
@given(polys())
def test_identities(p):
    assert p + ZERO == p
    assert p * ONE == p
    assert (p * ZERO).terms == {}
    assert (p - p).terms == {}


@EXAMPLES
@given(polys(), polys(), polys(), variables)
def test_substitution_is_a_ring_homomorphism(p, q, r, var):
    assert (p * q).substitute(var, r) == p.substitute(var, r) * q.substitute(var, r)
    assert (p + q).substitute(var, r) == p.substitute(var, r) + q.substitute(var, r)


@EXAMPLES
@given(
    polys(),
    st.lists(polys(arity=2), min_size=ARITY, max_size=ARITY),
    st.lists(rationals, min_size=2, max_size=2),
)
def test_compose_agrees_with_evaluation(p, inner, pt):
    outer_point = [q.evaluate(pt) for q in inner]
    assert compose(p, inner).evaluate(pt) == p.evaluate(outer_point)


@EXAMPLES
@given(polys(), polys(), points)
def test_product_agrees_with_evaluation(p, q, pt):
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@EXAMPLES
@given(polys(), polys(), variables)
def test_derivative_laws(p, q, var):
    assert (p * q).derivative(var) == p.derivative(var) * q + p * q.derivative(var)
    assert p.antiderivative(var).derivative(var) == p


# -- products and iterated integrals against a reference on plain Fraction dicts


def _ref_substitute(p, var, value, arity):
    out, powers = {}, [{(0,) * arity: Fraction(1)}]
    for e, c in p.items():
        while len(powers) <= e[var]:
            powers.append(convolve(powers[-1], value))
        rest = {e[:var] + (0,) + e[var + 1 :]: c}
        for e2, c2 in convolve(rest, powers[e[var]]).items():
            out[e2] = out.get(e2, Fraction(0)) + c2
    return out


def _ref_iterated_integrate(p, bounds):
    """Antiderivative, then substitute(upper) - substitute(lower), per level."""
    terms = dict(p.terms)
    for var, lower, upper in bounds:
        anti = {e[:var] + (e[var] + 1,) + e[var + 1 :]: c / (e[var] + 1) for e, c in terms.items()}
        terms = _ref_substitute(anti, var, upper.terms, p.arity)
        for e, c in _ref_substitute(anti, var, lower.terms, p.arity).items():
            terms[e] = terms.get(e, Fraction(0)) - c
    return MultiPoly(p.arity, terms)


@st.composite
def product_chains(draw):
    """Arity 1 to 4, one to five factors, a scale that may be zero; one
    factor is sometimes replaced by the zero polynomial."""
    arity = draw(st.integers(1, 4))
    factors = draw(st.lists(polys(arity=arity), min_size=1, max_size=5))
    if draw(st.booleans()):
        factors[draw(st.integers(0, len(factors) - 1))] = MultiPoly(arity)
    return factors, draw(st.one_of(st.just(Fraction(0)), rationals))


_X2, _Y2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


@EXAMPLES
@given(product_chains())
@example(([_X2 + 1, MultiPoly(2), _Y2], Fraction(-3, 2)))  # a zero factor, a negative scale
@example(([_X2 - _Y2, _X2 + _Y2], Fraction(0)))  # a zero scale
@example(([_X2 - _Y2, _X2 + _Y2, _X2 * _Y2 + 2], Fraction(-7, 5)))
def test_product_is_the_scaled_chain_of_factors(case):
    factors, scale = case
    arity = factors[0].arity
    chain, ref = scale * factors[0], {(0,) * arity: scale}
    for f in factors[1:]:
        chain = chain * f
    for f in factors:
        ref = convolve(ref, f.terms)
    got = product(factors, scale)
    assert got.terms == chain.terms
    assert got == MultiPoly(arity, ref)


@st.composite
def affine_bounds(draw, free):
    """Zero, a constant, or an affine form in the variables of ``free``."""
    kind = draw(st.sampled_from(["zero", "constant", "affine"]))
    if kind == "zero":
        return MultiPoly(ARITY)
    coeffs = {v: draw(rationals) for v in free} if kind == "affine" else {}
    return MultiPoly.linear(ARITY, coeffs, draw(rationals))


@st.composite
def integration_plans(draw):
    order = draw(st.permutations(range(ARITY)))[: draw(st.integers(1, ARITY))]
    bounds = []
    for i, var in enumerate(order):
        free = [v for v in range(ARITY) if v not in order[: i + 1]]
        bounds.append((var, draw(affine_bounds(free)), draw(affine_bounds(free))))
    return bounds


@EXAMPLES
@given(polys(max_degree=3), integration_plans())
def test_iterated_integral_matches_fraction_reference(p, bounds):
    assert iterated_integrate(p, bounds) == _ref_iterated_integrate(p, bounds)


@st.composite
def truncated_plans(draw):
    """(bounds, (var, degree)): a plan that integrates only variables other
    than ``var``, with affine bounds that may contain ``var``."""
    var = draw(variables)
    order = draw(st.permutations([v for v in range(ARITY) if v != var]))[: draw(st.integers(1, ARITY - 1))]
    bounds = []
    for i, v in enumerate(order):
        free = [u for u in range(ARITY) if u not in order[: i + 1]]
        bounds.append((v, draw(affine_bounds(free)), draw(affine_bounds(free))))
    return bounds, (var, draw(st.integers(0, 3)))


@EXAMPLES
@example(MultiPoly(ARITY, {(3, 1, 0): 2, (1, 0, 2): 1}), ([], (0, 1)))  # no level: the integrand itself
@given(polys(max_degree=3), truncated_plans())
def test_truncated_iterated_integral_drops_only_the_higher_terms(p, plan):
    bounds, (var, top) = plan
    full = iterated_integrate(p, bounds)
    got = iterated_integrate(p, bounds, (var, top))
    assert got.terms == {e: c for e, c in full.terms.items() if e[var] <= top}


@EXAMPLES
@given(polys(), integration_plans(), st.integers(0, 3))
def test_truncating_an_integrated_variable_raises(p, bounds, top):
    for var, _, _ in bounds:
        with pytest.raises(ValueError, match="integrated variable"):
            iterated_integrate(p, bounds, (var, top))


@EXAMPLES
@given(polys(), variables, st.integers(1, ARITY - 1), rationals)
def test_iterated_integral_rejects_bad_bounds(p, var, step, c):
    other = (var + step) % ARITY
    x = MultiPoly.variable(ARITY, var)
    bad_plans = [
        [(var, c, x + c)],  # a bound involves its own variable
        [(var, 0, c), (var, 0, c)],  # a variable integrated twice
        [(var, 0, c), (other, x + c, c + 1)],  # a bound on an integrated-out variable
    ]
    for bounds in bad_plans:
        with pytest.raises(ValueError):
            iterated_integrate(p, bounds)


# -- packed keys at arity 1 and 5, exponents up to about 60 -----------------

HIGH = 60
# Two arities per property, so half the examples each.
PACKED_EXAMPLES = settings(EXAMPLES, max_examples=25)
# The keys are under test here, not the coefficients: small rationals keep
# the Fraction reference's powers of the bounds cheap.
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def high_polys(draw, arity, max_degree=HIGH, max_size=4):
    exps = st.tuples(*[st.integers(0, max_degree)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(exps, small_rationals, min_size=1, max_size=max_size)))


@st.composite
def sparse_bounds(draw, arity, free):
    """A constant, or c + d * x_j for one variable j of ``free``."""
    c = draw(small_rationals)
    if not free or draw(st.booleans()):
        return MultiPoly.constant(arity, c)
    return MultiPoly.linear(arity, {draw(st.sampled_from(free)): draw(small_rationals)}, c)


@st.composite
def sparse_plans(draw, arity):
    order = draw(st.permutations(range(arity)))[: draw(st.integers(1, min(arity, 2)))]
    bounds = []
    for i, var in enumerate(order):
        free = [v for v in range(arity) if v not in order[: i + 1]]
        bounds.append((var, draw(sparse_bounds(arity, free)), draw(sparse_bounds(arity, free))))
    return bounds


@pytest.mark.parametrize("arity", [1, 5])
@PACKED_EXAMPLES
@given(data=st.data())
def test_packed_product_matches_tuple_reference(arity, data):
    p, q = data.draw(high_polys(arity)), data.draw(high_polys(arity))
    assert p * q == MultiPoly(arity, convolve(p.terms, q.terms))


@pytest.mark.parametrize("arity", [1, 5])
@PACKED_EXAMPLES
@given(data=st.data())
def test_packed_substitute_matches_tuple_reference(arity, data):
    p = data.draw(high_polys(arity))
    value = data.draw(high_polys(arity, max_degree=3, max_size=2))
    var = data.draw(st.integers(0, arity - 1))
    assert p.substitute(var, value) == MultiPoly(arity, _ref_substitute(p.terms, var, value.terms, arity))


@pytest.mark.parametrize("arity", [1, 5])
@PACKED_EXAMPLES
@given(data=st.data())
def test_packed_iterated_integral_matches_tuple_reference(arity, data):
    p, bounds = data.draw(high_polys(arity, max_size=3)), data.draw(sparse_plans(arity))
    assert iterated_integrate(p, bounds) == _ref_iterated_integrate(p, bounds)
