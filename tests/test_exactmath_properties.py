"""Algebraic laws of MultiPoly stated as hypothesis properties: the ring
laws, substitution as a ring homomorphism, compose and products against
evaluation, and the product rule and inverse of the derivative."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from sepprob.exactmath import MultiPoly, compose

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
