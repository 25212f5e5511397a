"""Exact pipeline from the marginal-gap density to the separability
probability 8/33.

The centered-spectrum simplex is reparametrized by scaled spectral gaps,
the gap density is pulled back, and three partial integrals over explicit
iterated regions assemble the slice-volume polynomial f(a) of the
half-bounded states (lambda_max <= 1/2) at marginal Bloch radius a; at a = 0
that is the separable volume.  All arithmetic is exact; no floating point
enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .exactmath import (
    MultiPoly,
    SymbolicReal,
    compose,
    extract_univariate,
    integrate_once,
    iterated_integrate,
    product,
)
from .volumes import state_space_volume_hs

# Integrand variables: the free gap parameter x plus the three scaled
# spectral gaps of the global spectrum.
X, T1, T2, T3 = 0, 1, 2, 3

_F = Fraction


class ChangeOfVariables(NamedTuple):
    """Affine reparametrization of centered spectra by scaled gaps."""

    forward: tuple[MultiPoly, ...]  # centered entries as polynomials in (t1..t4)
    inverse: tuple[MultiPoly, ...]  # gap coordinates as polynomials in the entries
    jacobian: Fraction


def gap_change_of_variables() -> ChangeOfVariables:
    """Map t -> centered spectrum and back, with the exact volume factor.

    Forward: entry_k = sum_{j>=k} t_j / j - 1/4; inverse: t_k = k * (gap of
    consecutive entries), t_4 = 4*entry_4 + 1.  The Jacobian is computed from
    the reduced 3x3 matrix after eliminating t_4 on the trace-zero surface.
    """
    t = [MultiPoly.variable(4, i) for i in range(4)]
    quarter = MultiPoly.constant(4, _F(1, 4))
    forward = []
    for k in range(4):
        p = -quarter
        for j in range(k, 4):
            p = p + t[j] * _F(1, j + 1)
        forward.append(p)

    lam = [MultiPoly.variable(4, i) for i in range(4)]
    inverse = (
        lam[0] - lam[1],
        (lam[1] - lam[2]) * 2,
        (lam[2] - lam[3]) * 3,
        lam[3] * 4 + MultiPoly.constant(4, 1),
    )

    # Eliminate t4 = 1 - t1 - t2 - t3 and differentiate the first three
    # entries with respect to (t1, t2, t3).
    elim = MultiPoly.constant(4, 1) - t[0] - t[1] - t[2]
    reduced = [p.substitute(3, elim) for p in forward[:3]]
    m = [[reduced[i].derivative(j).evaluate([0, 0, 0, 0]) for j in range(3)] for i in range(3)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return ChangeOfVariables(tuple(forward), inverse, abs(det))


def _affine(const=0, x=0, t1=0, t2=0, t3=0) -> MultiPoly:
    """const + x*X + t1*T1 + t2*T2 + t3*T3, built straight from its coefficients."""
    return MultiPoly.linear(4, {X: x, T1: t1, T2: t2, T3: t3}, const)


def _vandermonde_factors() -> tuple[list[MultiPoly], Fraction]:
    """The Vandermonde in gap coordinates as affine factors and a scale:
    t1*t2*t3*(2t1+t2)*(3t2+2t3)*(6t1+3t2+2t3) / 432."""
    gaps = [_affine(t1=1), _affine(t2=1), _affine(t3=1)]
    return gaps + [_affine(t1=2, t2=1), _affine(t2=3, t3=2), _affine(t1=6, t2=3, t3=2)], _F(1, 432)


def _contribution_factors(k: int, branch: str | None) -> tuple[list[MultiPoly], Fraction]:
    """The k-th gap-density contribution as affine factors and a scale; see
    :func:`gap_integrand`."""
    x = _affine(x=1)
    if k == 1:
        if branch not in ("pos", "neg"):
            raise ValueError("contribution 1 needs branch 'pos' or 'neg'")
        sign = 1 if branch == "pos" else -1
        gap = _affine(x=-1, t1=sign, t3=_F(-sign, 3))  # (t1 - t3/3) - x, sign-resolved
        return [_affine(t2=1), _affine(t1=1, t2=_F(1, 2), t3=_F(1, 3)), gap, gap, x], _F(1, 32)
    if branch is not None:
        raise ValueError("only contribution 1 has branches")
    if k == 2:
        gap = _affine(x=-1, t1=1, t3=_F(1, 3))
        return [_affine(t1=1, t2=_F(1, 2)), _affine(t2=_F(1, 2), t3=_F(1, 3)), gap, gap, x], _F(-1, 16)
    if k == 3:
        gap = _affine(x=-1, t1=1, t2=1, t3=_F(1, 3))
        return [_affine(t1=1), _affine(t3=1), gap, gap, x], _F(1, 48)
    raise ValueError("contribution index must be 1, 2 or 3")


@lru_cache(maxsize=None)
def vandermonde_gap_poly() -> MultiPoly:
    """:func:`_vandermonde_factors` expanded (cached; MultiPoly is immutable)."""
    return product(*_vandermonde_factors())


def gap_integrand(k: int, branch: str | None = None) -> MultiPoly:
    """The k-th gap-density contribution pulled back to gap coordinates.

    k = 1 comes in two sign-resolved variants: branch "pos" for the part of
    the region where t1 - t3/3 >= x and "neg" where t1 - t3/3 <= -x.  The
    k = 2 contribution carries a negative prefactor; it subtracts mass.

        k = 1:  t2 (t1 + t2/2 + t3/3) (+-(t1 - t3/3) - x)**2 x / 32
        k = 2:  -(t1 + t2/2) (t2/2 + t3/3) (t1 + t3/3 - x)**2 x / 16
        k = 3:  t1 t3 (t1 + t2 + t3/3 - x)**2 x / 48
    """
    return product(*_contribution_factors(k, branch))


def _full_integrand(k: int, branch: str | None) -> MultiPoly:
    """Vandermonde times the k-th contribution, as one product chain."""
    vandermonde, v_scale = _vandermonde_factors()
    contribution, c_scale = _contribution_factors(k, branch)
    return product(vandermonde + contribution, v_scale * c_scale)


# Iterated integration bounds, innermost triple first.  Each bound is affine
# and may depend on x and on the not-yet-integrated gap variables only.
@lru_cache(maxsize=None)
def _bounds(name: str) -> tuple[tuple[int, MultiPoly, MultiPoly], ...]:
    zero = _affine()
    if name == "R1a":
        return (
            (T1, _affine(x=1, t3=_F(1, 3)), _affine(_F(1, 3), t2=_F(-1, 3), t3=_F(-1, 9))),
            (T2, zero, _affine(1, x=-3, t3=_F(-4, 3))),
            (T3, zero, _affine(_F(3, 4), x=_F(-9, 4))),
        )
    if name == "R1b":
        return (
            (T3, _affine(x=3, t1=3), _affine(1, t1=-1, t2=-1)),
            (T1, zero, _affine(_F(1, 4), x=_F(-3, 4), t2=_F(-1, 4))),
            (T2, zero, _affine(1, x=-3)),
        )
    if name == "Delta3":
        return (
            (T1, zero, _affine(1, t2=-1, t3=-1)),
            (T2, zero, _affine(1, t3=-1)),
            (T3, zero, _affine(1)),
        )
    if name in ("R2a", "R3a"):
        return (
            (T1, _affine(_F(1, 3), t2=_F(-1, 3), t3=_F(-1, 9)), _affine(1, t2=-1, t3=-1)),
            (T2, zero, _affine(1, t3=_F(-4, 3))),
            (T3, zero, _affine(_F(3, 4))),
        )
    if name == "R2b":
        return (
            (T2, zero, _affine(1, t1=-1, t3=-1)),
            (T1, zero, _affine(x=1, t3=_F(-1, 3))),
            (T3, zero, _affine(x=3)),
        )
    if name == "R2ab":
        return (
            (T2, _affine(1, t1=-3, t3=_F(-1, 3)), _affine(1, t1=-1, t3=-1)),
            (T1, _affine(t3=_F(1, 3)), _affine(x=1, t3=_F(-1, 3))),
            (T3, zero, _affine(x=_F(3, 2))),
        )
    if name == "R3b":
        return (
            (T1, zero, _affine(x=1, t2=-1, t3=_F(-1, 3))),
            (T2, zero, _affine(x=1, t3=_F(-1, 3))),
            (T3, zero, _affine(x=3)),
        )
    raise ValueError(f"unknown region {name!r}")


REGION_NAMES = ("Delta3", "R1a", "R1b", "R2a", "R2b", "R2ab", "R3a", "R3b")

# Signed decompositions behind each partial integral: (region, weight, branch).
REGION_DECOMPOSITION: dict[int, list[tuple[str, int, str | None]]] = {
    1: [("R1a", +1, "pos"), ("R1b", +1, "neg")],
    2: [("Delta3", +1, None), ("R2ab", +1, None), ("R2a", -1, None), ("R2b", -1, None)],
    3: [("Delta3", +1, None), ("R3a", -1, None), ("R3b", -1, None)],
}

# The same sum modulo x^3.  R2ab, R2b and R3b are thin (t3 and one inner
# width are O(x)), so with the factor x of every contribution they are
# O(x^3) and drop out; R1b on "neg" equals R1a on "pos", so R1a counts twice.
LOW_ORDER_DECOMPOSITION: dict[int, list[tuple[str, int, str | None]]] = {
    1: [("R1a", 2, "pos")],
    2: [("Delta3", +1, None), ("R2a", -1, None)],
    3: [("Delta3", +1, None), ("R3a", -1, None)],
}

# Measure factor: the x2 spectrum-ordering unfolding over the Jacobian 4!.
_MEASURE_FACTOR = _F(2, 24)


def region_integral(name: str, integrand: MultiPoly, truncate: tuple[int, int] | None = None) -> MultiPoly:
    """Exact iterated integral of ``integrand`` over one named region.

    The result is a univariate polynomial in the free gap parameter x, taken
    modulo x**(d + 1) when ``truncate`` is (X, d) (see
    :func:`iterated_integrate`).
    """
    return extract_univariate(iterated_integrate(integrand, _bounds(name), truncate), X)


def region_bounds_ordered(name: str, at_x) -> bool:
    """Exact check that lower <= upper for every bound pair at a fixed x.

    Every bound is affine.  So, at fixed x, the points that the outer levels
    admit are the convex hull of the points reached by taking the lower or the
    upper endpoint at each level, and upper - lower of the next level is affine
    on that hull.  An affine function is nonnegative on a convex hull exactly
    when it is nonnegative at the generating points, so walking the bounds
    outermost first through the two endpoints of each range decides the
    question.
    """
    bounds = list(reversed(_bounds(name)))

    def walk(level: int, point: list[Fraction]) -> bool:
        if level == len(bounds):
            return True
        var, lower, upper = bounds[level]
        lo, hi = lower.evaluate(point), upper.evaluate(point)
        return lo <= hi and all(walk(level + 1, point[:var] + [v] + point[var + 1:]) for v in (lo, hi))

    return walk(0, [Fraction(at_x), _F(0), _F(0), _F(0)])


@lru_cache(maxsize=None)
def gap_piece_partials(k: int) -> dict[str, MultiPoly]:
    """Signed per-region contributions to the k-th partial integral; each
    distinct integrand (one per branch) is built once."""
    branches = {branch for _, _, branch in REGION_DECOMPOSITION[k]}
    integrands = {b: _full_integrand(k, b) for b in branches}
    return {
        name: region_integral(name, integrands[branch]) * (sign * _MEASURE_FACTOR)
        for name, sign, branch in REGION_DECOMPOSITION[k]
    }


def gap_piece(k: int) -> MultiPoly:
    """The k-th partial integral as an exact univariate polynomial in x: the
    sum of the signed subregion contributions of ``gap_piece_partials``."""
    return sum(gap_piece_partials(k).values(), MultiPoly(1))


def _region_sum(table: dict, truncate: tuple[int, int] | None = None) -> MultiPoly:
    """The weighted sum of the region integrals in ``table``, by one iterated
    integral per distinct pair of bounds and weight on the sum of the
    integrands that share it; each integrand and each such sum is built once.
    Delta3 carries k = 2 and 3 and R2a has the bounds of R3a, so the nine
    regions of ``REGION_DECOMPOSITION`` take seven integrals, and the four of
    ``LOW_ORDER_DECOMPOSITION`` (see its comment) take three.  ``truncate``
    passes through to :func:`region_integral`."""
    keys = {(k, branch) for k, parts in table.items() for _, _, branch in parts}
    integrands: dict[tuple, MultiPoly] = {key: _full_integrand(*key) for key in keys}
    shared: dict[tuple, list[tuple[str, tuple]]] = {}
    for k, parts in table.items():
        for name, weight, branch in parts:
            shared.setdefault((_bounds(name), weight), []).append((name, (k, branch)))
    total = MultiPoly(1)
    for (_, weight), group in shared.items():
        mix = tuple(key for _, key in group)
        if mix not in integrands:
            integrands[mix] = sum((integrands[key] for key in mix[1:]), integrands[mix[0]])
        total = total + region_integral(group[0][0], integrands[mix], truncate) * weight
    return total * _MEASURE_FACTOR


@lru_cache(maxsize=None)
def gap_piece_sum() -> MultiPoly:
    """gap_piece(1) + gap_piece(2) + gap_piece(3) as one full polynomial in x,
    by seven region integrals instead of nine (see :func:`_region_sum`)."""
    return _region_sum(REGION_DECOMPOSITION)


@dataclass(frozen=True)
class RadialVolumePoly:
    """Half-bounded slice volume f(a) as prefactor times a primitive integer
    polynomial in the marginal Bloch radius a.

    f(a) is the volume of the states with lambda_max <= 1/2 on the slice of
    fixed marginal radius a.  It equals the separable volume of the slice
    only at a = 0; for a > 0, f(a) / conditioned_volume(a) falls below 8/33
    while the separable fraction stays at 8/33.
    """

    prefactor: SymbolicReal
    poly: MultiPoly  # arity 1, integer coefficients, content 1

    def evaluate(self, a) -> SymbolicReal:
        value = self.poly.evaluate([Fraction(a)])
        return self.prefactor * value


def _content(p: MultiPoly) -> Fraction:
    nums = [abs(c.numerator) for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    return Fraction(gcd(*nums), lcm(*dens)) if nums else Fraction(1)


# f(a) = pi^5 * _SLICE_SCALE * (gap_piece_sum() / x^2) at x = a.
_SLICE_SCALE = 128


def _radial_reduced(total: MultiPoly) -> MultiPoly:
    """total / x^2.  The partial integrals carry an overall x^2 factor that
    must cancel against the radial density; failure to cancel means an
    integration bug upstream and raises ArithmeticError."""
    if total.min_degree_in(0) < 2:
        raise ArithmeticError("radial factor x^2 did not cancel; integration is inconsistent")
    return total.shift_down(0, 2)


@lru_cache(maxsize=None)
def separable_slice_poly() -> RadialVolumePoly:
    """The half-bounded slice volume f(a) (lambda_max <= 1/2) as a function of
    the Bloch radius a; it is the separable slice volume only at a = 0.

    Valid on [0, 1/3]; the value at 0 extends by continuity.  Built from the
    full :func:`gap_piece_sum`, which must carry the factor x^2
    (:func:`_radial_reduced`).
    """
    q = _radial_reduced(gap_piece_sum()) * _SLICE_SCALE
    content = _content(q)
    return RadialVolumePoly(SymbolicReal(content, pi_power=5), q / content)


def separable_slice_volume(a) -> SymbolicReal:
    """Half-bounded slice volume f(a) (see :class:`RadialVolumePoly`) at
    Bloch radius ``a`` in [0, 1/3]."""
    a = Fraction(a)
    if not 0 <= a <= _F(1, 3):
        raise ValueError("the closed form is only established on [0, 1/3]")
    return separable_slice_poly().evaluate(a)


# Conditioned full-slice volume at radius 0; the radial identity check below
# confirms it against the independently computed state-space volume.
ZERO_CONDITIONED_VOLUME = SymbolicReal(_F(1, 9676800), pi_power=5)


def conditioned_volume(a) -> SymbolicReal:
    """HS volume of the fixed-marginal slice at Bloch radius ``a`` < 1.

    Phi(X) = (M (x) I) X (M (x) I)^dag with M = diag(1 + a, 1 - a)^(1/2) maps
    the radius-0 slice one to one onto this one.  Its determinant on the
    tangent space ker Tr_B is |det M|^16 (X -> A X A^dag on 4 x 4 Hermitian
    matrices) over |det M|^4 (Y -> M Y M^dag on the quotient by Tr_B), that is
    |det M|^12 = (1 - a^2)^6.
    """
    a = Fraction(a)
    if not 0 <= a < 1:
        raise ValueError("Bloch radius must lie in [0, 1)")
    return ZERO_CONDITIONED_VOLUME * (1 - a * a) ** 6


def radial_shell_integral() -> Fraction:
    """Exact value of the radial moment integral of the slice scaling.

    integral_0^1 a^2 (1 - a^2)^6 da, computed by the polynomial engine.
    """
    a = MultiPoly.variable(1, 0)
    integrand = a * a * (MultiPoly.constant(1, 1) - a * a) ** 6
    return integrate_once(integrand, 0, 0, 1).evaluate([0])


def radial_volume_identity_holds() -> bool:
    """Exact check that slicing by marginal radius recovers the state space.

    (pi/2) * radial moment * slice volume at 0  ==  full two-qubit HS volume.
    """
    shell = SymbolicReal(radial_shell_integral() / 2, pi_power=1)
    lhs = shell * ZERO_CONDITIONED_VOLUME
    return lhs == state_space_volume_hs(4)


def separability_probability() -> Fraction:
    """The headline ratio f(0) / V(0): separable slice volume over slice
    volume at radius 0.

    f(0) is 128 pi^5 times the x^2 coefficient of the summed partial
    integrals, so this route takes that sum modulo x^3 by the three integrals
    of ``LOW_ORDER_DECOMPOSITION`` (seven in :func:`gap_piece_sum`): the thin
    regions R2ab, R2b and R3b are O(x^3), and R1b equals R1a.  The x^0 and x^1
    coefficients must vanish, or ArithmeticError is raised.
    """
    low = _radial_reduced(_region_sum(LOW_ORDER_DECOMPOSITION, truncate=(X, 2)))
    sep = SymbolicReal(low.coefficient((0,)) * _SLICE_SCALE, pi_power=5)
    return (sep / ZERO_CONDITIONED_VOLUME).coeff


def centered_vandermonde_in_gaps_matches() -> bool:
    """Structural identity: the gap-coordinate Vandermonde equals the product
    of entry differences pushed through the change of variables."""
    change = gap_change_of_variables()
    product = MultiPoly.constant(4, 1)
    for i in range(4):
        for j in range(i + 1, 4):
            product = product * (change.forward[i] - change.forward[j])
    # The forward map lives in (t1..t4) with indices 0..3; shift into the
    # integrand variable layout (x, t1, t2, t3) where t4 = 1 - t1 - t2 - t3.
    t_in_layout = [_affine(t1=1), _affine(t2=1), _affine(t3=1), _affine(1, t1=-1, t2=-1, t3=-1)]
    return compose(product, t_in_layout) == vandermonde_gap_poly()
