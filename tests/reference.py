"""Reference implementations that only the tests use.

Each one restates, from first principles, a quantity that the package
builds another way, so that a test can compare the two: the projected root
weights, the compatibility polytope of marginal gap pairs and Bravyi's
marginal compatibility test built on it, the gap integrands built from the
support breakpoints, the Vandermonde, gap integrands and region bounds of
``sep_integral`` built by chains of ``MultiPoly`` operators, the marginal
gap read from the partial trace of whole density matrices, and the mass of a
piecewise density between two points summed piece by piece.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sepprob.dh_density import MarginalSupport, PiecewisePoly1D, marginal_support
from sepprob.exactmath import MultiPoly
from sepprob.sep_integral import T1, T2, T3, X

# Positive roots of the rank-3 special unitary algebra, as vectors in R^4.
POSITIVE_ROOTS_4 = [
    (1, -1, 0, 0),
    (1, 0, -1, 0),
    (1, 0, 0, -1),
    (0, 1, -1, 0),
    (0, 1, 0, -1),
    (0, 0, 1, -1),
]


def project_to_plane(v) -> tuple[int, int]:
    """Restriction map to the two-torus coordinates: 2(v1+v2, v1+v3)."""
    return (2 * (v[0] + v[1]), 2 * (v[0] + v[2]))


def weights_from_roots() -> list[tuple[int, int]]:
    """The six projected negative root images, as a sorted multiset.

    Two of them, (-2, 0) and (0, -2), occur twice.
    """
    return sorted((-px, -py) for px, py in map(project_to_plane, POSITIVE_ROOTS_4))


@dataclass(frozen=True)
class MomentPolytope2Q:
    """Compatibility region for marginal gap pairs (x, y) of a fixed spectrum.

    Membership: 0 <= x, y <= b3, x + y <= b2 + b3, |x - y| <= b3 - b1.
    """

    support: MarginalSupport

    def contains(self, x, y, tol: Fraction | float = 0) -> bool:
        b1, b2, b3 = self.support
        return (
            x >= -tol
            and y >= -tol
            and x <= b3 + tol
            and y <= b3 + tol
            and x + y <= b2 + b3 + tol
            and abs(x - y) <= b3 - b1 + tol
        )


def moment_polytope(support: MarginalSupport) -> MomentPolytope2Q:
    return MomentPolytope2Q(support)


def bravyi_compatible(global_spectrum, lam_min_a, lam_min_b, tol=0) -> bool:
    """Whether qubit marginals with the given minimal eigenvalues can coexist
    with the given global two-qubit spectrum."""
    if len(global_spectrum) != 4:
        raise ValueError("global spectrum must have length 4")
    x = 1 - 2 * Fraction(lam_min_a) if isinstance(lam_min_a, (int, Fraction)) else 1 - 2 * lam_min_a
    y = 1 - 2 * Fraction(lam_min_b) if isinstance(lam_min_b, (int, Fraction)) else 1 - 2 * lam_min_b
    poly = moment_polytope(marginal_support(global_spectrum.centered()))
    return poly.contains(x, y, tol=tol)


def support_polys() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Marginal-support breakpoints in gap coordinates.

    Returns (b1_signed, b2, b3) with b1_signed = t1 - t3/3; its absolute
    value is resolved per integration subregion.
    """
    t1, t2, t3 = (MultiPoly.variable(4, i) for i in (T1, T2, T3))
    return (t1 - t3 / 3, t1 + t3 / 3, t1 + t2 + t3 / 3)


def gap_integrand_pullback(k: int) -> MultiPoly:
    """The k-th contribution of ``sep_integral.gap_integrand`` built directly
    from the breakpoint polynomials.

    For k = 1 this uses the signed breakpoint t1 - t3/3, so it matches the
    "pos" branch; the "neg" branch matches after flipping that sign.
    """
    x = MultiPoly.variable(4, X)
    b1, b2, b3 = support_polys()
    if k == 1:
        return (b3 * b3 - b2 * b2) / 64 * x * (x - b1) ** 2
    if k == 2:
        return (b1 * b1 - b3 * b3) / 64 * x * (x - b2) ** 2
    if k == 3:
        return (b2 * b2 - b1 * b1) / 64 * x * (x - b3) ** 2
    raise ValueError("contribution index must be 1, 2 or 3")


def _v(i: int) -> MultiPoly:
    return MultiPoly.variable(4, i)


def _c(q) -> MultiPoly:
    return MultiPoly.constant(4, q)


def vandermonde_by_operators() -> MultiPoly:
    """``sep_integral.vandermonde_gap_poly`` as a chain of operator steps."""
    t1, t2, t3 = _v(T1), _v(T2), _v(T3)
    return t1 * t2 * t3 * (t1 * 2 + t2) * (t2 * 3 + t3 * 2) * (t1 * 6 + t2 * 3 + t3 * 2) / 432


def gap_integrand_by_operators(k: int, branch: str | None = None) -> MultiPoly:
    """``sep_integral.gap_integrand(k, branch)`` as a chain of operator steps."""
    x = _v(X)
    t1, t2, t3 = _v(T1), _v(T2), _v(T3)
    if k == 1:
        signed = (t1 - t3 / 3) if branch == "pos" else (t3 / 3 - t1)
        return t2 * (t1 + t2 / 2 + t3 / 3) / 32 * (signed - x) ** 2 * x
    if k == 2:
        return -(t1 + t2 / 2) * (t2 / 2 + t3 / 3) / 16 * (t1 + t3 / 3 - x) ** 2 * x
    return t1 * t3 / 48 * (t1 + t2 + t3 / 3 - x) ** 2 * x


def bounds_by_operators(name: str) -> list[tuple[int, MultiPoly, MultiPoly]]:
    """``sep_integral._bounds(name)`` with every bound built by operator steps."""
    x = _v(X)
    t1, t2, t3 = _v(T1), _v(T2), _v(T3)
    zero, one = _c(0), _c(1)
    return {
        "R1a": [
            (T1, x + t3 / 3, one / 3 - t2 / 3 - t3 / 9),
            (T2, zero, one - x * 3 - t3 * Fraction(4, 3)),
            (T3, zero, (one - x * 3) * Fraction(3, 4)),
        ],
        "R1b": [
            (T3, x * 3 + t1 * 3, one - t1 - t2),
            (T1, zero, (one - x * 3 - t2) / 4),
            (T2, zero, one - x * 3),
        ],
        "Delta3": [
            (T1, zero, one - t2 - t3),
            (T2, zero, one - t3),
            (T3, zero, one),
        ],
        "R2a": [
            (T1, one / 3 - t2 / 3 - t3 / 9, one - t2 - t3),
            (T2, zero, one - t3 * Fraction(4, 3)),
            (T3, zero, _c(Fraction(3, 4))),
        ],
        "R2b": [
            (T2, zero, one - t1 - t3),
            (T1, zero, x - t3 / 3),
            (T3, zero, x * 3),
        ],
        "R2ab": [
            (T2, one - t1 * 3 - t3 / 3, one - t1 - t3),
            (T1, t3 / 3, x - t3 / 3),
            (T3, zero, x * Fraction(3, 2)),
        ],
        "R3b": [
            (T1, zero, x - t2 - t3 / 3),
            (T2, zero, x - t3 / 3),
            (T3, zero, x * 3),
        ],
    }[name if name != "R3a" else "R2a"]


def marginal_gaps_block(states: np.ndarray) -> np.ndarray:
    """Eigenvalue gap of the first qubit's reduced state, for a (b, 4, 4)
    batch of density matrices."""
    red = np.einsum("bijkj->bik", states.reshape(-1, 2, 2, 2, 2))
    half_diff = 0.5 * (red[:, 0, 0] - red[:, 1, 1]).real
    return 2.0 * np.sqrt(half_diff**2 + np.abs(red[:, 0, 1]) ** 2)


def integral_between_by_pieces(density: PiecewisePoly1D, lo, hi) -> Fraction:
    """Exact integral of ``density`` over [lo, hi], clipped to its support: each
    piece's antiderivative taken across its overlap with [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    total = Fraction(0)
    for i, piece in enumerate(density.pieces):
        a = max(lo, density.breakpoints[i])
        b = min(hi, density.breakpoints[i + 1])
        if a < b:
            anti = piece.antiderivative(0)
            total += anti.evaluate([b]) - anti.evaluate([a])
    return total
