"""Reference implementations that only the tests use.

Each one restates, from first principles, a quantity that the package
builds another way, so that a test can compare the two: the projected root
weights, the compatibility polytope of marginal gap pairs and Bravyi's
marginal compatibility test built on it, the gap integrands built from the
support breakpoints, and the marginal gap read from the partial trace of whole
density matrices.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sepprob.dh_density import MarginalSupport, marginal_support
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


def marginal_gaps_block(states: np.ndarray) -> np.ndarray:
    """Eigenvalue gap of the first qubit's reduced state, for a (b, 4, 4)
    batch of density matrices."""
    red = np.einsum("bijkj->bik", states.reshape(-1, 2, 2, 2, 2))
    half_diff = 0.5 * (red[:, 0, 0] - red[:, 1, 1]).real
    return 2.0 * np.sqrt(half_diff**2 + np.abs(red[:, 0, 1]) ** 2)
