"""Piecewise-polynomial density machinery for the two-local-qubit torus action
on a regular 4x4 traceless-spectrum orbit.

Three independent routes to the same planar density p(r, s):

* the closed form, hardcoded chamber by chamber;
* a wall-crossing re-derivation that starts from zero outside the support and
  adds one residue jump per wall;
* a float oracle that measures the fiber polygon of the weight map directly.

On top of that sit the marginal-gap objects: the support breakpoints derived
from a centered spectrum, the exact one-variable gap density, and its
quadrature oracle.  Only the float oracle uses numpy, and it imports it when
called.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactmath import MultiPoly, residue_of_exp_over_linear_factors
from .volumes import CenteredSpectrum

# Planar variables: index 0 is r, index 1 is s.
VAR_R, VAR_S = 0, 1

Weight = tuple[int, int]

# The four distinct weights drive the convolution density.  The six projected
# negative roots hit (-2, 0) and (0, -2) twice; that doubled pair is absorbed
# by the derivative step that turns the torus density into the non-Abelian one.
DISTINCT_WEIGHTS: list[Weight] = [(-2, 2), (-2, 0), (-2, -2), (0, -2)]

CHAMBER_LABELS = ("C0", "C1", "C2", "C3")

# Closed chambers as inequality lists (a, b) meaning a*r + b*s >= 0.
_CHAMBER_INEQS: dict[str, list[tuple[int, int]]] = {
    "C1": [(0, 1), (-1, -1)],   # 0 <= s <= -r
    "C2": [(0, -1), (-1, 1)],   # r <= s <= 0
    "C3": [(-1, 0), (1, -1)],   # s <= r <= 0
}


def classify_chamber(r, s) -> str:
    """Chamber label for a point; walls resolve with priority C1 > C2 > C3."""
    for label in ("C1", "C2", "C3"):
        if all(a * r + b * s >= 0 for a, b in _CHAMBER_INEQS[label]):
            return label
    return "C0"


@dataclass(frozen=True)
class PiecewiseChamberDensity:
    """Density on the plane given by one polynomial in (r, s) per chamber."""

    pieces: dict[str, MultiPoly]

    def piece(self, label: str) -> MultiPoly:
        return self.pieces[label]

    def evaluate(self, r, s) -> Fraction:
        return self.pieces[classify_chamber(r, s)].evaluate([Fraction(r), Fraction(s)])

    def evaluate_float(self, r: float, s: float) -> float:
        return self.pieces[classify_chamber(r, s)].evaluate_float([r, s])


def convolution_density_closed() -> PiecewiseChamberDensity:
    """The known four-piece density of the iterated half-line convolution."""
    r = MultiPoly.variable(2, VAR_R)
    s = MultiPoly.variable(2, VAR_S)
    return PiecewiseChamberDensity(
        {
            "C0": MultiPoly(2),
            "C1": (r + s) ** 2 / 64,
            "C2": (r * r + 2 * r * s - s * s) / 64,
            "C3": r * r / 32,
        }
    )


# Wall-crossing schedule: (chamber entered, weight lying on the wall,
# direction vector pointing into the entered chamber).  The 1/2 prefactor is
# the wall-restriction density of the on-wall half-line measure; each crossing
# has the same determinant, hence the same prefactor.
_WALL_CROSSINGS: list[tuple[str, Weight, tuple[int, int]]] = [
    ("C1", (-2, 2), (-1, -1)),
    ("C2", (-2, 0), (0, -1)),
    ("C3", (-2, -2), (1, -1)),
]
WALL_PREFACTOR = Fraction(1, 2)


def convolution_density_jump() -> PiecewiseChamberDensity:
    """Re-derive the chamber density by residue jumps across the three walls.

    Starting from zero outside the support, each crossing adds the residue of
    exp(<mu, z e>) over the off-wall linear factors z <w, e>, a pure pole of
    order three, scaled by the wall prefactor.  The result must equal the
    closed form piece by piece.
    """
    pieces = {"C0": MultiPoly(2)}
    current = MultiPoly(2)
    for label, wall_weight, e in _WALL_CROSSINGS:
        exponent = MultiPoly.linear(2, {VAR_R: Fraction(e[0]), VAR_S: Fraction(e[1])})
        slopes = [w[0] * e[0] + w[1] * e[1] for w in DISTINCT_WEIGHTS if w != wall_weight]
        jump = residue_of_exp_over_linear_factors(exponent, slopes)
        current = current + jump * WALL_PREFACTOR
        pieces[label] = current
    return PiecewiseChamberDensity(pieces)


def fiber_polytope_density(point: Sequence) -> float:
    """Float oracle: density of the pushed-forward orthant measure at ``point``.

    The density equals the 2D area of the fiber polygon {u >= 0 : A u = y}
    divided by sqrt(det(A A^T)).  The fiber is cut out of an affine 2-plane
    spanned by an orthonormal kernel basis, so areas transfer directly.
    """
    import numpy as np

    # Weight matrix A: columns are the four distinct weights; it sends the
    # positive orthant of R^4 onto the support cone in the plane.
    a = np.array([[w[0] for w in DISTINCT_WEIGHTS], [w[1] for w in DISTINCT_WEIGHTS]], dtype=float)
    y = np.array([float(Fraction(point[0])), float(Fraction(point[1]))])
    coarea = np.sqrt(np.linalg.det(a @ a.T))

    u0, *_ = np.linalg.lstsq(a, y, rcond=None)
    _, _, vh = np.linalg.svd(a)
    kernel = vh[2:].T  # 4x2 orthonormal basis of ker A

    # Half-planes in kernel coordinates w: u0_i + (kernel @ w)_i >= 0.
    normals = kernel  # row i is the gradient of constraint i
    offsets = u0

    vertices = []
    for i in range(4):
        for j in range(i + 1, 4):
            m = np.array([normals[i], normals[j]])
            det = np.linalg.det(m)
            if abs(det) < 1e-12:
                continue
            w = np.linalg.solve(m, -np.array([offsets[i], offsets[j]]))
            if np.all(offsets + normals @ w >= -1e-10):
                vertices.append(w)
    if len(vertices) < 3:
        return 0.0

    pts = np.unique(np.round(np.array(vertices), 12), axis=0)
    if len(pts) < 3:
        return 0.0
    center = pts.mean(axis=0)
    angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    ordered = pts[np.argsort(angles)]
    xs, ys = ordered[:, 0], ordered[:, 1]
    area = 0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))
    return float(area / coarea)


class MarginalSupport(NamedTuple):
    """Breakpoints 0 <= b1 <= b2 <= b3 of the marginal-gap distribution.

    b3 bounds the achievable gap; b1 and b2 are the interior kinks of its
    density.  All three are linear in the centered global spectrum.
    """

    b1: Fraction
    b2: Fraction
    b3: Fraction


def marginal_support(centered: CenteredSpectrum) -> MarginalSupport:
    if len(centered) != 4:
        raise ValueError("marginal support needs a length-4 centered spectrum")
    l1, l2, l3, l4 = centered.entries
    b3 = 2 * (l1 + l2)
    b2 = 2 * (l1 + l3)
    b1 = 2 * abs(l1 + l4)
    return MarginalSupport(b1, b2, b3)


@dataclass(frozen=True)
class PiecewisePoly1D:
    """Piecewise polynomial on consecutive intervals of a breakpoint grid."""

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[MultiPoly, ...]  # arity-1 polynomials, one per interval

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per interval")

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x < self.breakpoints[0] or x > self.breakpoints[-1]:
            return Fraction(0)
        for i in range(len(self.pieces)):
            if x <= self.breakpoints[i + 1]:
                return self.pieces[i].evaluate([x])
        return Fraction(0)

    def evaluate_float(self, x: float) -> float:
        if x < float(self.breakpoints[0]) or x > float(self.breakpoints[-1]):
            return 0.0
        for i in range(len(self.pieces)):
            if x <= float(self.breakpoints[i + 1]) or i == len(self.pieces) - 1:
                return self.pieces[i].evaluate_float([x])
        return 0.0

    def integral(self) -> Fraction:
        """Exact integral over the full support."""
        return self.cdf([self.breakpoints[-1]])[0]

    def integral_between(self, lo, hi) -> Fraction:
        """Exact integral over [lo, hi], clipped to the support; 0 when lo >= hi."""
        below_lo, below_hi = self.cdf([lo, max(Fraction(lo), Fraction(hi))])
        return below_hi - below_lo

    def cdf(self, points: Sequence) -> list[Fraction]:
        """Exact integral of the density from ``breakpoints[0]`` up to each
        point, clipped to the support: 0 at or below the first breakpoint,
        ``integral()`` at or above the last, and otherwise the mass of the
        density below the point.

        Each piece's antiderivative is built once and the piece masses are
        summed once, so successive differences of ``cdf(edges)`` give the
        exact mass of every bin at the cost of one evaluation per edge.
        """
        grid = self.breakpoints
        antis = [piece.antiderivative(0) for piece in self.pieces]
        at_lo = [anti.evaluate([grid[i]]) for i, anti in enumerate(antis)]
        below = [Fraction(0)]  # mass below each breakpoint
        for i, anti in enumerate(antis):
            below.append(below[-1] + anti.evaluate([grid[i + 1]]) - at_lo[i])
        out = []
        for x in points:
            x = Fraction(x)
            if x <= grid[0]:
                out.append(Fraction(0))
            elif x >= grid[-1]:
                out.append(below[-1])
            else:
                i = bisect_right(grid, x) - 1  # grid[i] <= x < grid[i + 1]
                out.append(below[i] + antis[i].evaluate([x]) - at_lo[i])
        return out


def marginal_gap_density(centered: CenteredSpectrum) -> PiecewisePoly1D:
    """Exact density of the marginal gap for a fixed simple global spectrum.

    Three cubic contributions, the k-th supported on [0, b_k]:

        d_k(x) = w_k * x * (x - b_k)^2,
        w_1 = (b3^2 - b2^2)/64,  w_2 = (b1^2 - b3^2)/64,  w_3 = (b2^2 - b1^2)/64.

    The pieces stack on the grid {0, b1, b2, b3}; a degenerate b1 = 0 simply
    drops the first interval.
    """
    b1, b2, b3 = marginal_support(centered)
    x = MultiPoly.variable(1, 0)

    def contribution(weight: Fraction, b: Fraction) -> MultiPoly:
        return x * (x - MultiPoly.constant(1, b)) ** 2 * weight

    w1 = (b3 * b3 - b2 * b2) / 64
    w2 = (b1 * b1 - b3 * b3) / 64
    w3 = (b2 * b2 - b1 * b1) / 64
    d1 = contribution(w1, b1)
    d2 = contribution(w2, b2)
    d3 = contribution(w3, b3)

    grid: list[Fraction] = []
    for b in (Fraction(0), b1, b2, b3):
        if not grid or b > grid[-1]:
            grid.append(b)
    pieces = []
    for i in range(len(grid) - 1):
        mid_hi = grid[i + 1]
        piece = MultiPoly(1)
        if mid_hi <= b1 and b1 > 0:
            piece = piece + d1
        if mid_hi <= b2:
            piece = piece + d2
        piece = piece + d3
        pieces.append(piece)
    return PiecewisePoly1D(tuple(grid), tuple(pieces))


# The nine signed shifts whose convolution with the planar density produces
# the marginal gap density: (x-shift, y-shift, sign).
def _signed_shifts(support: MarginalSupport) -> list[tuple[Fraction, Fraction, int]]:
    b1, b2, b3 = support
    return [
        (b1, b3, +1),
        (b1, b2, -1),
        (b2, b3, -1),
        (b2, b1, +1),
        (b2, -b1, +1),
        (b3, b2, +1),
        (b3, -b2, +1),
        (b3, b1, -1),
        (b3, -b1, -1),
    ]


def marginal_gap_density_numeric(centered: CenteredSpectrum, x: float) -> float:
    """Quadrature oracle for the marginal gap density at one point.

    Integrates x*y times the nine signed shifted copies of the planar density
    over y >= 0, in floats.  Each copy is cut at its shifted chamber walls, so
    on every wall-to-wall piece the planar density is one quadratic in y and
    the integrand a cubic.  Simpson's rule is exact for cubics, so one Simpson
    step per piece gives the integral up to rounding.
    """
    support = marginal_support(centered)
    b3 = float(support.b3)
    xf = float(x)
    if xf <= 0.0 or xf >= b3:
        return 0.0

    density = convolution_density_closed()
    total = 0.0
    for ax, ay, sign in _signed_shifts(support):
        a, b = float(ax), float(ay)
        r = xf - a
        if r > 0.0:
            continue  # shifted support lives at x <= shift
        y_hi = b - r  # wall s = -r of the shifted copy
        if y_hi <= 0.0:
            continue

        def integrand(y, _r=r, _b=b):
            return xf * y * density.evaluate_float(_r, y - _b)

        cuts = sorted({0.0, y_hi} | {c for c in (b, b + r) if 0.0 < c < y_hi})
        for lo, hi in zip(cuts, cuts[1:]):
            simpson = integrand(lo) + 4.0 * integrand(0.5 * (lo + hi)) + integrand(hi)
            total += sign * (hi - lo) / 6.0 * simpson
    return total
