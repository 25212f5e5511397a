"""Reference implementations that only the tests use.

Each one restates, from first principles, a quantity that the package
builds another way, so that a test can compare the two: the projected root
weights, the compatibility polytope of marginal gap pairs and Bravyi's
marginal compatibility test built on it, the gap integrands built from the
support breakpoints, the Vandermonde, gap integrands and region bounds of
``sep_integral`` built by chains of ``MultiPoly`` operators, the product
of two polynomials as a plain Fraction convolution, the marginal
gap read from the partial trace of whole density matrices, the mass of a
piecewise density between two points summed piece by piece, a complex
Gaussian (Ginibre) draw, and the flat-measure Bartlett draw built as whole
lower-triangular matrices.
"""

from dataclasses import dataclass
from fractions import Fraction

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


def convolve(p: dict, q: dict) -> dict:
    """The product of two polynomials given as {exponent tuple: Fraction},
    one Fraction multiply-add per term pair, zero coefficients dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ginibre(n: int, rng, size: int):
    """``size`` n x n complex Gaussian matrices (a + 1j*b) / sqrt(2), shape
    (size, n, n), every real normal drawn before the first imaginary one."""
    import numpy as np

    g = np.empty((size, n, n), dtype=complex)
    g.real = rng.standard_normal(g.shape)
    g.imag = rng.standard_normal(g.shape)
    # Complex / real division multiplies by the reciprocal, so scaling the
    # float view gives the same bits as (a + 1j*b) / sqrt(2).
    g.view(float)[...] *= 1.0 / np.sqrt(2.0)
    return g


def bartlett(rng, size: int, chunk: int):
    """``size`` lower-triangular 4x4 factors L with L L^dag complex Wishart
    (4 degrees of freedom), shape (size, 4, 4), drawn ``chunk`` samples at a
    time: L_ii = sqrt(Gamma(4 - i)), real, from one standard_gamma call over
    the shapes (4, 3, 2, 1) as a column, then the real and imaginary parts of
    the entries below the diagonal, in ``np.tril_indices`` order, each a
    standard normal over sqrt(2)."""
    import numpy as np

    rows, cols = np.tril_indices(4, -1)
    out = np.zeros((size, 4, 4), dtype=complex)
    for s in range(0, size, chunk):
        m = min(chunk, size - s)
        diag = np.sqrt(rng.standard_gamma(np.array([[4.0], [3.0], [2.0], [1.0]]), (4, m)))
        re, im = rng.standard_normal((2, 6, m)) * (1.0 / np.sqrt(2.0))
        out[s : s + m, range(4), range(4)] = diag.T
        out[s : s + m, rows, cols] = re.T + 1j * im.T
    return out


def marginal_gaps_block(states):
    """Eigenvalue gap of the first qubit's reduced state, for a (b, 4, 4)
    numpy batch of density matrices."""
    import numpy as np

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
