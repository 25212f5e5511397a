"""Closed-form Hilbert-Schmidt and symplectic volumes, and exact moments of
the flat measure.

Covers flag manifolds U(N)/T^N, regular adjoint orbits, the qudit state
space, and coadjoint orbits, all as exact symbolic constants.  Gamma of an
integer argument is a factorial, so nothing here leaves the rationals except
the explicit pi powers and sqrt(N) factors.  Polynomial moments of the
induced measures rho = G G^dag / tr(G G^dag) come from Wick's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from typing import Callable, Sequence

from .exactmath import SymbolicReal

# Desk-scale cap: factorials like Gamma(N^2) blow past any sane test budget
# long before this, and nothing downstream needs more than N = 4.
MAX_N = 12


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"N must be between 1 and {MAX_N}, got {n}")


def _gamma_product(n: int) -> int:
    """prod_{k=1}^{N} Gamma(k) = prod (k-1)! as an exact integer."""
    out = 1
    for k in range(1, n + 1):
        out *= factorial(k - 1)
    return out


def vandermonde(xs: Sequence) -> Fraction:
    """prod_{i<j} (x_i - x_j), exact."""
    vals = [Fraction(x) for x in xs]
    out = Fraction(1)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            out *= vals[i] - vals[j]
    return out


def _is_strictly_descending(xs: Sequence[Fraction]) -> bool:
    return all(xs[i] > xs[i + 1] for i in range(len(xs) - 1))


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalue vector of a density matrix: descending, sums to 1."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Sequence):
        vals = tuple(Fraction(x) for x in entries)
        if sum(vals) != 1:
            raise ValueError("spectrum must sum to 1")
        if any(v < 0 for v in vals):
            raise ValueError("spectrum entries must be nonnegative")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("spectrum entries must be sorted descending")
        object.__setattr__(self, "entries", vals)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_simple(self) -> bool:
        return _is_strictly_descending(self.entries)

    def centered(self) -> "CenteredSpectrum":
        n = len(self.entries)
        return CenteredSpectrum([v - Fraction(1, n) for v in self.entries])


@dataclass(frozen=True)
class CenteredSpectrum:
    """Traceless version of a spectrum: descending entries summing to 0."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Sequence):
        vals = tuple(Fraction(x) for x in entries)
        if sum(vals) != 0:
            raise ValueError("centered spectrum must sum to 0")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("centered spectrum entries must be sorted descending")
        object.__setattr__(self, "entries", vals)

    def __len__(self) -> int:
        return len(self.entries)

    def scaled(self, tau) -> "CenteredSpectrum":
        t = Fraction(tau)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return CenteredSpectrum([t * v for v in self.entries])


def flag_volume_hs(n: int) -> SymbolicReal:
    """HS volume of the flag manifold U(N)/T^N: (2 pi)^binom(N,2) / prod Gamma(k)."""
    _check_n(n)
    b = n * (n - 1) // 2
    return SymbolicReal(Fraction(2**b, _gamma_product(n)), pi_power=b)


def flag_volume_euclid(n: int) -> SymbolicReal:
    """Euclidean volume of the flag manifold: pi^binom(N,2) / prod Gamma(k)."""
    _check_n(n)
    b = n * (n - 1) // 2
    return SymbolicReal(Fraction(1, _gamma_product(n)), pi_power=b)


def adjoint_orbit_volume_hs(xs: Sequence) -> SymbolicReal:
    """HS volume of the unitary conjugation orbit of diag(xs).

    Degenerate (repeated-entry) input gives volume zero, the analytically
    continuous value for a collapsed orbit.
    """
    vals = [Fraction(x) for x in xs]
    v = vandermonde(vals)
    if v == 0:
        return SymbolicReal(0)
    if not _is_strictly_descending(vals):
        raise ValueError("orbit parameter must be strictly descending")
    return flag_volume_hs(len(vals)) * (v * v)


def state_space_volume_hs(n: int) -> SymbolicReal:
    """HS volume of the set of N x N density matrices.

    sqrt(N) * (2 pi)^binom(N,2) * prod Gamma(k) / Gamma(N^2).
    """
    _check_n(n)
    b = n * (n - 1) // 2
    g = _gamma_product(n)
    coeff = Fraction(2**b * g, factorial(n * n - 1))
    return SymbolicReal(coeff, pi_power=b, radicand=n)


def simplex_vandermonde_integral(n: int) -> Fraction:
    """Integral of the squared Vandermonde over the ordered eigenvalue simplex.

    Equals (prod Gamma(k))^2 / Gamma(N^2), exactly.
    """
    _check_n(n)
    g = _gamma_product(n)
    return Fraction(g * g, factorial(n * n - 1))


def coadjoint_symplectic_volume(centered: CenteredSpectrum) -> SymbolicReal:
    """Symplectic (Liouville) volume of the coadjoint orbit through ``centered``.

    Vandermonde of the spectrum times the HS flag volume; degenerate input
    gives zero.
    """
    v = vandermonde(centered.entries)
    if v == 0:
        return SymbolicReal(0)
    return flag_volume_hs(len(centered)) * v


def hs_symplectic_relation_holds(centered: CenteredSpectrum) -> bool:
    """Exact check: HS orbit volume = Vandermonde * symplectic orbit volume."""
    lhs = adjoint_orbit_volume_hs(centered.entries)
    rhs = coadjoint_symplectic_volume(centered) * vandermonde(centered.entries)
    return lhs == rhs


# A polynomial in the entries of a matrix rho: {monomial: integer
# coefficient}, a monomial being a tuple of (row, column) index pairs.
EntryPoly = dict[tuple[tuple[int, int], ...], int]


def partial_transpose_entry(i: int, j: int) -> tuple[int, int]:
    """The entry of a two-qubit rho at which rho^Gamma (second qubit
    transposed) has entry (i, j): rho^Gamma[2a + b, 2c + d] = rho[2a + d, 2c + b]."""
    return (i & 2) | (j & 1), (j & 2) | (i & 1)


def _identity_entry(i: int, j: int) -> tuple[int, int]:
    return i, j


def trace_power_poly(k: int, entry: Callable = _identity_entry) -> EntryPoly:
    """tr M^k with M[i, j] = rho[entry(i, j)], for 4x4 rho."""
    out: EntryPoly = {}
    for idx in product(range(4), repeat=k):
        mono = tuple(entry(idx[t], idx[(t + 1) % k]) for t in range(k))
        out[mono] = out.get(mono, 0) + 1
    return out


def det_poly(entry: Callable = _identity_entry) -> EntryPoly:
    """det M with M[i, j] = rho[entry(i, j)], for 4x4 rho, by the Leibniz
    formula."""
    out: EntryPoly = {}
    for perm in permutations(range(4)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        mono = tuple(entry(i, perm[i]) for i in range(4))
        out[mono] = out.get(mono, 0) + sign
    return out


def _cycle_count(perm: Sequence[int]) -> int:
    seen, cycles = set(), 0
    for start in range(len(perm)):
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return cycles


def flat_moment(poly: EntryPoly, env: int = 4) -> Fraction:
    """E f(rho), exact, for rho = W / tr W with W = G G^dag and G a 4 x env
    standard complex Gaussian (E |G_ij|^2 = 1); env = 4 is the flat
    (Hilbert-Schmidt) measure.  ``poly`` is f, homogeneous of degree k.

    By Wick's theorem, E prod_t W[r_t, s_t] = sum over permutations pi of
    the k factors of prod_t delta(r_t, s_pi(t)) * env^cycles(pi): the
    contraction pairs each G with a conj G of the same entry, and each cycle
    of pi sums one free column index.  rho is independent of tr W ~
    Gamma(4 env), so E f(rho) = E f(W) / E (tr W)^k, the rising factorial
    (4 env)(4 env + 1)...(4 env + k - 1)."""
    degrees = {len(mono) for mono in poly}
    if len(degrees) != 1:
        raise ValueError("the moment polynomial must be homogeneous")
    k = degrees.pop()
    total = 0
    for mono, coeff in poly.items():
        for pi in permutations(range(k)):
            if all(mono[t][0] == mono[pi[t]][1] for t in range(k)):
                total += coeff * env ** _cycle_count(pi)
    return Fraction(total, prod(range(4 * env, 4 * env + k)))
