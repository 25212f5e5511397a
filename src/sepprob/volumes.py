"""Closed-form Hilbert-Schmidt and symplectic volumes.

Covers flag manifolds U(N)/T^N, regular adjoint orbits, the qudit state
space, and coadjoint orbits, all as exact symbolic constants.  Gamma of an
integer argument is a factorial, so nothing here leaves the rationals except
the explicit pi powers and sqrt(N) factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

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
