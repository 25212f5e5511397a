"""Volume constants and the orbit volume relations."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from sepprob.exactmath import SymbolicReal
from sepprob.volumes import (
    CenteredSpectrum,
    Spectrum,
    adjoint_orbit_volume_hs,
    coadjoint_symplectic_volume,
    det_poly,
    flat_moment,
    flag_volume_euclid,
    flag_volume_hs,
    hs_symplectic_relation_holds,
    partial_transpose_entry,
    simplex_vandermonde_integral,
    state_space_volume_hs,
    trace_power_poly,
    vandermonde,
)


class TestVandermonde:
    def test_pairs(self):
        assert vandermonde([1, 0]) == 1
        assert vandermonde([3, 2, 1]) == 2

    def test_repeated_root(self):
        assert vandermonde([F(1, 2), F(1, 2), 0]) == 0

    def test_alternating(self):
        rng = random.Random(2)
        for _ in range(20):
            xs = [F(rng.randint(-20, 20), 7) for _ in range(4)]
            swapped = [xs[1], xs[0], xs[2], xs[3]]
            assert vandermonde(swapped) == -vandermonde(xs)


class TestFlagVolumes:
    def test_hs_values(self):
        assert flag_volume_hs(1) == SymbolicReal(1)
        assert flag_volume_hs(2) == SymbolicReal(2, 1)          # 2 pi
        assert flag_volume_hs(4) == SymbolicReal(F(64, 12), 6)  # (2 pi)^6 / 12

    def test_euclid_values(self):
        assert flag_volume_euclid(1) == SymbolicReal(1)
        assert flag_volume_euclid(2) == SymbolicReal(1, 1)          # pi
        assert flag_volume_euclid(4) == SymbolicReal(F(1, 12), 6)   # pi^6 / 12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flag_volume_hs(0)
        with pytest.raises(ValueError):
            flag_volume_hs(13)


class TestOrbitVolumes:
    def test_two_level(self):
        assert adjoint_orbit_volume_hs([1, 0]) == SymbolicReal(2, 1)

    def test_degenerate_is_zero(self):
        assert adjoint_orbit_volume_hs([1, 1]) == SymbolicReal(0)

    def test_three_level(self):
        # Vandermonde 2, squared 4, times (2 pi)^3 / 2: 2 (2 pi)^3.
        assert adjoint_orbit_volume_hs([3, 2, 1]) == SymbolicReal(16, 3)

    def test_symplectic_two_level(self):
        c = CenteredSpectrum([F(1, 2), F(-1, 2)])
        assert coadjoint_symplectic_volume(c) == SymbolicReal(2, 1)

    def test_symplectic_degenerate(self):
        assert coadjoint_symplectic_volume(CenteredSpectrum([0, 0])) == SymbolicReal(0)

    def test_symplectic_four_level(self):
        c = CenteredSpectrum([F(20, 100), F(2, 100), F(-7, 100), F(-15, 100)])
        expected = flag_volume_hs(4) * vandermonde(c.entries)
        assert coadjoint_symplectic_volume(c) == expected

    def test_relation_simple_cases(self):
        assert hs_symplectic_relation_holds(CenteredSpectrum([F(1, 2), F(-1, 2)]))


class TestStateSpaceVolume:
    def test_point_space(self):
        assert state_space_volume_hs(1) == SymbolicReal(1)

    def test_qubit(self):
        # sqrt(2) * 2 pi / 6, i.e. (pi/3) sqrt(2).
        assert state_space_volume_hs(2) == SymbolicReal(F(1, 3), 1, 2)

    def test_simplex_integral_values(self):
        assert simplex_vandermonde_integral(1) == 1
        assert simplex_vandermonde_integral(2) == F(1, 6)
        assert simplex_vandermonde_integral(4) == F(144, factorial(15))

    def test_factorization_identity(self):
        for n in (2, 3, 4, 5):
            lhs = state_space_volume_hs(n)
            rhs = flag_volume_hs(n) * simplex_vandermonde_integral(n) * SymbolicReal(1, 0, n)
            assert lhs == rhs


class TestSpectrumTypes:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum([F(1, 2), F(1, 4), F(1, 8)])  # does not sum to 1
        with pytest.raises(ValueError):
            Spectrum([F(1, 4), F(1, 2), F(1, 8), F(1, 8)])  # not descending
        with pytest.raises(ValueError):
            Spectrum([F(3, 2), F(-1, 2)])  # negative entry

    def test_centered_validation(self):
        with pytest.raises(ValueError):
            CenteredSpectrum([F(1, 2), F(1, 2)])  # does not sum to 0

    def test_centering(self):
        s = Spectrum([F(9, 20), F(27, 100), F(9, 50), F(1, 10)])
        c = s.centered()
        assert sum(c.entries) == 0
        assert c.entries[0] == F(1, 5)

    def test_simple_flag(self):
        assert Spectrum([F(1, 2), F(1, 4), F(1, 4)]).is_simple is False
        assert Spectrum([F(1, 2), F(1, 3), F(1, 6)]).is_simple is True


class TestFlatMoments:
    """Wick-contraction moments of rho = G G^dag / tr, G a 4 x K complex
    Gaussian; K = 4 is the flat measure."""

    def test_flat_measure_values(self):
        pt = partial_transpose_entry
        got = [flat_moment(p) for p in (trace_power_poly(2), trace_power_poly(3), trace_power_poly(3, pt),
                                         det_poly(), det_poly(pt))]
        assert got == [F(8, 17), F(9, 34), F(4, 17), F(1, 3876), F(-7, 3876)]

    def test_off_diagonal_squares_vanish(self):
        assert all(flat_moment({((i, j), (i, j)): 1}) == 0 for i in range(4) for j in range(4) if i != j)

    @pytest.mark.parametrize("env", [1, 4, 5, 8])
    def test_purity_of_induced_measures(self, env):
        # E tr rho^2 = (N + K) / (N K + 1) (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001).
        assert flat_moment(trace_power_poly(2), env) == F(4 + env, 4 * env + 1)
