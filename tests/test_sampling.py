"""Monte Carlo lab tests: samplers, the orbit draw, transpose tests, the
slice sampler, the hit-and-run walk, and their statistical properties at
small scale.  The walk stays in the package only because
perfbench/replay.py conditioned() reads it; while it is there,
``TestSliceSampler::test_matches_walk_in_distribution`` also uses it as a
second law check of the slice sampler.

``hs_random_states`` gives the states ``estimate_sep_prob`` decides on, and
``reference.bartlett`` is the draw that ``_wishart_chunks`` streams, bit for
bit; ``reference.ginibre`` gives the full matrices whose matmul Gram the
decision kernel is also tested on.  The full-scale global fraction, slice
fractions, half-bound agreement and orbit histogram are acceptance criteria
7-10, and the sampling core and fixed-spectrum checks of verify all hold
their small-scale counterparts.  Statistical assertions run at fixed seeds, so they are
deterministic; the thresholds were set with slack against reasonable seed
changes.
"""

import json
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from reference import bartlett, ginibre, marginal_gaps_block, moment_polytope
from sepprob import sampling as sp
from sepprob.checks import SPEC_45, conditioned_slices, flat_factor_mismatch, marginal_histogram, ppt_decision_mismatch
from sepprob.dh_density import marginal_gap_density, marginal_support
from sepprob.sep_integral import conditioned_volume, separable_slice_volume
from sepprob.volumes import Spectrum

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def werner(p: float) -> np.ndarray:
    return (1 - p) * np.eye(4) / 4 + p * BELL


def phase_fixed_qr(g: np.ndarray) -> np.ndarray:
    """Oracle for the Haar core: LAPACK QR with R's diagonal rotated to be
    positive."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


class TestFlatMeasureSampler:
    def test_single_sample_valid(self):
        rho = sp.hs_random_state(sp.stream_rng(0))
        assert sp.is_valid_density_matrix(rho)

    def test_eigenvalues_sum_to_one(self):
        states = sp.hs_random_states(4, 200, seed=1)
        sums = np.linalg.eigvalsh(states).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_mean_is_maximally_mixed(self):
        states = sp.hs_random_states(4, 100_000, seed=11)
        mean = states.mean(axis=0)
        stderr = states.std(axis=0) / np.sqrt(len(states))
        dev = np.abs(mean - np.eye(4) / 4)
        assert np.all(dev <= 3 * np.abs(stderr) + 1e-12)

    def test_spectra_are_simple(self):
        eigs = np.linalg.eigvalsh(sp.hs_random_states(4, 20_000, seed=2))
        assert np.min(np.diff(eigs, axis=1)) > 1e-12

    def test_determinism_across_threads(self):
        a = sp.hs_random_states(4, 70_000, seed=5, threads=1)
        b = sp.hs_random_states(4, 70_000, seed=5, threads=4)
        assert np.array_equal(a, b)


def qr_orbit_columns(rng, size: int):
    """The ``_orbit_chunks`` draw read another way: each chunk's
    standard_normal((2, 3, 4, m)) (real plane, imaginary plane; axes column,
    row, sample) as m 4x3 matrices, orthonormalised by ``phase_fixed_qr``,
    shape (sample, row, column)."""
    for s in range(0, size, sp._CHUNK):
        x = rng.standard_normal((2, 3, 4, min(sp._CHUNK, size - s)))
        yield phase_fixed_qr((x[0] + 1j * x[1]).transpose(2, 1, 0))


def orbit_columns(rng, size: int) -> np.ndarray:
    """All ``_orbit_chunks`` columns of one stream, orthonormalised by
    ``_cgs2``, shape (3, 4, size)."""
    return np.concatenate([sp._cgs2(g) for _, g in sp._orbit_chunks(rng, size)], axis=2)


class TestHaarUnitary:
    """The first three columns of a Haar unitary, as ``_orbit_chunks`` draws
    them."""

    def test_unitarity(self):
        u = orbit_columns(sp.stream_rng(3), 2 * sp._CHUNK + 5)
        gram = np.einsum("mib,nib->bmn", u.conj(), u)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_first_column_dirichlet_moments(self):
        m2 = np.abs(orbit_columns(sp.stream_rng(3, 0), 100_000)[0]) ** 2
        # |u_i|^2 of a uniform column is Dirichlet(1,1,1,1): mean 1/4,
        # second moment 2/(4*5) = 1/10; 3 sigma at this sample size.
        assert np.max(np.abs(m2.mean(axis=1) - 0.25)) < 3 * np.sqrt(3 / 80 / 100_000)
        assert np.max(np.abs((m2**2).mean(axis=1) - 0.1)) < 2e-3

    def test_conjugation_invariance(self):
        lam = np.array([0.45, 0.27, 0.18, 0.10])
        states = sp._fixed_spectrum_block(lam, sp.stream_rng(8), sp._CHUNK + 1)
        w = np.linalg.eigvalsh(states)[:, ::-1]
        assert np.max(np.abs(w - lam)) < 1e-10


class TestGramSchmidtCore:
    @pytest.mark.parametrize("stream, count", [(4, 100_000), (5, 5000)])
    def test_matches_phase_fixed_qr(self, stream, count):
        u = orbit_columns(sp.stream_rng(31, stream), count).transpose(2, 1, 0)
        oracle = np.concatenate(list(qr_orbit_columns(sp.stream_rng(31, stream), count)))
        assert np.max(np.abs(u - oracle)) < 1e-10

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-10])
    def test_unitary_for_nearly_parallel_columns(self, eps):
        rng = sp.stream_rng(32)
        cols = ginibre(4, rng, 2000).T.copy()  # (column, row, batch)
        cols[1] = cols[0] + eps * ginibre(4, rng, 2000).T[0]
        q = sp._cgs2(cols)
        gram = np.einsum("mib,nib->bmn", q.conj(), q)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


class TestPartialTranspose:
    def test_involution(self):
        rho = sp.hs_random_state(sp.stream_rng(12))
        assert np.array_equal(sp.partial_transpose(sp.partial_transpose(rho)), rho)

    def test_output_hermitian(self):
        rho = sp.hs_random_state(sp.stream_rng(13))
        pt = sp.partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14

    def test_bell_minimum_eigenvalue(self):
        assert abs(np.linalg.eigvalsh(sp.partial_transpose(BELL))[0] + 0.5) < 1e-12

    def test_product_state_stays_psd(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
        assert np.linalg.eigvalsh(sp.partial_transpose(rho))[0] >= -1e-14


class TestTransposeTest:
    def test_maximally_mixed(self):
        assert sp.is_ppt(np.eye(4, dtype=complex) / 4)

    def test_bell_fails(self):
        assert not sp.is_ppt(BELL)

    def test_werner_boundary(self):
        # Smallest transposed eigenvalue is (1 - 3p)/4: boundary at p = 1/3.
        for p in (0.1, 0.25, 1 / 3, 0.6):
            got = np.linalg.eigvalsh(sp.partial_transpose(werner(p)))[0]
            assert abs(got - (1 - 3 * p) / 4) < 1e-12
        assert sp.is_ppt(werner(1 / 3 - 1e-6))
        assert not sp.is_ppt(werner(1 / 3 + 1e-6))

    def test_local_unitary_invariance(self):
        states = sp.hs_random_states(4, 10_000, seed=14)
        u_a, u_b = (phase_fixed_qr(ginibre(2, sp.stream_rng(7, k), 1))[0] for k in (1, 2))
        u = np.kron(u_a, u_b)
        mins = sp.ppt_min_eigs(states)
        mins_rot = sp.ppt_min_eigs(np.einsum("ij,bjk,lk->bil", u, states, u.conj()))
        band = 1e-10
        outside = (np.abs(mins) > band) & (np.abs(mins_rot) > band)
        assert np.all((mins[outside] >= 0) == (mins_rot[outside] >= 0))


def gaussian_squares(seed: int, count: int) -> np.ndarray:
    g = ginibre(4, sp.stream_rng(seed), count)
    return g @ g.conj().transpose(0, 2, 1)


class TestDeterminantDecision:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_masks_match_eigvalsh(self, seed):
        assert ppt_decision_mismatch(gaussian_squares(seed, 100_000)) is None

    def test_masks_match_eigvalsh_wide_band(self):
        # A wide band sends thousands of states through the eigvalsh fallback.
        assert ppt_decision_mismatch(gaussian_squares(34, 100_000), tol=1e-3) is None

    @pytest.mark.parametrize("tol", [sp.PPT_TOL, 1e-4])
    def test_estimator_counts_match_eigvalsh(self, tol):
        # Counts that end inside a chunk, one past a chunk edge, and one past
        # a block edge.
        for n in (100_000, sp._BLOCK + sp._CHUNK + 1, 3 * sp._BLOCK + 1):
            mins = sp.ppt_min_eigs(sp.hs_random_states(4, n, seed=35))
            want = (int(np.sum(mins >= -tol)), int(np.sum(np.abs(mins) < tol)))
            for threads in (1, 3):
                config = sp.SamplerConfig(seed=35, count=n, tolerance=tol)
                est = sp.estimate_sep_prob(config, threads=threads)
                assert (est.ppt_count, est.indeterminate) == want, n

    def test_werner_boundary_is_indeterminate(self):
        ppt, band = sp._ppt_decide(np.stack([werner(1 / 3), 3.0 * werner(1 / 3)]), sp.PPT_TOL)
        assert ppt.all() and band.all()

    @pytest.mark.parametrize("scale, ppt, band", [(0.5, True, True), (-0.5, True, True), (-2.0, False, False)])
    def test_fallback_near_zero(self, scale, ppt, band):
        # lambda_min = (1 - 3p)/4 = scale * tol.  At -tol/2 the det is
        # negative, so only the eigvalsh fallback can call the state PPT.
        tol = sp.PPT_TOL
        rho = werner((1 - 4 * scale * tol) / 3)
        assert abs(np.linalg.eigvalsh(sp.partial_transpose(rho))[0] - scale * tol) < 1e-15
        got_ppt, got_band = sp._ppt_decide(rho[None], tol)
        assert (got_ppt[0], got_band[0]) == (ppt, band)


# (block size, start) of one estimator chunk: chunks of 1, 7 and _CHUNK
# samples, and the short last chunk of a block that is not a multiple of
# _CHUNK.
CHUNKS = [(1, 0), (7, 0), (sp._CHUNK, 0), (2 * sp._CHUNK + 5, 2 * sp._CHUNK)]


def ginibre_chunk(size: int, start: int) -> np.ndarray:
    g = ginibre(4, sp.stream_rng(41, size), size)
    return g[start : start + sp._CHUNK]


class TestFlatKernel:
    """The estimator's (16, n) column-layout kernels against the batched
    (batch, 4, 4) path."""

    @pytest.mark.parametrize("size, start", CHUNKS + [(sp._CHUNK + 1, 0), (sp._BLOCK, 0)])
    def test_gram_matches_matmul(self, size, start):
        # Every chunk of a block from ``start`` on: the triangular Gram of the
        # Bartlett planes and of their slice-filtered images against dense matmuls.
        for s, d, z in sp._wishart_chunks(sp.stream_rng(41, size), size):
            for a in (0.0, 0.6):
                assert s < start or flat_factor_mismatch(a, d, z) is None

    @pytest.mark.parametrize("size, start", CHUNKS)
    @pytest.mark.parametrize("tol", [sp.PPT_TOL, 1e-3])
    def test_decision_matches_blocks(self, size, start, tol):
        g = ginibre_chunk(size, start)
        w = g @ g.conj().transpose(0, 2, 1)
        ppt, band = sp._ppt_decide_flat(w.reshape(len(w), 16).T.copy(), tol)
        mins = sp.ppt_min_eigs(w / np.einsum("bii->b", w).real[:, None, None])
        assert np.array_equal(ppt, mins >= -tol) and np.array_equal(band, np.abs(mins) < tol)

    @pytest.mark.parametrize("size", [1, 7, sp._CHUNK, sp._CHUNK + 1, 2 * sp._CHUNK + 5, sp._BLOCK])
    def test_streamed_draw_is_the_bartlett_draw(self, size):
        want = bartlett(sp.stream_rng(42, size), size, sp._CHUNK)
        rows, cols = np.tril_indices(4, -1)
        starts = []
        for start, d, z in sp._wishart_chunks(sp.stream_rng(42, size), size):
            m = min(sp._CHUNK, size - start)
            assert d.shape == (4, m) and z.shape == (2, 6, m) and d.flags.c_contiguous and z.flags.c_contiguous
            block = want[start : start + m]
            assert not block[:, range(4), range(4)].imag.any() and not np.triu(block, 1).any()
            for got, plane in ((d, block[:, range(4), range(4)].real), (z[0], block[:, rows, cols].real),
                               (z[1], block[:, rows, cols].imag)):
                assert np.array_equal(got.view(np.int64), np.ascontiguousarray(plane.T).view(np.int64)), start
            starts.append(start)
        assert starts == list(range(0, size, sp._CHUNK))


@pytest.mark.parametrize(
    "run",
    [lambda config: sp.estimate_sep_prob(config), lambda config: sp.conditioned_ppt_stats(0.3, config)],
    ids=["estimate_sep_prob", "conditioned_ppt_stats"],
)
def test_one_block_allocates_less_than_a_whole_block_array(run):
    # One real plane of a whole block of 4x4 matrices alone is 32768 * 16 * 8
    # bytes = 4 MiB; the streamed draw keeps one chunk at a time (a block
    # peaks near 3 MiB).
    config = sp.SamplerConfig(seed=9, count=sp._BLOCK)
    run(config)  # first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sp._BLOCK * 16 * np.dtype(float).itemsize


class TestStreamKeys:
    def test_seed_is_taken_modulo_2_64(self, cli_run):
        # The CLI passes --seed on as given; stream_rng reduces it.
        low, high = (json.loads(cli_run(["sample", "sep", "--n", "2000", "--seed", seed])[1])["results"]
                     for seed in ("-1", str((1 << 64) - 1)))
        assert low == high

    @pytest.mark.parametrize("block", [0, 1, 7])
    def test_slice_streams_differ_from_block_streams(self, block):
        first = [sp.stream_rng(5, stream).standard_normal() for stream in (block, sp._SLICE_STREAMS + block)]
        assert first[0] != first[1]


class TestSepEstimator:
    def test_reproducible(self):
        cfg = sp.SamplerConfig(seed=77, count=2000)
        assert sp.estimate_sep_prob(cfg) == sp.estimate_sep_prob(cfg)

    def test_thread_count_irrelevant(self):
        cfg = sp.SamplerConfig(seed=78, count=50_000)
        assert sp.estimate_sep_prob(cfg, threads=1) == sp.estimate_sep_prob(cfg, threads=3)

    def test_error_in_locked_stage_propagates_and_frees_the_lock(self, monkeypatch):
        cfg = sp.SamplerConfig(seed=78, count=50_000)
        # Two usable CPUs, so two workers whatever the host has.
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        gram, calls = sp._gram_tri, []

        def third_call_raises(d, z):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise RuntimeError("third chunk")
            return gram(d, z)

        def run():
            with pytest.raises(RuntimeError, match="third chunk"):
                sp.estimate_sep_prob(cfg, threads=2)
            raised.append(True)

        monkeypatch.setattr(sp, "_gram_tri", third_call_raises)
        # In a thread with a timeout: a lock left held would block the
        # other worker, and so the call, forever.
        raised, caller = [], threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and raised == [True]
        assert calls[2] not in (threading.main_thread(), caller)
        assert sp._ARITH_LOCK.acquire(blocking=False)
        sp._ARITH_LOCK.release()
        monkeypatch.setattr(sp, "_gram_tri", gram)
        assert sp.estimate_sep_prob(cfg, threads=2) == sp.estimate_sep_prob(cfg, threads=1)

    def test_fraction_near_target_small_run(self):
        est = sp.estimate_sep_prob(sp.SamplerConfig(seed=79, count=50_000))
        assert abs(est.fraction - 8 / 33) < 5 * est.stderr + 1e-9

    def test_minimum_count_guard(self):
        with pytest.raises(ValueError):
            sp.estimate_sep_prob(sp.SamplerConfig(seed=1, count=999))

    def test_unitary_rotation_keeps_fraction(self):
        n = 20_000
        est = sp.estimate_sep_prob(sp.SamplerConfig(seed=19, count=n))
        u = phase_fixed_qr(ginibre(4, sp.stream_rng(99), 1))[0]
        rotated = np.einsum("ij,bjk,lk->bil", u, sp.hs_random_states(4, n, seed=19), u.conj())
        frac_rot = float(np.mean(sp.ppt_min_eigs(rotated) >= -sp.PPT_TOL))
        assert abs(est.fraction - frac_rot) <= 3 * np.sqrt(2) * est.stderr

    def test_restricted_band_consistency(self):
        # With the top eigenvalue at most 1/2 and the first marginal nearly
        # maximally mixed, the transpose test passes ever more often as the
        # marginal band shrinks.
        states = sp.hs_random_states(4, 400_000, seed=29)
        lam_max = np.linalg.eigvalsh(states)[:, -1]
        gaps = marginal_gaps_block(states)
        mins = sp.ppt_min_eigs(states)
        fracs = []
        for band in (0.20, 0.12, 0.06):
            sel = (lam_max <= 0.5) & (gaps < band)
            assert sel.sum() > 100
            fracs.append(float(np.mean(mins[sel] >= -sp.PPT_TOL)))
        assert fracs[0] < fracs[1] < fracs[2]
        assert fracs[2] > 0.9


def qr_orbit_gaps(lam, count: int, seed: int) -> np.ndarray:
    """The gaps ``fixed_spectrum_gaps`` should return, rebuilt from the same
    draws by another route: each block's stream read by ``qr_orbit_columns``,
    and the gap read off the full state
    rho = sum_m (lam_m - lam_4) |q_m><q_m| + lam_4 I."""
    lam = np.asarray(lam, dtype=float)
    gaps = []
    for block, start in enumerate(range(0, count, sp._BLOCK)):
        for q in qr_orbit_columns(sp.stream_rng(seed, block), min(sp._BLOCK, count - start)):
            rho = np.einsum("bim,m,bjm->bij", q, lam[:3] - lam[3], q.conj()) + lam[3] * np.eye(4)
            gaps.append(marginal_gaps_block(rho))
    return np.concatenate(gaps)


def float_cdf(density, x: np.ndarray) -> np.ndarray:
    """``density.cdf`` at the points ``x`` in [0, b3], in floats: the exact
    mass below each piece's left breakpoint plus the piece's antiderivative
    from there, one vectorised polynomial per piece."""
    grid = density.breakpoints
    below = density.cdf(grid)
    piece = np.searchsorted([float(b) for b in grid[1:-1]], x, side="right")
    out = np.empty_like(x)
    for i, poly in enumerate(density.pieces):
        anti, sel = poly.antiderivative(0), piece == i
        out[sel] = float(below[i] - anti.evaluate([grid[i]])) + anti.evaluate_float([x[sel]])
    return out


class TestFixedSpectrum:
    LAM = [0.45, 0.27, 0.18, 0.10]

    def test_pure_state(self):
        rho = sp.sample_fixed_spectrum([1, 0, 0, 0], sp.stream_rng(20))
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_spectrum_preserved(self):
        rho = sp.sample_fixed_spectrum(self.LAM, sp.stream_rng(21))
        w = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.max(np.abs(w - np.array(self.LAM))) < 1e-10

    def test_gap_range(self):
        gaps = sp.fixed_spectrum_gaps(self.LAM, 100_000, seed=22)
        assert gaps.min() >= 0.0
        assert gaps.max() <= 0.44 + 1e-9

    @pytest.mark.parametrize(
        "lam", [LAM, [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.25] * 4]
    )
    def test_three_column_gaps_match_states(self, lam):
        gaps = sp.fixed_spectrum_gaps(lam, 20_000, seed=25)
        assert np.max(np.abs(gaps - qr_orbit_gaps(lam, 20_000, seed=25))) < 1e-12
        if lam == [0.25] * 4:
            assert not gaps.any()

    @pytest.mark.parametrize("count", [1, sp._CHUNK + 1, sp._BLOCK])
    def test_states_and_gaps_share_one_draw(self, count):
        # Block 0 of fixed_spectrum_gaps reads stream (seed, 0); the states
        # built from that stream must carry the very same gaps.
        states = sp._fixed_spectrum_block(np.array(self.LAM), sp.stream_rng(30, 0), count)
        gaps = sp.fixed_spectrum_gaps(self.LAM, count, seed=30)
        assert np.max(np.abs(marginal_gaps_block(states) - gaps)) < 1e-12

    def test_gaps_independent_of_thread_count(self):
        a = sp.fixed_spectrum_gaps(self.LAM, 70_000, seed=26, threads=1)
        b = sp.fixed_spectrum_gaps(self.LAM, 70_000, seed=26, threads=3)
        assert np.array_equal(a, b)

    # One sample; one chunk short of full; a full chunk plus one; and a full
    # block followed by a second block that ends in a one-sample chunk.
    @pytest.mark.parametrize("count", [1, sp._CHUNK - 1, sp._CHUNK + 1, sp._BLOCK + sp._CHUNK + 1])
    def test_chunked_gaps_match_states_block_by_block(self, count):
        gaps = sp.fixed_spectrum_gaps(self.LAM, count, seed=28)
        assert gaps.shape == (count,)
        assert np.max(np.abs(gaps - qr_orbit_gaps(self.LAM, count, seed=28))) < 1e-12

    def test_chunked_gaps_independent_of_thread_count(self):
        count = sp._BLOCK + sp._CHUNK + 1
        a = sp.fixed_spectrum_gaps(self.LAM, count, seed=29, threads=1)
        b = sp.fixed_spectrum_gaps(self.LAM, count, seed=29, threads=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_gap_law_matches_exact_cdf(self, seed):
        # Kolmogorov-Smirnov against dh_density's exact law, sharing no draw
        # with it: under the law P(sqrt(n) D >= 1.95) -> 2 exp(-2 * 1.95^2),
        # about 0.1 %.
        n = 1 << 18
        density = marginal_gap_density(SPEC_45)
        lam = [float(x + F(1, 4)) for x in SPEC_45.entries]
        x = np.sort(sp.fixed_spectrum_gaps(lam, n, seed))
        mass = density.integral()
        cdf = float_cdf(density, x) / float(mass)
        exact = [float(c / mass) for c in density.cdf(x[:: n // 64].tolist())]
        assert np.max(np.abs(cdf[:: n // 64] - exact)) < 1e-12
        rank = np.arange(1, n + 1) / n
        d = max(np.max(rank - cdf), np.max(cdf - (rank - 1.0 / n)))
        assert np.sqrt(n) * d < 1.95

    def test_histogram_keeps_every_sample(self):
        # np.histogram drops values outside [0, b3]; a non-unitary U would
        # push some gaps out and lose them here.
        spectrum = Spectrum([F(9, 20), F(27, 100), F(9, 50), F(1, 10)])
        hist = marginal_histogram(spectrum.centered(), 100_000, seed=27)
        assert int(hist.counts.sum()) == 100_000
        assert sum(hist.masses) == 1
        assert hist.sup_norm < 3.5 * hist.sigma_peak

    def test_rejects_non_two_qubit_spectrum(self):
        with pytest.raises(ValueError):
            sp.fixed_spectrum_gaps([0.5, 0.5], 100, seed=1)

    def test_moment_polytope_membership(self):
        spectrum = Spectrum([F(9, 20), F(27, 100), F(9, 50), F(1, 10)])
        poly = moment_polytope(marginal_support(spectrum.centered()))
        states = sp._fixed_spectrum_block(np.array(self.LAM), sp.stream_rng(23), 100_000)
        r = states.reshape(-1, 2, 2, 2, 2)
        gaps_a = marginal_gaps_block(states)
        red_b = np.einsum("bijil->bjl", r)
        hd = 0.5 * (red_b[:, 0, 0] - red_b[:, 1, 1]).real
        gaps_b = 2.0 * np.sqrt(hd**2 + np.abs(red_b[:, 0, 1]) ** 2)
        ok = [poly.contains(float(x), float(y), tol=1e-9) for x, y in zip(gaps_a, gaps_b)]
        assert all(ok)


class TestMarginalGap:
    def test_maximally_mixed_marginal(self):
        assert marginal_gaps_block(BELL[None])[0] == 0.0

    def test_pure_product(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
        assert abs(marginal_gaps_block(rho[None])[0] - 1.0) < 1e-12

    def test_range(self):
        states = sp.hs_random_states(4, 5000, seed=24)
        gaps = marginal_gaps_block(states)
        assert gaps.min() >= 0.0 and gaps.max() <= 1.0


class TestConditionedWalk:
    """The hit-and-run walk, in the package only because
    perfbench/replay.py conditioned() reads it."""

    def test_marginal_fixed_along_stream(self):
        a = 0.2
        target = (np.eye(2) + a * np.diag([1, -1])) / 2
        cfg = sp.SamplerConfig(seed=25, count=20, burn_in=100, thinning=5)
        states = sp.conditioned_samples(a, cfg, chains=1)
        for rho in states:
            assert sp.is_valid_density_matrix(rho)
        red = np.einsum("bijkj->bik", states.reshape(-1, 2, 2, 2, 2))
        assert np.max(np.abs(red - target)) < 1e-10

    def test_batch_marginals_and_validity(self):
        cfg = sp.SamplerConfig(seed=26, count=2000, burn_in=200, thinning=5)
        states = sp.conditioned_samples(0.4, cfg, chains=32)
        target = (np.eye(2) + 0.4 * np.diag([1, -1])) / 2
        r = states.reshape(-1, 2, 2, 2, 2)
        red = np.einsum("bijkj->bik", r)
        assert np.max(np.abs(red - target)) < 1e-10
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-12
        assert np.linalg.eigvalsh(states)[:, 0].min() >= -1e-10

    def test_deterministic(self):
        cfg = sp.SamplerConfig(seed=27, count=500, burn_in=100, thinning=3)
        s1 = sp.conditioned_samples(0.1, cfg, chains=16)
        s2 = sp.conditioned_samples(0.1, cfg, chains=16)
        assert np.array_equal(s1, s2)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            sp.conditioned_samples(1.0, sp.SamplerConfig(seed=1, count=10))


def slice_states(a: float, seed: int, count: int) -> np.ndarray:
    """``count`` slice-sampler states at radius ``a`` as (count, 4, 4), from
    one stream read as one block."""
    chunks = [sp._gram_tri(*sp._slice_filter(a, d, z)) for _, d, z in sp._wishart_chunks(sp.stream_rng(seed), count)]
    return np.concatenate(chunks, axis=1).T.reshape(count, 4, 4)


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_x - F_y|."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


class TestSliceSampler:
    @pytest.mark.parametrize("a", [0.0, 0.4, 0.9])
    def test_marginal_is_exact(self, a):
        states = slice_states(a, 50, 20_000)
        red = np.einsum("bijkj->bik", states.reshape(-1, 2, 2, 2, 2))
        assert np.max(np.abs(red - np.diag([(1 + a) / 2, (1 - a) / 2]))) < 1e-12

    @pytest.mark.parametrize("a", [0.0, 0.4, 0.9])
    def test_psd_with_unit_trace(self, a):
        states = slice_states(a, 51, 20_000)
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) == 0.0
        assert np.max(np.abs(np.einsum("bii->b", states) - 1.0)) < 1e-12
        assert np.linalg.eigvalsh(states)[:, 0].min() >= -1e-12

    def test_deterministic(self):
        assert np.array_equal(slice_states(0.3, 52, 5000), slice_states(0.3, 52, 5000))
        config = sp.SamplerConfig(seed=52, count=40_000)
        assert sp.conditioned_ppt_stats(0.3, config) == sp.conditioned_ppt_stats(0.3, config)

    @pytest.mark.parametrize("a", [0.0, 0.4, 0.9])
    def test_ppt_verdict_kept_sample_by_sample(self, a):
        # The same Bartlett draws, filtered and not: the filter is an
        # invertible local operation, so no sample may change its PPT verdict.
        n = 50_000
        before, after = [], []
        for _, d, z in sp._wishart_chunks(sp.stream_rng(53), n):
            before.append(sp._ppt_decide_flat(sp._gram_tri(d, z), sp.PPT_TOL)[0])
            after.append(sp._ppt_decide_flat(sp._gram_tri(*sp._slice_filter(a, d, z)), sp.PPT_TOL)[0])
        before, after = np.concatenate(before), np.concatenate(after)
        assert np.array_equal(before, after) and 0 < before.sum() < n

    @pytest.mark.parametrize("a", [1.0, -0.1])
    def test_rejects_radius_outside_unit_interval(self, a):
        with pytest.raises(ValueError):
            sp.conditioned_ppt_stats(a, sp.SamplerConfig(seed=1, count=10))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_streams_apart_from_estimator(self, seed):
        # PPT survives the filter, so a slice run on the estimator's streams
        # would recount its draws exactly.
        config = sp.SamplerConfig(seed=seed, count=4096)
        assert sp.conditioned_ppt_stats(0.0, config).fraction != sp.estimate_sep_prob(config).fraction

    def test_each_checked_slice_has_its_own_draws(self):
        fractions = [stats.fraction for stats in conditioned_slices(55, 4096)]
        assert len(set(fractions)) == len(fractions)

    def test_zero_radius_test_equivalence(self):
        stats = sp.conditioned_ppt_stats(0.0, sp.SamplerConfig(seed=28, count=20_000))
        assert stats.agreement_halfbound == 1.0

    def test_small_radius_agreement_degrades_gracefully(self):
        near = sp.conditioned_ppt_stats(0.002, sp.SamplerConfig(seed=13, count=20_000))
        far = sp.conditioned_ppt_stats(0.02, sp.SamplerConfig(seed=13, count=20_000))
        assert near.agreement_halfbound >= 0.995
        assert far.agreement_halfbound <= near.agreement_halfbound

    @pytest.mark.parametrize("a, seed", [(F(1, 10), 56), (F(1, 5), 57), (F(3, 10), 58)], ids=str)
    def test_half_bounded_fraction_is_exact_ratio(self, a, seed):
        # lambda_max <= 1/2 on the slice has the exact share f(a) / V(a).
        n = 1 << 17
        lam_max = np.linalg.eigvalsh(slice_states(float(a), seed, n))[:, -1]
        want = (separable_slice_volume(a) / conditioned_volume(a)).to_float()
        sigma = np.sqrt(want * (1 - want) / n)
        assert abs(np.mean(lam_max <= 0.5) - want) < 4 * sigma

    @pytest.mark.parametrize("tol", [sp.PPT_TOL, 1e-3])
    def test_half_bound_matches_eigvalsh(self, tol):
        # Slice states in chunks of 1, 7 and _CHUNK, with ties and states
        # around 1/2 + tol mixed in: an exact tie diag(1/2, 1/2, 0, 0), a
        # state at 1/2 + tol/2 and one at 1/2 + 2 tol.  For tol = 1e-3 the
        # last two have |det(I/2 - rho)| near 2e-5 and 7e-5, above the 1e-7
        # floor, so a det-only verdict would miscount the first.
        u = phase_fixed_qr(ginibre(4, sp.stream_rng(63), 1))[0]
        specials = [np.diag([0.5, 0.5, 0.0, 0.0])]
        for x in (tol / 2, 2 * tol):
            specials.append(np.diag([0.5 + x] + 3 * [(0.5 - x) / 3]))
        specials += [u @ rho @ u.conj().T for rho in specials]
        for size in (1, 7, sp._CHUNK):
            states = np.concatenate([slice_states(0.1, 64, size), specials])
            lam_max = np.linalg.eigvalsh(states)[:, -1]
            bounded, in_band = sp._half_bounded(states.reshape(len(states), 16).T.copy(), tol)
            assert np.array_equal(bounded, lam_max <= 0.5 + tol), size
            assert np.array_equal(in_band, np.abs(lam_max - 0.5) < sp._HALF_BAND), size
            assert in_band[-6] and in_band[-3]  # the tie, plain and rotated
            assert list(bounded[-5:]) == [True, False, True, True, False]

    @pytest.mark.parametrize("tol", [sp.PPT_TOL, 1e-3])
    @pytest.mark.parametrize("count", [sp._CHUNK + 1, sp._BLOCK + sp._CHUNK + 1])
    def test_counts_match_eigvalsh_on_every_state(self, count, tol):
        # Counts that end one past a chunk edge and one past a block edge,
        # against eigvalsh of every state on the same per-block streams.
        a, seed = 0.01, 65
        want = np.zeros(4, dtype=np.int64)
        for i, start in enumerate(range(0, count, sp._BLOCK)):
            size = min(sp._BLOCK, count - start)
            rng = sp.stream_rng(seed, sp._SLICE_STREAMS + i)
            chunks = [sp._gram_tri(*sp._slice_filter(a, d, z)) for _, d, z in sp._wishart_chunks(rng, size)]
            states = np.concatenate(chunks, axis=1).T.reshape(size, 4, 4)
            mins, lam_max = sp.ppt_min_eigs(states), np.linalg.eigvalsh(states)[:, -1]
            ppt, tie = mins >= -tol, np.abs(lam_max - 0.5) < sp._HALF_BAND
            agree = (ppt == (lam_max <= 0.5 + tol)) & ~tie
            want += [np.count_nonzero(m) for m in (ppt, np.abs(mins) < tol, tie, agree)]
        stats = sp.conditioned_ppt_stats(a, sp.SamplerConfig(seed=seed, count=count, tolerance=tol))
        ppt, indeterminate, tie, agree = (int(c) for c in want)
        assert (round(stats.fraction * count), stats.indeterminate, stats.band_count) == (ppt, indeterminate, tie)
        assert stats.agreement_halfbound == agree / (count - tie)

    @pytest.mark.parametrize("a", [0.0, 0.4])
    def test_matches_walk_in_distribution(self, a):
        # Two-sample KS on lambda_max and on lambda_min(rho^Gamma): 2048 walk
        # states thinned by 50 against 2^15 slice states.  1.95 is the
        # asymptotic KS quantile at p ~ 0.001; slice states at radius 0.5
        # read 5.9 against the walk at 0.4.
        config = sp.SamplerConfig(seed=60, count=2048, burn_in=1000, thinning=50)
        walk = sp.conditioned_samples(a, config, chains=64)
        draws = slice_states(a, 61, 1 << 15)
        scale = np.sqrt(len(walk) * len(draws) / (len(walk) + len(draws)))
        for stat in (lambda s: np.linalg.eigvalsh(s)[:, -1], sp.ppt_min_eigs):
            assert scale * ks_statistic(stat(walk), stat(draws)) < 1.95


def test_ppt_fraction_constant_across_marginal_radius():
    """8/33 on every slice, without the filter: 2^20 flat-measure draws binned
    by the Bloch radius of their first marginal."""
    p = 8 / 33

    def block(rng, size):
        states = sp._hs_random_block(rng, size)
        return np.stack([sp._ppt_decide(states, sp.PPT_TOL)[0], marginal_gaps_block(states)], axis=1)

    ppt, radius = sp._blocked_map(block, 1 << 20, 62, 1).T
    bins = np.digitize(radius, [0.2, 0.4, 0.6])
    for b in range(4):
        inside = ppt[bins == b]
        assert abs(inside.mean() - p) < 4 * np.sqrt(p * (1 - p) / len(inside)), b


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sp.SamplerConfig(seed=1, count=0)
        with pytest.raises(ValueError):
            sp.SamplerConfig(seed=1, count=10, burn_in=-1)
        with pytest.raises(ValueError):
            sp.SamplerConfig(seed=1, count=10, thinning=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            sp.SamplerConfig(seed=1, count=10, tolerance=tol)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sp.fixed_spectrum_gaps([0.45, 0.27, 0.18, 0.10], 0, 1),
            lambda: sp.fixed_spectrum_gaps([0.45, 0.27, 0.18, 0.10], -3, 1),
            lambda: sp.hs_random_states(4, -2, 1),
            lambda: marginal_histogram(SPEC_45, 0, 1),
        ],
        ids=["gaps-zero", "gaps-negative", "states-negative", "histogram-zero"],
    )
    def test_batch_samplers_reject_counts_below_one(self, draw):
        # As SamplerConfig does: no empty (or complex) batch, no division by
        # a zero count further down.
        with pytest.raises(ValueError, match="count must be at least 1"):
            draw()

    def test_flat_sampler_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="two-qubit"):
            sp.hs_random_states(3, 10, 1)
