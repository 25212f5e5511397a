"""Monte Carlo cross-validation lab for two-qubit separability.

Random density matrices under the flat (Hilbert-Schmidt) measure, Haar
fixed-spectrum orbits, exact iid draws on fixed-marginal slices by local
filtering, the positive-partial-transpose test and the marginal-gap statistic.
A hit-and-run walk stays only because perfbench/replay.py conditioned() reads it.

Everything stochastic is driven by SFC64 streams keyed by (seed, stream
index) through numpy's SeedSequence, so results are bit-reproducible for a
given seed and independent of how work is split across threads.  Batch
entry points carve the sample range into fixed blocks, one stream per
block.  Inside a block the samplers stream cache-sized chunks: the
flat-measure estimator and the slice sampler read ``_ginibre_chunks`` (the
block's real plane whole, then its imaginary plane chunk by chunk), the
orbit sampler ``_orbit_chunks``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
PPT_TOL = 1e-10
# Below this |det(rho^Gamma)| the determinant's sign is left to eigvalsh: far
# above the det's rounding error (~1e-16) for any tolerance.
_DET_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_BLOCK = 32768
# Samples per cache-sized pass inside a block (the estimator's Gram and
# determinant; the orbit sampler's draw, Gram-Schmidt and gaps): one
# (_CHUNK,) complex operand is 64 KB, so the passes over it stay in L2.
_CHUNK = 4096

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """SFC64 generator for one (seed, stream) pair, the seed taken modulo
    2^64.  SeedSequence hashes the pair into SFC64's 256-bit state, so two
    pairs share a state, or draw overlapping runs, only with negligible
    probability."""
    ss = np.random.SeedSequence(seed & _MASK64, spawn_key=(stream,))
    return np.random.Generator(np.random.SFC64(ss))


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by the samplers; burn_in and thinning are read only by
    the hit-and-run walk ``conditioned_samples``.

    ``tolerance`` is the half-width of the indeterminate band around zero for
    the smallest partial-transpose eigenvalue lambda_min: a state counts as
    PPT when lambda_min >= -tolerance, and as indeterminate when
    |lambda_min| < tolerance.  The decision itself reads the sign of
    det(rho^Gamma) (``_sign_decide``).
    """

    seed: int
    count: int
    burn_in: int = 1000
    thinning: int = 10
    tolerance: float = PPT_TOL

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")


def is_valid_density_matrix(rho: np.ndarray) -> bool:
    """Hermitian within HERMITICITY_TOL, unit trace within TRACE_TOL, and
    spectrum >= -PSD_TOL."""
    if rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        return False
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        return False
    return float(np.linalg.eigvalsh(rho)[0]) >= -PSD_TOL


def _ginibre_chunks(rng: np.random.Generator, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The one flat-measure draw of the estimator and the slice sampler: the
    4x4 Ginibre matrices of a ``size``-sample block as (start, gt) per chunk
    of m <= ``_CHUNK`` samples, gt of shape (16, m) in the column layout of
    ``_gram_flat`` (row 4r + c holds G[r, c]), each entry
    (a + 1j*b) / sqrt(2) with a and b standard normals.

    The stream holds every real normal of the block before the first
    imaginary one, so the real plane is read whole as
    standard_normal((size, 16)); the imaginary plane is read one chunk at a
    time as standard_normal((m, 16)), which gives the same numbers as one
    call because ``standard_normal`` carries no state between calls."""
    scale = 1.0 / np.sqrt(2.0)
    re = rng.standard_normal((size, 16))
    re *= scale
    for s in range(0, size, _CHUNK):
        m = min(_CHUNK, size - s)
        gt = np.empty((16, m), dtype=complex)
        im = rng.standard_normal((m, 16))
        im *= scale
        gt.real, gt.imag = re[s : s + m].T, im.T
        del im  # else it stays alive while the caller works on the chunk
        yield s, gt


def hs_random_state(rng: np.random.Generator) -> np.ndarray:
    """One two-qubit density matrix under the flat measure: G G^dag /
    tr(G G^dag), with G a 4x4 standard complex Gaussian matrix."""
    return _hs_random_block(rng, 1)[0]


def _hs_random_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` flat-measure states as (size, 4, 4): the ``_ginibre_chunks``
    draw through ``_gram_flat``, divided by its trace, as the estimator's
    decision reads it."""
    rho = np.empty((size, 16), dtype=complex)
    for s, gt in _ginibre_chunks(rng, size):
        wt = _gram_flat(gt)
        rho[s : s + _CHUNK] = (wt / (wt[0] + wt[5] + wt[10] + wt[15]).real).T
    return rho.reshape(size, 4, 4)


def hs_random_states(n: int, count: int, seed: int, threads: int = 1) -> np.ndarray:
    """``count`` flat-measure states (``n`` = 4, the only dimension drawn),
    reproducible regardless of thread count: the very states
    ``estimate_sep_prob`` decides on for the same seed."""
    if n != 4:
        raise ValueError("the flat-measure sampler draws two-qubit states (n = 4)")
    return _blocked_map(_hs_random_block, count, seed, threads)


def _cgs2(cols: np.ndarray) -> np.ndarray:
    """Orthonormalise, in place, the columns of a (k, row, batch) complex
    array by classical Gram-Schmidt with one re-orthogonalisation pass.

    Each column is projected off the earlier ones twice, since "twice is
    enough": the second pass removes what rounding left of the first, so
    Q^dag Q = I to a few ulps even for nearly parallel columns.
    """
    for j in range(len(cols)):
        v = cols[j]
        for _ in range(2 if j else 0):
            coef = [np.sum(cols[m].conj() * v, axis=0) for m in range(j)]
            for m in range(j):
                v -= cols[m] * coef[m]
        v /= np.sqrt(np.sum(v.real**2 + v.imag**2, axis=0))
    return cols


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit state (an involution; output is
    Hermitian, possibly indefinite)."""
    if rho.shape != (4, 4):
        raise ValueError("partial transpose expects a 4x4 two-qubit state")
    return _pt_block(rho[None])[0]


# Partial transpose on the second qubit as a flat index map:
# rho^Gamma[2i+j, 2k+l] = rho[2i+l, 2k+j].
_PT_FLAT = np.array(
    [4 * (2 * i + l) + 2 * k + j for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)]
)


def _pt_block(states: np.ndarray) -> np.ndarray:
    n = states.shape[0]
    return states.reshape(n, 16)[:, _PT_FLAT].reshape(n, 4, 4)


def ppt_min_eigs(states: np.ndarray) -> np.ndarray:
    """Smallest partial-transpose eigenvalue for a batch of states."""
    return np.linalg.eigvalsh(_pt_block(states))[:, 0]


def _gram_flat(gt: np.ndarray) -> np.ndarray:
    """W = G G^dag for a batch of 4x4 matrices in (16, n) column layout: row
    4r + c of ``gt`` holds G[r, c] of every sample, and row 4r + s of the
    result holds W[r, s].

    Each entry is one reduction over the four columns, run across the whole
    batch; the diagonal is real by construction and W[s, r] = conj W[r, s].
    """
    n = gt.shape[1]
    rows = gt.reshape(4, 4, n)
    wt = np.empty((16, n), dtype=complex)
    for r in range(4):
        re, im = rows[r].real, rows[r].imag
        wt[5 * r] = np.einsum("mb,mb->b", re, re) + np.einsum("mb,mb->b", im, im)
        for s in range(r + 1, 4):
            np.einsum("mb,mb->b", rows[r], rows[s].conj(), out=wt[4 * r + s])
            np.conjugate(wt[4 * r + s], out=wt[4 * s + r])
    return wt


def _det4(p: Sequence[np.ndarray]) -> np.ndarray:
    """Real part of the det of each 4x4 block, by Laplace expansion along
    rows 0-1 in complementary 2x2 minors.  ``p[4i + j]`` is entry (i, j)
    across the batch: the row views ``[wt[k] for k in _PT_FLAT]`` of a
    (16, n) layout give det(rho^Gamma), the rows of ``wt`` in order give
    det(rho) itself."""

    def minor(r0, r1, c0, c1):
        return p[4 * r0 + c0] * p[4 * r1 + c1] - p[4 * r0 + c1] * p[4 * r1 + c0]

    det = (
        minor(0, 1, 0, 1) * minor(2, 3, 2, 3) - minor(0, 1, 0, 2) * minor(2, 3, 1, 3)
        + minor(0, 1, 0, 3) * minor(2, 3, 1, 2) + minor(0, 1, 1, 2) * minor(2, 3, 0, 3)
        - minor(0, 1, 1, 3) * minor(2, 3, 0, 2) + minor(0, 1, 2, 3) * minor(2, 3, 0, 1)
    )
    return det.real


def _sign_decide(det: np.ndarray, floor: float, exact) -> tuple[np.ndarray, np.ndarray]:
    """(det > 0, all False) as two masks, except where |det| < ``floor``:
    there ``exact(near)`` gives both from the eigenvalues.

    The one theorem behind both sampling verdicts: ``det`` is the product of
    four eigenvalues of which at most one, the margin, can be negative, and
    the other three multiply to at most 1/8.  The margin is lambda_min for
    rho^Gamma of a trace-one two-qubit rho (Augusiak, Demianowicz &
    Horodecki, PRA 77, 030301(R), 2008), and 1/2 - lambda_max for I/2 - rho.
    So det has the margin's sign and |det| <= |margin| / 8: a ``floor`` at
    least the caller's tolerance and band half-width sends every sample that
    either could touch to ``exact``.
    """
    near = np.abs(det) < floor
    passed = det > 0
    band = np.zeros(len(det), dtype=bool)
    if near.any():
        passed[near], band[near] = exact(near)
    return passed, band


def _ppt_decide_flat(wt: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """PPT and indeterminate-band masks for a batch of positive 4x4 blocks of
    any trace, given in (16, n) layout (entry (r, s) in row 4r + s):
    (m >= -tol, |m| < tol) with m the smallest partial-transpose eigenvalue
    of the normalised block, decided by ``_sign_decide`` on det(rho^Gamma).
    """
    tr = (wt[0] + wt[5] + wt[10] + wt[15]).real

    def exact(near):
        mins = ppt_min_eigs(wt[:, near].T.reshape(-1, 4, 4) / tr[near, None, None])
        return mins >= -tol, np.abs(mins) < tol

    return _sign_decide(_det4([wt[k] for k in _PT_FLAT]) / tr**4, max(tol, _DET_FLOOR), exact)


def _ppt_decide(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``_ppt_decide_flat`` on a (batch, 4, 4) array: (m >= -tol, |m| < tol)
    with m = ppt_min_eigs(w / tr w)."""
    return _ppt_decide_flat(w.reshape(len(w), 16).T, tol)


def is_ppt(rho: np.ndarray) -> bool:
    """Peres-Horodecki test: partial transpose positive semidefinite up to
    ``PPT_TOL``.  For two qubits this decides separability exactly.  ``rho``
    must be a 4x4 density matrix; ``PPT_TOL`` bounds its smallest transposed
    eigenvalue as the default ``SamplerConfig.tolerance`` does."""
    return bool(_ppt_decide(rho[None], PPT_TOL)[0][0])


def _blocked_map(fn, count: int, seed: int, threads: int, first_stream: int = 0) -> np.ndarray:
    """Run ``fn(rng, size)`` over fixed-size blocks, block i on the stream
    (seed, first_stream + i), and concatenate the outputs.

    Block boundaries and stream keys depend only on (seed, count), so the
    concatenated output is identical for any thread count.  ``count`` must be
    at least 1, as in ``SamplerConfig``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    blocks = [(i, min(_BLOCK, count - i * _BLOCK)) for i in range((count + _BLOCK - 1) // _BLOCK)]

    def run(block):
        idx, size = block
        return fn(stream_rng(seed, first_stream + idx), size)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(b) for b in blocks]
    return np.concatenate(parts)


class SepEstimate(NamedTuple):
    n: int
    ppt_count: int
    fraction: float
    stderr: float
    indeterminate: int


def estimate_sep_prob(config: SamplerConfig, threads: int = 1) -> SepEstimate:
    """Monte Carlo separability fraction over flat-measure two-qubit states.

    Counts states whose partial transpose has smallest eigenvalue
    lambda_min >= -tolerance; states with |lambda_min| < tolerance are
    also reported as indeterminate.  Deterministic given the seed.

    Each block reads its stream through ``_ginibre_chunks``: the real plane
    of its Ginibre draw whole, then the imaginary plane one chunk of
    ``_CHUNK`` samples at a time, each chunk in a (16, chunk) column layout
    (one row per matrix entry), so that the unnormalised G G^dag and the
    determinant below are a few dozen array passes that stay in cache, with
    no batched matmul and no whole-block complex array.  The
    decision reads the sign of det(rho^Gamma) (``_sign_decide``), and
    eigvalsh only where |det| < max(tolerance, 1e-12); the counts are those
    of ``ppt_min_eigs`` on the normalised states.
    """
    if config.count < 1000:
        raise ValueError("estimate_sep_prob needs at least 1000 samples")
    tol = config.tolerance

    def block_stats(rng, size):
        counts = np.zeros((1, 2), dtype=np.int64)
        for _, gt in _ginibre_chunks(rng, size):
            ppt, band = _ppt_decide_flat(_gram_flat(gt), tol)
            counts += [np.count_nonzero(ppt), np.count_nonzero(band)]
        return counts

    counts = _blocked_map(block_stats, config.count, config.seed, threads)
    ppt = int(counts[:, 0].sum())
    band = int(counts[:, 1].sum())
    frac = ppt / config.count
    stderr = float(np.sqrt(frac * (1.0 - frac) / config.count))
    return SepEstimate(config.count, ppt, frac, stderr, band)


def _two_qubit_spectrum(spectrum: Sequence[float]) -> np.ndarray:
    lam = np.asarray([float(x) for x in spectrum])
    if lam.shape != (4,):
        raise ValueError("a fixed-spectrum orbit needs a two-qubit spectrum of 4 entries")
    return lam


def _orbit_chunks(rng: np.random.Generator, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The one orbit draw: the first three columns u_1..u_3 of ``size`` Haar
    unitaries, as (start, u) per chunk of m <= ``_CHUNK`` samples, u of shape
    (3, 4, m) (column, row, sample).  A chunk reads ``rng`` as
    standard_normal((2, 3, 4, m)), real then imaginary plane, unscaled: the
    Gram-Schmidt columns of a complex Gaussian are Haar (Mezzadri, Notices
    AMS 54, 592, 2007), and a two-qubit orbit needs only three of them."""
    for s in range(0, size, _CHUNK):
        u = np.empty((3, 4, min(_CHUNK, size - s)), dtype=complex)
        u.real, u.imag = rng.standard_normal((2, *u.shape))
        yield s, _cgs2(u)


def sample_fixed_spectrum(spectrum: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """One state with the given spectrum, uniformly over the unitary orbit."""
    return _fixed_spectrum_block(_two_qubit_spectrum(spectrum), rng, 1)[0]


def _fixed_spectrum_block(lam: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` orbit states sum_{m<4} (lam_m - lam_4) |u_m><u_m| + lam_4 I
    from the ``_orbit_chunks`` draw that ``fixed_spectrum_gaps`` reads."""
    rho = np.empty((size, 4, 4), dtype=complex)
    for s, u in _orbit_chunks(rng, size):
        rho[s : s + _CHUNK] = np.einsum("mib,m,mjb->bij", u, lam[:3] - lam[3], u.conj())
    rho[:, range(4), range(4)] += lam[3]
    return rho


def fixed_spectrum_gaps(spectrum: Sequence[float], count: int, seed: int, threads: int = 1) -> np.ndarray:
    """Marginal gaps of ``count`` fixed-spectrum orbit samples.

    Never builds rho.  sum_m u_m u_m^dag = I and Tr_2 I = 2 I, so the first
    reduced state is 2 lambda_4 I + sum_{m<4} (lambda_m - lambda_4) Tr_2
    |u_m><u_m|, and the gap, which ignores the multiple of I, reads only the
    ``_orbit_chunks`` columns u_1..u_3.
    """
    lam = _two_qubit_spectrum(spectrum)
    w = lam[:3] - lam[3]

    def block(rng, size):
        out = np.empty(size)
        for s, u in _orbit_chunks(rng, size):
            p = u.real**2 + u.imag**2
            # Tr_2 |u><u| = [[|u0|^2 + |u1|^2, u0 u2* + u1 u3*], [., |u2|^2 + |u3|^2]].
            # Summed column by column, not as w @ (...): BLAS would start
            # its own threads inside each worker.
            half_diff = 0.5 * sum(wk * (pk[0] + pk[1] - pk[2] - pk[3]) for wk, pk in zip(w, p))
            off = sum(wk * (uk[0] * uk[2].conj() + uk[1] * uk[3].conj()) for wk, uk in zip(w, u))
            out[s : s + _CHUNK] = 2.0 * np.sqrt(half_diff**2 + np.abs(off) ** 2)
            del u  # else this chunk stays alive while the next one is drawn
        return out

    return _blocked_map(block, count, seed, threads)


# ---------------------------------------------------------------------------
# Hit-and-run on a fixed-marginal slice; nothing in the package samples with
# it.  It stays only because perfbench/replay.py conditioned() reads it, and
# meanwhile one test also uses it as a second law check of the slice sampler.

def _conditioned_basis() -> np.ndarray:
    """Orthonormal (HS) basis of the 12 traceless directions that leave the
    first marginal untouched."""
    mats = [np.kron(_I2, s) / 2.0 for s in _PAULIS]
    mats += [np.kron(s1, s2) / 2.0 for s1 in _PAULIS for s2 in _PAULIS]
    return np.array(mats)


_BASIS12 = _conditioned_basis()


class _ChainDriver:
    """Vectorized hit-and-run over independent chains, one stream per chain."""

    MAX_REDRAWS = 100
    _EPS = 1e-13

    def __init__(self, a: float, seed: int, chains: int):
        if not 0.0 <= a < 1.0:
            raise ValueError("Bloch radius must lie in [0, 1)")
        # Start at the center of the slice, (fixed marginal) x (maximally mixed).
        self.states = np.repeat(np.kron((_I2 + a * _SZ) / 2.0, _I2 / 2.0)[None], chains, axis=0)
        self.rngs = [stream_rng(seed, c) for c in range(chains)]
        self.chains = chains

    def _directions(self, mask: np.ndarray) -> np.ndarray:
        coef = np.empty((int(mask.sum()), 12))
        for row, c in enumerate(np.flatnonzero(mask)):
            coef[row] = self.rngs[c].standard_normal(12)
        coef /= np.linalg.norm(coef, axis=1, keepdims=True)
        return np.einsum("ck,kij->cij", coef, _BASIS12)

    def step(self) -> None:
        k = self.chains
        w, v = np.linalg.eigh(self.states)
        w = np.clip(w, 1e-14, None)
        inv_sqrt = np.einsum("cij,cj,ckj->cik", v, 1.0 / np.sqrt(w), v.conj())

        d = np.empty_like(self.states)
        lo = np.empty(k)
        hi = np.empty(k)
        pending = np.ones(k, dtype=bool)
        for attempt in range(self.MAX_REDRAWS + 1):
            if not pending.any():
                break
            if attempt == self.MAX_REDRAWS:
                raise RuntimeError("chord solve kept failing; state stuck on the boundary")
            d[pending] = self._directions(pending)
            m = inv_sqrt[pending] @ d[pending] @ inv_sqrt[pending]
            mu = np.linalg.eigvalsh(m)
            mu_min, mu_max = mu[:, 0], mu[:, -1]
            ok = (mu_max > self._EPS) & (mu_min < -self._EPS)
            idx = np.flatnonzero(pending)
            good = idx[ok]
            lo[good] = -1.0 / mu_max[ok]
            hi[good] = -1.0 / mu_min[ok]
            pending[good] = False

        t = np.empty(k)
        for c in range(k):
            t[c] = lo[c] + self.rngs[c].uniform() * (hi[c] - lo[c])
        self.states = self.states + t[:, None, None] * d
        self.states = 0.5 * (self.states + self.states.conj().transpose(0, 2, 1))


def conditioned_samples(a: float, config: SamplerConfig, chains: int = 64) -> np.ndarray:
    """Hit-and-run sample batch, merged round-robin across parallel chains;
    uniform over the slice at Bloch radius ``a`` in the flat metric, after
    ``config.burn_in`` steps and every ``config.thinning`` steps after them.

    Each chain has its own stream, so the output depends only on
    (seed, count, burn_in, thinning, chains).
    """
    chains = min(chains, config.count)
    driver = _ChainDriver(a, config.seed, chains)
    for _ in range(config.burn_in):
        driver.step()
    rounds = -(-config.count // chains)
    out = np.empty((rounds * chains, 4, 4), dtype=complex)
    for r in range(rounds):
        for _ in range(config.thinning):
            driver.step()
        out[r * chains : (r + 1) * chains] = driver.states
    return out[: config.count]


class ConditionedStats(NamedTuple):
    fraction: float
    stderr: float
    agreement_halfbound: float
    band_count: int
    indeterminate: int


# Slice draws take the streams (seed, _SLICE_STREAMS + block), out of every
# other sampler's reach, so they never reuse a flat-measure or orbit draw.
_SLICE_STREAMS = 1 << 32
_HALF_BAND = 1e-9  # |lambda_max - 1/2| below this is a tie (band_count)
# Below this |det(I/2 - rho)| the half-bound verdict is left to eigvalsh: a
# tie has |det| < _HALF_BAND / 8, far below it.
_HALF_DET_FLOOR = 1e-7


def _slice_filter(a: float, gt: np.ndarray) -> np.ndarray:
    """Map, in place, a ``_ginibre_chunks`` chunk ``gt`` of Ginibre draws G
    in (16, m) layout (the block's real plane read whole, its imaginary
    plane chunk by chunk) to G' = (M x I) G, whose ``_gram_flat`` is a
    flat-measure draw (trace one) on the slice of first marginal
    sigma = diag((1 + a)/2, (1 - a)/2), with M = sigma^(1/2) W_A^(-1/2) and
    W_A = [[p, q], [q*, s]] the first marginal of G G^dag.  M is fixed on
    each fiber of fixed W_A and maps it linearly onto the slice, so the
    draws are exact (Lovas & Andai, J. Phys. A 50, 295303, 2017); it keeps
    every PPT verdict.  Each sample is filtered on its own, so chunks of any
    size give the same states.  For 2x2 positive X, sqrt X =
    (X + d I) / sqrt(tr X + 2d) with d = sqrt(det X), inverted by
    adjugate / d."""
    top, bot = gt[:8], gt[8:]  # rows of G with first-qubit index 0 and 1
    p = np.einsum("kb,kb->b", top.real, top.real) + np.einsum("kb,kb->b", top.imag, top.imag)
    s = np.einsum("kb,kb->b", bot.real, bot.real) + np.einsum("kb,kb->b", bot.imag, bot.imag)
    q = np.einsum("kb,kb->b", top, bot.conj())
    d = np.sqrt(p * s - (q.real**2 + q.imag**2))
    scale = 1.0 / (d * np.sqrt(p + s + 2.0 * d))
    u, v = math.sqrt((1.0 + a) / 2.0) * scale, math.sqrt((1.0 - a) / 2.0) * scale
    new_top = (u * (s + d)) * top - (u * q) * bot
    bot *= v * (p + d)
    bot -= (v * q.conj()) * top
    top[...] = new_top
    return gt


def _half_bounded(wt: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max <= 1/2 + tol, |lambda_max - 1/2| < ``_HALF_BAND``) for a
    chunk of trace-one states in (16, m) layout, lambda_max the largest
    eigenvalue of each, decided by ``_sign_decide`` on det(I/2 - rho).  The
    det is taken of rho - I/2, which for 4x4 blocks equals det(I/2 - rho),
    so only the four diagonal rows are copied."""

    def exact(near):
        lam_max = np.linalg.eigvalsh(wt[:, near].T.reshape(-1, 4, 4))[:, -1]
        return lam_max <= 0.5 + tol, np.abs(lam_max - 0.5) < _HALF_BAND

    det = _det4([wt[k] - 0.5 if k % 5 == 0 else wt[k] for k in range(16)])
    return _sign_decide(det, max(tol, _HALF_DET_FLOOR), exact)


def conditioned_ppt_stats(a: float, config: SamplerConfig, threads: int = 1) -> ConditionedStats:
    """Separability fraction of ``config.count`` iid flat-measure draws on
    the slice at Bloch radius ``a`` in [0, 1), its binomial stderr, and the
    agreement of the transpose test with lambda_max <= 1/2 + tolerance
    outside the ``_HALF_BAND`` ties (band_count).  The filter keeps every
    PPT verdict, so one seed gives the same PPT count at every radius by
    construction.

    Each block reads its stream through ``_ginibre_chunks``, as
    ``estimate_sep_prob`` does (the real plane whole, then the imaginary
    plane chunk by chunk), and each chunk goes through ``_slice_filter``,
    ``_gram_flat`` and both verdicts, the PPT test and lambda_max <= 1/2,
    each read from the sign of a determinant (``_sign_decide``); the counts
    are summed chunk by chunk.  The blocks run on ``threads`` threads and the
    counts are the same at any thread count."""
    if not 0.0 <= a < 1.0:
        raise ValueError("Bloch radius must lie in [0, 1)")
    tol = config.tolerance

    def chunk_counts(gt):
        wt = _gram_flat(_slice_filter(a, gt))
        ppt, indeterminate = _ppt_decide_flat(wt, tol)
        bounded, in_band = _half_bounded(wt, tol)
        agree = (ppt == bounded) & ~in_band
        return [np.count_nonzero(m) for m in (ppt, indeterminate, in_band, agree)]

    def block_stats(rng, size):
        return np.sum([chunk_counts(gt) for _, gt in _ginibre_chunks(rng, size)], axis=0, keepdims=True)

    counts = _blocked_map(block_stats, config.count, config.seed, threads, _SLICE_STREAMS).sum(axis=0)
    ppt, indeterminate, in_band, agree = (int(c) for c in counts)
    frac, outside = ppt / config.count, config.count - in_band
    stderr = math.sqrt(frac * (1.0 - frac) / config.count)
    return ConditionedStats(frac, stderr, agree / outside if outside else 1.0, in_band, indeterminate)
