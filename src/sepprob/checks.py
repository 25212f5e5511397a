"""Self-check suite behind ``verify all``.

Each check returns (passed, detail); ``run_all`` runs them at verify all's
seeds, counts and bounds, names each from its one table, and turns a check
that raises into a failing entry.  Acceptance criteria 4, 6, 8, 9 and 10 call the same functions here
at their frozen seeds and counts, with their own bounds; criterion 7 calls
``sampling.estimate_sep_prob`` as ``check_monte_carlo_global`` does.  The
default scales keep the suite under a minute; ``deep=True`` reruns the
stochastic checks at full acceptance scale.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from . import dh_density as dh
from . import sampling as sp
from . import sep_integral as si
from . import volumes as vol
from .exactmath import MultiPoly, integrate_once
from .volumes import CenteredSpectrum

Check = tuple[bool, str]

# Fixed sizes and bounds of the checks below.
_ROUTE_POINTS = 100  # fiber-oracle points per chamber, "density routes"
_NONNEG_GRID = 100  # grid steps per axis, "density nonnegativity"
_MASS_TRIALS = 10  # random spectra, "marginal density mass"
_ORACLE_GRID = 50  # interior points per spectrum, "marginal oracle"
_GAP_COUNT = 20_000  # orbit samples, "fixed-spectrum gaps"
_GRAM_TOL = 1e-12  # relative error of the Gram and the slice filter, "sampling core"
_MOMENT_Z = 4.5  # |z| bound of each sampled mean, "flat-measure moments"


def _random_poly(rng: random.Random, arity: int, degree: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, degree) for _ in range(arity))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(arity, terms)


def check_ring_axioms(seed: int) -> Check:
    rng = random.Random(seed)
    for _ in range(60):
        a, b, c = (_random_poly(rng, 2, 3) for _ in range(3))
        if (a + b) * c != a * c + b * c:
            return False, "distributivity violated"
        if a * b != b * a:
            return False, "commutativity violated"
    return True, "60 random triples"


def check_fundamental_theorem(seed: int) -> Check:
    rng = random.Random(seed)
    for _ in range(100):
        p = _random_poly(rng, 2, 6)
        v = rng.randint(0, 1)
        if p.antiderivative(v).derivative(v) != p:
            return False, "mismatch"
    return True, "100 random polynomials, degree <= 6"


def check_integral_linearity(seed: int) -> Check:
    rng = random.Random(seed)
    for _ in range(40):
        p, q = _random_poly(rng, 2, 4), _random_poly(rng, 2, 4)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        lhs = integrate_once(p * alpha + q * beta, 0, 0, 1)
        rhs = integrate_once(p, 0, 0, 1) * alpha + integrate_once(q, 0, 0, 1) * beta
        if lhs != rhs:
            return False, "mismatch"
    return True, "40 random combinations"


def check_volume_identities(seed: int) -> Check:
    for n in range(1, 9):
        b = n * (n - 1) // 2
        if vol.flag_volume_hs(n) != vol.flag_volume_euclid(n) * (2**b):
            return False, f"flag scaling fails at N={n}"
    for n in (2, 3, 4):
        lhs = vol.state_space_volume_hs(n)
        rhs = vol.flag_volume_hs(n) * vol.simplex_vandermonde_integral(n) * vol.SymbolicReal(1, 0, n)
        if lhs != rhs:
            return False, f"state-space identity fails at N={n}"
    rng = random.Random(seed)
    for _ in range(50):
        centered = random_simple_centered(rng)
        if not vol.hs_symplectic_relation_holds(centered):
            return False, f"orbit relation fails at {centered}"
    return True, "flag scaling, state space, 50 random orbits"


def density_identity_failure() -> str | None:
    """None when the wall-crossing route equals the closed form and the closed
    form is continuous across every wall; otherwise the identity that fails."""
    closed = dh.convolution_density_closed()
    if dh.convolution_density_jump() != closed:
        return "wall-crossing route disagrees with closed form"
    r, zero = MultiPoly.variable(2, 0), MultiPoly(2)
    c1, c2, c3 = (closed.piece(label) for label in ("C1", "C2", "C3"))
    walls = [c1.substitute(1, zero) - c2.substitute(1, zero), c2.substitute(1, r) - c3.substitute(1, r),
             c1.substitute(1, -r), c3.substitute(0, zero)]
    if any(not w.is_zero for w in walls):
        return "wall continuity identity broken"
    return None


def density_oracle_points(seed: int, points_per_chamber: int) -> Iterator[tuple[tuple, float, float]]:
    """Yield (point, closed form, fiber-polytope oracle) at ``chamber_point``
    draws, ``points_per_chamber`` per chamber in ``dh.CHAMBER_LABELS`` order."""
    closed = dh.convolution_density_closed()
    rng = random.Random(seed)
    for label in dh.CHAMBER_LABELS:
        for _ in range(points_per_chamber):
            pt = chamber_point(rng, label)
            yield pt, float(closed.evaluate(*pt)), dh.fiber_polytope_density(pt)


def check_density_routes(seed: int) -> Check:
    broken = density_identity_failure()
    if broken:
        return False, broken
    worst = max(abs(c - o) for _, c, o in density_oracle_points(seed, _ROUTE_POINTS))
    if worst > 1e-9:
        return False, f"fiber oracle off by {worst:.2e}"
    return True, f"jump==closed, walls exact, oracle max err {worst:.1e}"


def chamber_point(rng: random.Random, label: str) -> tuple[Fraction, Fraction]:
    """A random rational point (r, s) with denominator 997 inside chamber
    ``label`` (C0..C3); the one generator behind every density-oracle check."""
    den = 997
    rr = Fraction(-rng.randint(1, 5 * den), den)
    if label == "C1":
        ss = Fraction(rng.randint(0, -rr.numerator), den)
    elif label == "C2":
        ss = Fraction(rng.randint(rr.numerator, 0), den)
    elif label == "C3":
        ss = rr - Fraction(rng.randint(0, 3 * den), den)
    else:
        rr = Fraction(rng.randint(1, 3 * den), den)
        ss = Fraction(rng.randint(-5 * den, 5 * den), den)
    return rr, ss


def check_density_nonnegative() -> Check:
    closed = dh.convolution_density_closed()
    n = _NONNEG_GRID
    for i in range(n):
        for j in range(n):
            r = -5.0 * (i + 1) / n
            theta = j / (n - 1)
            for s_val in ((-r) * theta, r * theta, r - 5.0 * theta):
                if closed.evaluate_float(r, s_val) < -1e-12:
                    return False, f"negative at {(r, s_val)}"
    return True, f"{3 * n * n} grid points across chambers"


# The spectrum (0.45, 0.27, 0.18, 0.10), centred; gap support [0, 11/25].
SPEC_45 = CenteredSpectrum([Fraction(1, 5), Fraction(1, 50), Fraction(-7, 100), Fraction(-3, 20)])


def random_simple_centered(rng: random.Random) -> CenteredSpectrum:
    """A random centred spectrum with four distinct rational eigenvalues."""
    while True:
        raw = sorted({Fraction(rng.randint(1, 200), 401) for _ in range(4)}, reverse=True)
        if len(raw) == 4:
            total = sum(raw)
            return CenteredSpectrum([x / total - Fraction(1, 4) for x in raw])


def check_marginal_mass(seed: int) -> Check:
    """The exact integral of the gap density over its support equals the
    spectrum Vandermonde divided by 12, which ties the density normalization
    to the symplectic orbit volume."""
    rng = random.Random(seed)
    for _ in range(_MASS_TRIALS):
        c = random_simple_centered(rng)
        if dh.marginal_gap_density(c).integral() != vol.vandermonde(c.entries) / 12:
            return False, f"mass identity fails for {c.entries}"
    return True, f"{_MASS_TRIALS} random simple spectra, exact"


def check_marginal_oracle() -> Check:
    """Max |oracle - closed| over the grid must be at most 1e-6, and at most
    1e-9 times each spectrum's peak closed density on the grid.  The relative
    bound is the one that can fail: SPEC_45 / 2 peaks at 2.7e-7, below 1e-6."""
    spectra = [
        SPEC_45,
        SPEC_45.scaled(Fraction(1, 2)),
        CenteredSpectrum([Fraction(9, 40), Fraction(1, 40), Fraction(-2, 40), Fraction(-8, 40)]),
    ]
    worst = worst_rel = 0.0
    for c in spectra:
        density = dh.marginal_gap_density(c)
        b3 = float(dh.marginal_support(c).b3)
        xs = [b3 * i / (_ORACLE_GRID + 1) for i in range(1, _ORACLE_GRID + 1)]
        closed = [density.evaluate_float(x) for x in xs]
        err = max(abs(dh.marginal_gap_density_numeric(c, x) - d) for x, d in zip(xs, closed))
        worst, worst_rel = max(worst, err), max(worst_rel, err / max(closed))
    detail = f"3 spectra x {_ORACLE_GRID} points, max err {worst:.1e}, max err / peak {worst_rel:.1e}"
    return worst <= 1e-6 and worst_rel <= 1e-9, detail


def check_scaling_covariance(seed: int) -> Check:
    rng = random.Random(seed)
    for _ in range(10):
        c = random_simple_centered(rng)
        tau = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        base = dh.marginal_support(c)
        scaled = dh.marginal_support(c.scaled(tau))
        if tuple(scaled) != tuple(tau * b for b in base):
            return False, "breakpoints do not scale linearly"
        if dh.marginal_gap_density(c.scaled(tau)).breakpoints[-1] != tau * base.b3:
            return False, "support does not scale"
    return True, "10 random spectra and scale factors"


def check_regions() -> Check:
    """Every region's bounds are ordered at three spot values of x, which
    also makes every region's volume (the integral of 1) nonnegative."""
    for x in (Fraction(1, 100), Fraction(1, 6), Fraction(33, 100)):
        for name in si.REGION_NAMES:
            if not si.region_bounds_ordered(name, x):
                return False, f"{name} bounds disordered at x={x}"
    return True, f"{len(si.REGION_NAMES)} regions, bounds ordered at 3 spot values"


def check_exact_pipeline() -> Check:
    if not si.centered_vandermonde_in_gaps_matches():
        return False, "gap-coordinate Vandermonde mismatch"
    partials = si.gap_piece_partials(1)
    if partials["R1a"] != partials["R1b"]:
        return False, "the two halves of the first partial differ"
    if not si.radial_volume_identity_holds():
        return False, "radial volume identity fails"
    prob = si.separability_probability()
    if prob != Fraction(8, 33):
        return False, f"probability is {prob}, not 8/33"
    return True, "Vandermonde, halves, radial identity, 8/33"


def flat_factor_mismatch(a: float, d: np.ndarray, z: np.ndarray) -> str | None:
    """None when ``_gram_tri`` of the Bartlett planes (d, z) and of their
    ``_slice_filter`` image at radius a equal the matmuls L L^dag of the
    dense factors, the filtered factor (lower triangular, positive diagonal)
    equals (M x I) L for M = sigma^(1/2) C^(-1), C numpy's Cholesky factor
    of Tr_B(L L^dag), sigma = diag((1 + a)/2, (1 - a)/2), all to ``_GRAM_TOL``
    per sample relative to its largest entry, and the filtered Gram's first
    marginal is sigma within 1e-12; otherwise what fails."""
    def dense(d, z):  # d on the diagonal, z[0] + i z[1] below it, row by row
        g = np.zeros((d.shape[1], 4, 4), dtype=complex)
        g[:, range(4), range(4)] = d.T
        g[:, [1, 2, 2, 3, 3, 3], [0, 0, 1, 0, 1, 2]] = (z[0] + 1j * z[1]).T
        return g

    fd, fz = sp._slice_filter(a, d.copy(), z.copy())
    g, fg = dense(d, z), dense(fd, fz)
    w, fw = (f @ f.conj().transpose(0, 2, 1) for f in (g, fg))
    root = np.diag(np.sqrt([(1 + a) / 2, (1 - a) / 2]))
    w_a = np.einsum("bijkj->bik", w.reshape(-1, 2, 2, 2, 2))
    want = np.kron(root @ np.linalg.inv(np.linalg.cholesky(w_a)), np.eye(2)) @ g
    tri, ftri = (sp._gram_tri(*planes).T.reshape(-1, 4, 4) for planes in ((d, z), (fd, fz)))
    for name, got, ref in (("flat Gram", tri, w), ("slice filter", fg, want), ("filtered Gram", ftri, fw)):
        err = float(np.max(np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))))
        if err > _GRAM_TOL:
            return f"{name} off the dense matmul by relative error {err:.3e} over {len(g)} samples"
    off = np.max(np.abs(np.einsum("bijkj->bik", ftri.reshape(-1, 2, 2, 2, 2)) - root**2))
    if off > 1e-12 or not (fd > 0).all():
        return f"slice filter: diagonal min {fd.min():.3e}, first marginal off sigma by {off:.3e}"
    return None


def ppt_decision_mismatch(w: np.ndarray, tol: float = sp.PPT_TOL) -> str | None:
    """None when the determinant decision on the positive 4x4 blocks ``w``
    gives the PPT and indeterminate-band masks that eigvalsh of the
    normalised partial transposes gives; otherwise how they differ."""
    ppt, band = sp._ppt_decide(w, tol)
    mins = sp.ppt_min_eigs(w / np.einsum("bii->b", w).real[:, None, None])
    for name, got, want in (("PPT", ppt, mins >= -tol), ("band", band, np.abs(mins) < tol)):
        bad = np.flatnonzero(got != want)
        if bad.size:
            return f"{name} mask differs on {bad.size} of {len(w)} states (first at lambda_min {mins[bad[0]]:.3e})"
    return None


def check_sampling_core(seed: int) -> Check:
    rng = sp.stream_rng(seed)
    rho = sp.hs_random_state(rng)
    if not sp.is_valid_density_matrix(rho):
        return False, "flat-measure sample is not a density matrix"
    u = sp._cgs2(next(sp._orbit_chunks(rng, 1))[1])[..., 0]  # (column, row) of one orbit draw
    if u.shape != (3, 4) or np.max(np.abs(u.conj() @ u.T - np.eye(3))) > 1e-12:
        return False, "orbit columns fail U†U = I"
    if np.max(np.abs(sp.partial_transpose(sp.partial_transpose(rho)) - rho)) != 0.0:
        return False, "partial transpose is not an involution"
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    if abs(np.linalg.eigvalsh(sp.partial_transpose(bell))[0] + 0.5) > 1e-12:
        return False, "maximally entangled state misses min eigenvalue -1/2"
    if sp.is_ppt(bell):
        return False, "maximally entangled state passed the transpose test"
    # 2000 Bartlett factors, as drawn and slice-filtered at a = 1/2, and the
    # Werner state at p = 1/3 (lambda_min = 0), which takes the eigvalsh fallback.
    _, d, z = next(sp._wishart_chunks(sp.stream_rng(seed, 1), 2000))
    mismatch = flat_factor_mismatch(0.5, d, z)
    if mismatch:
        return False, mismatch
    w = np.concatenate([sp._gram_tri(d, z), sp._gram_tri(*sp._slice_filter(0.5, d, z))], axis=1)
    mismatch = ppt_decision_mismatch(np.concatenate([w.T.reshape(-1, 4, 4), (np.eye(4) / 2 + bell)[None] / 3]))
    if mismatch:
        return False, f"determinant decision disagrees with eigvalsh: {mismatch}"
    est1 = sp.estimate_sep_prob(sp.SamplerConfig(seed=seed, count=2000))
    est2 = sp.estimate_sep_prob(sp.SamplerConfig(seed=seed, count=2000), threads=4)
    if est1 != est2:
        return False, "estimator is not thread-deterministic"
    detail = "validity, orbit columns, transpose, entangled witness, slice filter, flat Gram, det decision, determinism"
    return True, detail


def _trace_cubes(states: np.ndarray) -> np.ndarray:
    return np.einsum("bij,bjk,bki->b", states, states, states).real


def check_flat_moments(seed: int, count: int) -> Check:
    """Statistic: z = (sample mean - exact mean) / sample stderr of six
    moments over ``count`` flat-measure states, the exact means by Wick
    contraction (``volumes.flat_moment``): tr rho^2, tr rho^3,
    tr (rho^Gamma)^3, det rho, det rho^Gamma, and the phase-sensitive
    Re rho_ij^2 summed over the six pairs i < j (E rho_ij^2 = 0, while
    E |rho_ij|^2 > 0).  Sigma model: iid draws, sample standard deviation.
    Bound |z| <= 4.5 on every moment: a false-alarm rate of at most
    6 P(|z| > 4.5) = 4.1e-5 (Bonferroni).  Power, measured at 2^15 states:
    Bartlett draws with the Gamma shapes reversed, without the 1/sqrt(2) of
    the normals, or with their imaginary parts scaled by 1.1 reach |z| = 140,
    215 and 31.  A 4x4 complex Gaussian G with its imaginary part scaled by
    1.1 moves only Re rho_ij^2, to z = +2.6 here and +8.3 at the deep run's
    2^18 states."""
    pt = vol.partial_transpose_entry
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    # (name, f as a polynomial in the entries of rho, f of a (batch, 4, 4) array)
    moments = (
        ("tr rho^2", vol.trace_power_poly(2), lambda r: np.einsum("bij,bij->b", r, r.conj()).real),
        ("tr rho^3", vol.trace_power_poly(3), _trace_cubes),
        ("tr (rho^G)^3", vol.trace_power_poly(3, pt), lambda r: _trace_cubes(sp._pt_block(r))),
        ("det rho", vol.det_poly(), lambda r: np.linalg.det(r).real),
        ("det rho^G", vol.det_poly(pt), lambda r: np.linalg.det(sp._pt_block(r)).real),
        ("Re rho_ij^2", {((i, j), (i, j)): 1 for i, j in pairs}, lambda r: sum(r[:, i, j] ** 2 for i, j in pairs).real),
    )

    def block(rng, size):  # the hs_random_states draw, one block at a time
        states = sp._hs_random_block(rng, size)
        return np.stack([sample(states) for _, _, sample in moments], axis=1)

    values = sp._blocked_map(block, count, seed, 1)
    zs = []
    for (name, poly, _), v in zip(moments, values.T):
        exact = float(vol.flat_moment(poly))
        zs.append((name, (v.mean() - exact) / (v.std(ddof=1) / math.sqrt(count))))
    alarm = len(zs) * math.erfc(_MOMENT_Z / 2**0.5)
    detail = (", ".join(f"{name} z={z:+.2f}" for name, z in zs)
              + f" (n={count}, bound |z| <= {_MOMENT_Z}, false alarm {alarm:.2g})")
    return all(abs(z) <= _MOMENT_Z for _, z in zs), detail


def check_fixed_spectrum(seed: int) -> Check:
    lam = [0.45, 0.27, 0.18, 0.10]
    b3 = float(dh.marginal_support(SPEC_45).b3)
    gaps = sp.fixed_spectrum_gaps(lam, _GAP_COUNT, seed)
    if gaps.max() > b3 + 1e-9 or gaps.min() < -1e-12:
        return False, f"gap outside [0, {b3}]"
    rho = sp.sample_fixed_spectrum(lam, sp.stream_rng(seed, 99))
    spec = np.sort(np.linalg.eigvalsh(rho))[::-1]
    if np.max(np.abs(spec - np.array(lam))) > 1e-10:
        return False, "orbit sample does not keep the spectrum"
    return True, f"{_GAP_COUNT} samples stay inside the support"


def check_monte_carlo_global(seed: int, count: int) -> Check:
    """Statistic: |fraction - 8/33| over ``count`` iid flat-measure states.
    Sigma model: binomial, ``stderr``.  Bound max(0.002, 5 sigma): a false-alarm
    rate of at most P(|z| > 5) = 5.7e-7."""
    est = sp.estimate_sep_prob(sp.SamplerConfig(seed=seed, count=count), threads=4)
    band = max(0.002, 5.0 * est.stderr)
    alarm = math.erfc(band / est.stderr / 2**0.5)
    detail = (f"{est.fraction:.5f} vs {8 / 33:.5f} (n={count}, ±{band:.4f} = {band / est.stderr:.1f} sigma, "
              f"false alarm {alarm:.2g})")
    return abs(est.fraction - 8 / 33) <= band, detail


SLICE_RADII = (0.0, 0.2, 0.4)


def conditioned_slices(seed: int, count: int) -> tuple[sp.ConditionedStats, ...]:
    """Slice-sampler statistics of ``count`` iid samples on each slice of
    ``SLICE_RADII``, the i-th at seed ``seed + i`` so that no two slices share
    a draw; the half-bound readers take the a = 0 slice."""
    return tuple(sp.conditioned_ppt_stats(a, sp.SamplerConfig(seed=seed + i, count=count))
                 for i, a in enumerate(SLICE_RADII))


def check_conditioned_constancy(slices: tuple[sp.ConditionedStats, ...]) -> Check:
    """Statistic: max |fraction - 8/33| over the slices.  Sigma model: each
    slice's binomial ``stderr`` (iid draws).  Bound 0.01, 3.3 sigma per slice at
    2e4 draws: a false-alarm rate of about 0.3 % over three slices (union bound)."""
    worst = max(abs(stats.fraction - 8.0 / 33.0) for stats in slices)
    alarm = sum(math.erfc(0.01 / stats.stderr / 2**0.5) for stats in slices)
    details = "; ".join(f"a={a}: {stats.fraction:.4f}" for a, stats in zip(SLICE_RADII, slices))
    detail = f"{details} (max dev {worst:.4f}, bound 0.01, false alarm {alarm:.2g})"
    return worst <= 0.01, detail


def check_halfbound_equivalence(stats: sp.ConditionedStats, count: int) -> Check:
    ok = stats.agreement_halfbound == 1.0 and stats.band_count < max(1, count // 1000)
    detail = f"agreement {stats.agreement_halfbound:.6f}, band {stats.band_count}/{count}"
    return ok, detail


class MarginalHistogram(NamedTuple):
    edges: list[Fraction]
    counts: np.ndarray
    masses: list[Fraction]
    width: float
    sup_norm: float
    sigma_peak: float


def marginal_histogram(
    centered: CenteredSpectrum, count: int, seed: int, bins: int = 50, threads: int = 1
) -> MarginalHistogram:
    """Histogram of ``count`` fixed-spectrum orbit gaps against the exact law.

    Returns the ``bins + 1`` exact edges of equal bins on [0, b3], the sample
    counts, each bin's analytic probability (exact, integrated across the
    density's kinks), the float bin width, the sup-norm between empirical and
    analytic bin densities, and the binomial sigma of the fullest bin as a
    density.  Callers pick their own bound on the sup-norm.
    """
    density = dh.marginal_gap_density(centered)
    mass = density.integral()
    b3 = dh.marginal_support(centered).b3
    edges = [Fraction(i) * b3 / bins for i in range(bins + 1)]
    spectrum = [float(x + Fraction(1, 4)) for x in centered.entries]
    gaps = sp.fixed_spectrum_gaps(spectrum, count, seed, threads=threads)
    counts, _ = np.histogram(gaps, bins=np.array([float(e) for e in edges]))
    cdf = density.cdf(edges)
    masses = [(hi - lo) / mass for lo, hi in zip(cdf, cdf[1:])]
    width = float(b3) / bins
    sup = 0.0
    sigma_peak = 0.0
    for c, m in zip(counts, masses):
        prob = float(m)
        sup = max(sup, abs(c / (count * width) - prob / width))
        sigma_peak = max(sigma_peak, np.sqrt(prob * (1.0 - prob) / count) / width)
    return MarginalHistogram(edges, counts, masses, width, float(sup), float(sigma_peak))


def check_marginal_law(seed: int, count: int) -> Check:
    """Statistic: sup-norm of empirical minus exact bin densities.  Sigma model:
    binomial per bin, at most the fullest bin's ``sigma_peak``.  Bound 3.5
    sigma_peak: a false-alarm rate of at most 50 P(|z| > 3.5) = 2.3 % (union
    bound).  A wrong density or normalization overshoots it tenfold."""
    hist = marginal_histogram(SPEC_45, count, seed)
    bins, bound = len(hist.masses), 3.5 * hist.sigma_peak
    detail = (f"sup-norm {hist.sup_norm:.4f} over {bins} bins (bound {bound:.4f} = 3.5 sigma_peak, n={count}, "
              f"false alarm {bins * math.erfc(3.5 / 2**0.5):.2g})")
    return hist.sup_norm < bound, detail


def run_all(seed: int = 42, deep: bool = False) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, passed, detail) for every check of ``verify all`` in report
    order.  Each check runs when it is reached, so a caller can time it.  A
    check that raises becomes a failing entry naming the exception, and the
    rest still run."""
    mc_n = 1_000_000 if deep else 50_000
    slice_n = 100_000 if deep else 20_000
    law_n = 1_000_000 if deep else 200_000
    moment_n = 1 << 18 if deep else 1 << 15
    slices = functools.cache(lambda: conditioned_slices(seed + 11, slice_n))
    steps = (
        ("poly distributivity", lambda: check_ring_axioms(seed)),
        ("derivative of antiderivative", lambda: check_fundamental_theorem(seed + 1)),
        ("integration linearity", lambda: check_integral_linearity(seed + 2)),
        ("volume identities", lambda: check_volume_identities(seed + 4)),
        ("density routes", lambda: check_density_routes(seed + 5)),
        ("density nonnegativity", check_density_nonnegative),
        ("marginal density mass", lambda: check_marginal_mass(seed + 6)),
        ("marginal oracle", check_marginal_oracle),
        ("scaling covariance", lambda: check_scaling_covariance(seed + 7)),
        ("integration regions", check_regions),
        ("exact pipeline", check_exact_pipeline),
        ("sampling core", lambda: check_sampling_core(seed + 8)),
        ("fixed-spectrum gaps", lambda: check_fixed_spectrum(seed + 9)),
        ("flat-measure moments", lambda: check_flat_moments(seed + 3, moment_n)),
        ("global separability fraction", lambda: check_monte_carlo_global(seed + 10, mc_n)),
        ("conditioned constancy", lambda: check_conditioned_constancy(slices())),
        ("transpose vs half-bound tests", lambda: check_halfbound_equivalence(slices()[0], slice_n)),
        ("fixed-spectrum marginal law", lambda: check_marginal_law(seed + 13, law_n)),
    )
    for name, step in steps:
        try:
            passed, detail = step()
        except Exception as exc:  # a broken check must not take the report down
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, passed, detail
