"""Traced replays of each workload's operation through the package's public
functions, one span per layer call.

Each replay makes the calls the CLI verb makes, in the same order and with
the same arguments, so that the layer spans cover the operation's work.  A
span marked ``extra`` is a decomposition the CLI path does not perform (for
example ``hs_random_states`` followed by ``ppt_min_eigs``, which
``estimate_sep_prob`` fuses); it is reported as a layer time and counted as
tracing overhead.  A metric whose public function is gone is returned in
``absent`` instead of failing the run.

Every replay returns ``(counts, failures, absent)``.
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import numpy as np

import outputs
from sepprob import dh_density as dh
from sepprob import exactmath as em
from sepprob import sampling as sp
from sepprob import sep_integral as si
from sepprob.volumes import Spectrum

SPECTRUM = "0.45,0.27,0.18,0.10"
SLICES = (("a0", 0.0), ("a0_2", 0.2), ("a0_4", 0.4))

def _simplex_bounds():
    """t1 in [0, 1-t2-t3], t2 in [0, 1-t3], t3 in [0, 1], innermost first,
    built here rather than taken from ``sep_integral``."""
    one = em.MultiPoly.constant(4, 1)
    zero = em.MultiPoly(4)
    t2, t3 = em.MultiPoly.variable(4, si.T2), em.MultiPoly.variable(4, si.T3)
    return [(si.T1, zero, one - t2 - t3), (si.T2, zero, one - t3), (si.T3, zero, one)]


def exact(tr, params) -> tuple[dict, list, list]:
    """Replay of ``integrate --emit prob`` on cold caches."""
    counts: dict = {}
    entries = [
        (k, name, branch) for k, parts in si.REGION_DECOMPOSITION.items() for name, _, branch in parts
    ]
    with tr.span("exactmath.mul_s", extra=True):
        integrands = [si.vandermonde_gap_poly() * si.gap_integrand(k, branch) for k, _, branch in entries]
    with tr.span("exactmath.construct_s", extra=True):
        rewrapped = [em.MultiPoly(4, p.terms) for p in integrands]
    counts["exactmath.integrand_terms"] = sum(len(p.terms) for p in rewrapped)

    results = []
    for (k, name, _), integrand in zip(entries, integrands):
        with tr.span(f"sep_integral.region_s.{k}.{name}", extra=True):
            results.append(si.region_integral(name, integrand))
    counts["exactmath.result_terms"] = sum(len(p.terms) for p in results)

    # The simplex integral, stepped by hand: antiderivative, then the two
    # bound substitutions that integrate_once performs.
    failures = []
    for (k, name, _), integrand, want in zip(entries, integrands, results):
        if name != "Delta3":
            continue
        p = integrand
        for var, lower, upper in _simplex_bounds():
            with tr.span("exactmath.antiderivative_s", extra=True):
                anti = p.antiderivative(var)
            with tr.span("exactmath.substitute_s", extra=True):
                p = anti.substitute(var, upper) - anti.substitute(var, lower)
        if em.extract_univariate(p, si.X) != want:
            failures.append(f"stepped simplex integral differs from region_integral for k={k}")

    with tr.span("sep_integral.partials_s"):
        for k in si.REGION_DECOMPOSITION:
            si.gap_piece_partials(k)
    # Assembly alone: drop the cached sums built on top of the partials.
    for name in ("gap_piece_sum", "separable_slice_poly"):
        clear = getattr(getattr(si, name, None), "cache_clear", None)
        if clear is not None:
            clear()
    with tr.span("sep_integral.assemble_s"):
        prob = si.separability_probability()
    if prob != Fraction(8, 33):
        failures.append(f"separability_probability() = {prob}")
    return counts, failures, []


def global_sep(tr, params) -> tuple[dict, list, list]:
    """Replay of ``sample sep`` at 1 thread and at nproc threads."""
    seed, n, nproc = params["seed"], params["n"], params["nproc"]
    tol = sp.PPT_TOL
    # The whole batch at once: 2^18 states peak near 200 MB.
    with tr.span("sampling.states_s", extra=True):
        states = sp.hs_random_states(4, n, seed)
    with tr.span("sampling.ppt_min_eigs_s", extra=True):
        mins = sp.ppt_min_eigs(states)
    with tr.span("sampling.decide_s", extra=True):
        decided = int(np.sum(mins >= -tol)), int(np.sum(np.abs(mins) < tol))
    del states, mins

    with tr.span("sampling.estimate_s"):
        est1 = sp.estimate_sep_prob(sp.SamplerConfig(seed=seed, count=n), threads=1)
    with tr.span("sampling.estimate_s_mt"):
        estm = sp.estimate_sep_prob(sp.SamplerConfig(seed=seed, count=n), threads=nproc)
    counts = {"sampling.ppt_count": est1.ppt_count, "sampling.indeterminate": est1.indeterminate}
    absent = []
    block = getattr(sp, "_BLOCK", None)
    if block is None:
        absent.append("sampling.blocks")
    else:
        counts["sampling.blocks"] = math.ceil(n / block)
    counts["sampling.state_bytes"] = n * 16 * np.dtype(complex).itemsize

    rep = lambda e: {"results": e._asdict()}  # noqa: E731
    failures = outputs.check_sep(rep(est1), rep(estm))
    if decided != (est1.ppt_count, est1.indeterminate):
        failures.append(f"decomposed counts {decided} != estimator's {est1.ppt_count, est1.indeterminate}")
    return counts, failures, absent


def conditioned(tr, params) -> tuple[dict, list, list]:
    """Replay of ``sample conditioned`` on the three slices, then a separate
    walk / decide decomposition at a = 0 while the walk exists."""
    seed, n = params["seed"], params["n"]
    failures = []
    counts = {"sampling.cond_band_count": 0, "sampling.cond_indeterminate": 0}
    for label, a in SLICES:
        with tr.span(f"sampling.cond_stats_s.{label}"):
            stats = sp.conditioned_ppt_stats(a, sp.SamplerConfig(seed=seed, count=n))
        counts["sampling.cond_band_count"] += stats.band_count
        counts["sampling.cond_indeterminate"] += stats.indeterminate
        if a == 0.0:
            counts["sampling.halfbound_agreement_a0"] = stats.agreement_halfbound
        failures += outputs.check_conditioned({"results": {**stats._asdict(), "n": n}}, a)

    walk = getattr(sp, "conditioned_samples", None)
    if walk is None:
        return counts, failures, ["sampling.walk_s", "sampling.walk_step_ms", "sampling.cond_decide_s"]
    config = sp.SamplerConfig(seed=seed, count=params["walk_n"])
    with tr.span("sampling.walk_s", extra=True):
        states = walk(0.0, config)
    with tr.span("sampling.cond_decide_s", extra=True):
        mins = sp.ppt_min_eigs(states)
        lam_max = np.linalg.eigvalsh(states)[:, -1]
        _ = int(np.sum(mins >= -config.tolerance)), int(np.sum(lam_max <= 0.5 + config.tolerance))
    # Steps the walk took, from the defaults it ran with (read, never set).
    burn = getattr(config, "burn_in", None)
    thin = getattr(config, "thinning", None)
    chains = inspect.signature(walk).parameters.get("chains")
    if burn is None or thin is None or chains is None:
        return counts, failures, ["sampling.walk_step_ms"]
    counts["sampling.walk_steps"] = burn + thin * -(-config.count // chains.default)
    return counts, failures, []


def marginal_law(tr, params) -> tuple[dict, list, list]:
    """Replay of ``marginal --spectrum ... --samples n --bins 50``."""
    seed, n, bins = params["seed"], params["n"], params["bins"]
    spectrum = Spectrum([em.rational_from_str(p) for p in SPECTRUM.split(",")])
    centered = spectrum.centered()
    with tr.span("dh_density.gap_density_s"):
        support = dh.marginal_support(centered)
        density = dh.marginal_gap_density(centered)
        mass = density.integral()
    edges = [Fraction(i) * support.b3 / bins for i in range(bins + 1)]
    floats = [float(x + Fraction(1, 4)) for x in centered.entries]
    with tr.span("sampling.fixed_spectrum_gaps_s"):
        gaps = sp.fixed_spectrum_gaps(floats, n, seed, threads=1)
    with tr.span("sampling.histogram_s"):
        hist, _ = np.histogram(gaps, bins=np.array([float(e) for e in edges]))
    with tr.span("dh_density.bin_masses_s"):
        masses = [density.integral_between(edges[i], edges[i + 1]) / mass for i in range(bins)]
    width = float(support.b3) / bins
    sup = max(abs(int(c) / (n * width) - float(m) / width) for c, m in zip(hist, masses))
    rows = [
        {"bin_lo": repr(float(edges[i])), "bin_hi": repr(float(edges[i + 1])), "count": int(hist[i]),
         "analytic_mass": em.rational_str(masses[i])}
        for i in range(bins)
    ]
    rep = {"results": {"samples": n, "bins": bins, "histogram": rows, "sup_norm": repr(sup)}}
    return {"dh_density.bins": bins}, outputs.check_marginal(rep), []


REPLAYS = {"exact": exact, "global_sep": global_sep, "conditioned": conditioned, "marginal_law": marginal_law}
