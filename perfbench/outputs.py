"""Checks on the JSON the sepprob CLI prints for each benchmark operation.

Every check takes the parsed payload(s) and returns a list of failure
messages; an empty list means the output is correct.  The expected values
are derived here independently of the package: integer polynomial algebra
for the exact pipeline and binomial error bars for the samplers.
"""

from __future__ import annotations

import math
from fractions import Fraction

SEP_PROB = Fraction(8, 33)
F_PREFACTOR = {"coeff": "1/319334400", "pi_pow": 5, "sqrt": 1}

# Half-width of the accepted band around 8/33 for one 10000-sample slice of
# the hit-and-run walk.  Walk samples are correlated, so the iid stderr
# (0.0043) understates the spread: over seeds 9101-9110 at a = 0, 0.2 and
# 0.4 (results/cond_sweep.json) the root-mean-square deviation of the 30
# slice fractions from 8/33 was 0.0073, and the largest was 0.0157.  The
# band is five of those deviations.
COND_SWEEP_SD = 0.0073
COND_BAND = 5 * COND_SWEEP_SD

# The sup-norm runs over 50 bins, so 3.5 sigma of the fullest bin (the bound
# of checks.check_marginal_law) raises a false alarm on about 1 operation
# in 100; a ten-run set saw one (sup-norm 0.1709 against 0.1584 at n = 2^18).
# The benchmark repeats the check hundreds of times, so it uses the
# Bonferroni count for 50 two-sided bins at a family-wise rate of 1e-6.
MARGINAL_SIGMAS = 5.6


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expected_f_poly() -> dict[int, int]:
    """(1-a)^9 (33a^3 + 162a^2 + 72a + 8), expanded in integers."""
    poly = [8, 72, 162, 33]
    for _ in range(9):
        poly = _poly_mul(poly, [1, -1])
    return {d: c for d, c in enumerate(poly) if c}


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_exact(prob_rep: dict, f_rep: dict) -> list[str]:
    """``integrate --emit prob`` gives 8/33 and ``--emit f`` gives
    pi^5/319334400 * (1-a)^9 (33a^3 + 162a^2 + 72a + 8)."""
    bad = []
    prob = prob_rep["results"]["prob"]
    if prob != "8/33":
        bad.append(f"prob {prob} != 8/33")
    pref = {k: f_rep["results"]["prefactor"].get(k) for k in F_PREFACTOR}
    if pref != F_PREFACTOR:
        bad.append(f"prefactor {pref} != {F_PREFACTOR}")
    got: dict[int, Fraction] = {}
    for term in f_rep["results"]["poly"]:
        (deg,) = term["exps"]
        got[deg] = got.get(deg, Fraction(0)) + _frac(term["coeff"])
    got = {d: c for d, c in got.items() if c}
    if got != expected_f_poly():
        bad.append("f polynomial differs from (1-a)^9 (33a^3+162a^2+72a+8)")
    return bad


def sep_tolerance(n: int) -> float:
    """max(0.002, 5 sigma) with sigma the binomial stderr at p = 8/33."""
    p = float(SEP_PROB)
    return max(0.002, 5.0 * math.sqrt(p * (1.0 - p) / n))


def check_sep(rep_1: dict, rep_mt: dict) -> list[str]:
    """``sample sep`` at 1 thread and at nproc threads: the fraction lies
    near 8/33 and the counts are bit-identical across thread counts."""
    bad = []
    r1, rm = rep_1["results"], rep_mt["results"]
    n = r1["n"]
    if r1["ppt_count"] / n != r1["fraction"]:
        bad.append("fraction != ppt_count / n")
    dev = abs(r1["fraction"] - float(SEP_PROB))
    if not dev <= sep_tolerance(n):
        bad.append(f"|fraction - 8/33| = {dev:.5f} > {sep_tolerance(n):.5f}")
    for key in ("n", "ppt_count", "indeterminate"):
        if r1[key] != rm[key]:
            bad.append(f"{key} differs across thread counts: {r1[key]} vs {rm[key]}")
    return bad


def check_conditioned(rep: dict, a: float) -> list[str]:
    """One ``sample conditioned`` slice: fraction within COND_BAND of 8/33;
    at a = 0 the PPT and half-bounded tests agree everywhere and fewer than
    n/1000 samples sit in the tie band."""
    bad = []
    r = rep["results"]
    dev = abs(r["fraction"] - float(SEP_PROB))
    if not dev <= COND_BAND:
        bad.append(f"a={a}: |fraction - 8/33| = {dev:.5f} > {COND_BAND:.5f}")
    if a == 0.0:
        if r["agreement_halfbound"] != 1.0:
            bad.append(f"a=0: agreement_halfbound {r['agreement_halfbound']} != 1.0")
        if not r["band_count"] < r["n"] / 1000:
            bad.append(f"a=0: band_count {r['band_count']} >= n/1000")
    return bad


def check_marginal(rep: dict) -> list[str]:
    """``marginal --samples``: the sup-norm between empirical and analytic
    bin densities stays below MARGINAL_SIGMAS binomial sigmas of the fullest
    bin, with both recomputed from the rows' counts and exact
    ``analytic_mass``."""
    bad = []
    r = rep["results"]
    n = r["samples"]
    rows = r["histogram"]
    if len(rows) != r["bins"]:
        bad.append(f"{len(rows)} histogram rows for {r['bins']} bins")
    sup = 0.0
    sigma_peak = 0.0
    for row in rows:
        width = float(row["bin_hi"]) - float(row["bin_lo"])
        prob = float(_frac(row["analytic_mass"]))
        sup = max(sup, abs(row["count"] / (n * width) - prob / width))
        sigma_peak = max(sigma_peak, math.sqrt(prob * (1.0 - prob) / n) / width)
    bound = MARGINAL_SIGMAS * sigma_peak
    if not abs(sup - float(r["sup_norm"])) <= 1e-6 * max(1.0, sup):
        bad.append(f"reported sup_norm {r['sup_norm']} != recomputed {sup:.6g}")
    if not sup < bound:
        bad.append(f"sup-norm {sup:.5f} >= {bound:.5f}")
    total = sum(_frac(row["analytic_mass"]) for row in rows)
    if total != 1:
        bad.append(f"analytic bin masses sum to {total}, not 1")
    return bad
