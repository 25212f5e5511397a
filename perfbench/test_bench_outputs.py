"""The benchmark's output checks accept correct CLI payloads and reject
corrupted ones.  Payloads are built by hand in the CLI's JSON shapes, so
these tests run in milliseconds and need no child process."""

import copy
import math
from fractions import Fraction

import outputs


def _f_payload():
    terms = [{"exps": [d], "coeff": f"{c}/1"} for d, c in sorted(outputs.expected_f_poly().items())]
    return {"results": {"prefactor": {**outputs.F_PREFACTOR, "decimal": "9.58e-07"}, "poly": terms}}


def _exact_payloads():
    return {"results": {"prob": "8/33", "decimal": "0.24242424242424243"}}, _f_payload()


def test_expected_f_poly_is_the_paper_polynomial():
    poly = outputs.expected_f_poly()
    assert poly[0] == 8 and 1 not in poly and poly[12] == -33
    for a in (Fraction(1, 7), Fraction(2, 5)):
        value = sum(c * a**d for d, c in poly.items())
        assert value == (1 - a) ** 9 * (33 * a**3 + 162 * a**2 + 72 * a + 8)


def test_exact_accepts_correct_and_rejects_corruption():
    prob, f = _exact_payloads()
    assert outputs.check_exact(prob, f) == []

    bad_prob = copy.deepcopy(prob)
    bad_prob["results"]["prob"] = "8/32"
    assert outputs.check_exact(bad_prob, f)

    bad_pref = copy.deepcopy(f)
    bad_pref["results"]["prefactor"]["pi_pow"] = 4
    assert outputs.check_exact(prob, bad_pref)

    bad_poly = copy.deepcopy(f)
    bad_poly["results"]["poly"][-1]["coeff"] = "-32/1"
    assert outputs.check_exact(prob, bad_poly)


def _sep(ppt_count, n=1_000_000, indeterminate=0):
    frac = ppt_count / n
    return {"results": {"n": n, "ppt_count": ppt_count, "fraction": frac,
                        "stderr": math.sqrt(frac * (1 - frac) / n), "indeterminate": indeterminate}}


def test_sep_accepts_correct_and_rejects_corruption():
    good = _sep(242_500)
    assert outputs.check_sep(good, _sep(242_500)) == []
    assert outputs.check_sep(_sep(246_000), _sep(246_000))  # 0.0036 off 8/33
    assert outputs.check_sep(good, _sep(242_501))  # thread counts disagree
    assert outputs.check_sep(good, _sep(242_500, indeterminate=1))
    lying = copy.deepcopy(good)
    lying["results"]["fraction"] = 0.2424
    assert outputs.check_sep(lying, good)


def _cond(fraction, agreement=1.0, band=0, n=20_000):
    return {"results": {"a": 0.0, "n": n, "fraction": fraction, "stderr": 0.003,
                        "agreement_halfbound": agreement, "band_count": band, "indeterminate": 0}}


def test_conditioned_accepts_correct_and_rejects_corruption():
    assert outputs.check_conditioned(_cond(0.2410), 0.0) == []
    assert outputs.check_conditioned(_cond(0.2410, agreement=0.85), 0.2) == []
    assert outputs.check_conditioned(_cond(0.2424 + 1.01 * outputs.COND_BAND), 0.2)
    assert outputs.check_conditioned(_cond(0.2410, agreement=0.9999), 0.0)
    assert outputs.check_conditioned(_cond(0.2410, band=20), 0.0)


def _marginal(n=1_000_000, bins=4, skew=0):
    masses = [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)][:bins]
    rows, sup = [], 0.0
    width = 0.25
    for i, m in enumerate(masses):
        count = int(m * n) + (skew if i == 0 else -skew if i == 1 else 0)
        sup = max(sup, abs(count / (n * width) - float(m) / width))
        rows.append({"bin_lo": repr(i * width), "bin_hi": repr((i + 1) * width), "count": count,
                     "analytic_mass": f"{m.numerator}/{m.denominator}"})
    return {"results": {"samples": n, "bins": bins, "histogram": rows, "sup_norm": repr(sup)}}


def test_marginal_accepts_correct_and_rejects_corruption():
    assert outputs.check_marginal(_marginal()) == []
    assert outputs.check_marginal(_marginal(skew=300)) == []  # under 1 sigma (490 counts)
    assert outputs.check_marginal(_marginal(skew=5000))  # about 10 sigma
    wrong_sup = _marginal()
    wrong_sup["results"]["sup_norm"] = "0.5"
    assert outputs.check_marginal(wrong_sup)
    lost_bin = _marginal()
    lost_bin["results"]["histogram"].pop()
    assert outputs.check_marginal(lost_bin)

