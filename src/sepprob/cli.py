"""Command-line surface.

Six verbs: volumes, density, marginal, integrate, sample, verify.  Structured
results go to stdout as JSON; plot grids go out as CSV.  Exit codes: 0 for
success / all checks passing, 1 for a failed check, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from fractions import Fraction

from . import __version__
from . import sep_integral as si
from . import volumes as vol
from .exactmath import decimal_str, rational_from_str, rational_str
from .volumes import Spectrum

# numpy, and the modules built on it (checks, sampling), are imported by the
# verbs that use them, so `integrate`, `volumes`, `density` without
# `--check-oracle` and `marginal` without `--samples` run without it.


def _versions() -> dict:
    """Package versions; numpy's comes from its metadata when it is not
    loaded, and is None when numpy is not installed."""
    np = sys.modules.get("numpy")
    if np is not None:
        numpy_version = np.__version__
    else:
        from importlib.metadata import PackageNotFoundError, version

        try:
            numpy_version = version("numpy")
        except PackageNotFoundError:
            numpy_version = None
    return {"sepprob": __version__, "python": platform.python_version(), "numpy": numpy_version}


def _report(command: str, results, t0: float, seed=None, checks_list=None) -> dict:
    rep = {
        "command": command,
        "versions": _versions(),
        "seed": seed,
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "results": results,
    }
    if checks_list is not None:
        rep["checks"] = checks_list
        rep["pass"] = all(c["pass"] for c in checks_list)
    return rep


def _emit(rep: dict) -> None:
    json.dump(rep, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_spectrum(text: str) -> Spectrum:
    parts = [rational_from_str(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("spectrum needs exactly four comma-separated entries")
    return Spectrum(parts)


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value

    return parse


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return value


def _sym_json(s) -> dict:
    out = s.to_json()
    out["decimal"] = decimal_str(s.to_float())
    return out


def cmd_volumes(args) -> int:
    t0 = time.perf_counter()
    n = args.n
    results = {
        "n": n,
        "flag_hs": _sym_json(vol.flag_volume_hs(n)),
        "flag_euclid": _sym_json(vol.flag_volume_euclid(n)),
        "state_space_hs": _sym_json(vol.state_space_volume_hs(n)),
        "simplex_integral": rational_str(vol.simplex_vandermonde_integral(n)),
        "simplex_integral_decimal": decimal_str(float(vol.simplex_vandermonde_integral(n))),
    }
    _emit(_report("volumes", results, t0))
    return 0


def cmd_density(args) -> int:
    from . import dh_density as dh

    t0 = time.perf_counter()
    if args.grid:
        _density_grid_csv(dh.convolution_density_closed(), args.grid)
        return 0
    if args.check_oracle:
        rows, worst = _oracle_rows(args.points, args.seed)
        ok = worst <= args.tol
        rep = _report(
            "density --check-oracle",
            {"rows": rows, "max_abs_err": decimal_str(worst), "tolerance": args.tol},
            seed=args.seed,
            checks_list=[{"name": "fiber oracle agreement", "pass": ok, "detail": f"max err {worst:.2e}"}],
            t0=t0,
        )
        _emit(rep)
        return 0 if ok else 1
    closed = dh.convolution_density_closed()
    results = {
        "chambers": {label: closed.piece(label).to_json() for label in dh.CHAMBER_LABELS},
        "variables": ["r", "s"],
    }
    _emit(_report("density", results, t0))
    return 0


def _oracle_rows(points: int, seed: int):
    from . import checks
    from . import dh_density as dh

    rows = []
    worst = 0.0
    for pt, exact, oracle in checks.density_oracle_points(seed, points):
        err = abs(exact - oracle)
        worst = max(worst, err)
        rows.append(
            {
                "chamber": dh.classify_chamber(*pt),
                "point": [rational_str(pt[0]), rational_str(pt[1])],
                "closed_form": decimal_str(exact),
                "oracle": decimal_str(oracle),
                "abs_err": decimal_str(err),
            }
        )
    return rows, worst


def _density_grid_csv(closed, k: int) -> None:
    from . import dh_density as dh

    print("r,s,chamber,density")
    for i in range(k):
        r = -5.0 + 6.0 * i / (k - 1) if k > 1 else -5.0
        for j in range(k):
            s = -5.0 + 6.0 * j / (k - 1) if k > 1 else -5.0
            label = dh.classify_chamber(r, s)
            print(f"{r:.6f},{s:.6f},{label},{decimal_str(closed.evaluate_float(r, s))}")


def cmd_marginal(args) -> int:
    from . import dh_density as dh

    t0 = time.perf_counter()
    if args.csv and not args.samples:
        raise ValueError("--csv needs --samples: it formats the sampled histogram")
    spectrum = _parse_spectrum(args.spectrum)
    if not spectrum.is_simple:
        # The gap law is the Duistermaat-Heckman density of a regular orbit.
        repeated = next(x for x, y in zip(spectrum.entries, spectrum.entries[1:]) if x == y)
        raise ValueError(
            f"the marginal-gap law needs four distinct eigenvalues; {rational_str(repeated)} is repeated"
        )
    centered = spectrum.centered()
    if args.samples:
        return _marginal_histogram(args, centered, t0)
    support = dh.marginal_support(centered)
    density = dh.marginal_gap_density(centered)

    if args.grid:
        _marginal_grid_csv(density, support, args.grid)
        return 0

    results = {
        "spectrum": [rational_str(x) for x in spectrum.entries],
        "breakpoints": [rational_str(b) for b in (Fraction(0), *support)],
        "breakpoints_decimal": [decimal_str(float(b)) for b in (Fraction(0), *support)],
        "pieces": [
            {
                "interval": [rational_str(density.breakpoints[i]), rational_str(density.breakpoints[i + 1])],
                "poly": density.pieces[i].to_json(),
            }
            for i in range(len(density.pieces))
        ],
        "total_mass": rational_str(density.integral()),
    }
    _emit(_report("marginal", results, t0))
    return 0


def _marginal_grid_csv(density, support, k: int) -> None:
    grid = {float(support.b3) * i / (k - 1) for i in range(k)} if k > 1 else {0.0}
    xs = sorted(grid | {float(b) for b in support})
    print("x,density")
    for x in xs:
        print(f"{decimal_str(x)},{decimal_str(density.evaluate_float(x))}")


def _marginal_histogram(args, centered, t0) -> int:
    from . import checks

    bins = args.bins
    count = args.samples
    hist = checks.marginal_histogram(centered, count, args.seed, bins, threads=args.threads)
    rows = []
    for i in range(bins):
        rows.append(
            {
                "bin_lo": decimal_str(float(hist.edges[i])),
                "bin_hi": decimal_str(float(hist.edges[i + 1])),
                "count": int(hist.counts[i]),
                "empirical_density": decimal_str(hist.counts[i] / (count * hist.width)),
                "analytic_mass": rational_str(hist.masses[i]),
                "analytic_density": decimal_str(float(hist.masses[i]) / hist.width),
            }
        )
    if args.csv:
        print("bin_lo,bin_hi,count,empirical_density,analytic_density")
        for row in rows:
            print(
                f"{row['bin_lo']},{row['bin_hi']},{row['count']},"
                f"{row['empirical_density']},{row['analytic_density']}"
            )
        return 0
    rep = _report(
        "marginal --samples",
        {"histogram": rows, "sup_norm": decimal_str(hist.sup_norm), "samples": count, "bins": bins},
        seed=args.seed,
        t0=t0,
    )
    _emit(rep)
    return 0


def cmd_integrate(args) -> int:
    t0 = time.perf_counter()
    kind = args.emit
    if kind == "prob":
        p = si.separability_probability()
        _emit(_report("integrate --emit prob", {"prob": rational_str(p), "decimal": decimal_str(float(p))}, t0))
        return 0
    if kind == "f":
        f = si.separable_slice_poly()
        results = {
            "prefactor": _sym_json(f.prefactor),
            "poly": f.poly.to_json(),
            "value_at_0": _sym_json(f.evaluate(0)),
        }
        _emit(_report("integrate --emit f", results, t0))
        return 0
    k = int(kind[1])
    poly = si.gap_piece(k)
    decimals = {str(exps[0]): decimal_str(float(coeff)) for exps, coeff in poly.sorted_terms()}
    _emit(
        _report(
            f"integrate --emit {kind}",
            {"poly": poly.to_json(), "variable": "x", "decimal_coeffs": decimals},
            t0=t0,
        )
    )
    return 0


def cmd_sample(args) -> int:
    from . import sampling as sp

    t0 = time.perf_counter()
    tol = sp.PPT_TOL if args.tol is None else args.tol
    config = sp.SamplerConfig(seed=args.seed, count=args.n, tolerance=tol)
    if args.what == "sep":
        est = sp.estimate_sep_prob(config, threads=args.threads)
        _emit(_report("sample sep", est._asdict(), t0, seed=args.seed))
        return 0
    stats = sp.conditioned_ppt_stats(args.a, config)
    _emit(_report("sample conditioned", {"a": args.a, "n": args.n, **stats._asdict()}, t0, seed=args.seed))
    return 0


def cmd_verify(args) -> int:
    from . import checks

    results = []
    t0 = start = time.perf_counter()
    for name, passed, detail in checks.run_all(seed=args.seed, deep=args.deep):
        seconds = round(time.perf_counter() - start, 3)
        results.append({"name": name, "pass": bool(passed), "detail": detail, "seconds": seconds})
        start = time.perf_counter()
    rep = _report("verify all", {"deep": args.deep}, t0, seed=args.seed, checks_list=results)
    _emit(rep)
    return 0 if rep["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepprob",
        description="Exact volumes, piecewise densities, and Monte Carlo checks "
        "for two-qubit separability under the flat metric.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("volumes", help="closed-form volume constants for size N")
    p.add_argument("--n", type=_positive(int), required=True)
    p.set_defaults(func=cmd_volumes)

    p = sub.add_parser("density", help="planar chamber density and its oracles")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check-oracle", action="store_true")
    mode.add_argument("--grid", type=_positive(int), default=0, help="emit a CSV grid of this size")
    p.add_argument("--points", type=_positive(int), default=100, help="points per chamber")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("marginal", help="marginal-gap density for a fixed spectrum")
    p.add_argument("--spectrum", required=True, help="four rationals or decimals, e.g. 0.45,0.27,0.18,0.10")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grid", type=_positive(int), default=0, help="emit a CSV grid of this size")
    mode.add_argument("--samples", type=_positive(int), default=0, help="sample a histogram of this size")
    p.add_argument("--bins", type=_positive(int), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive(int), default=1)
    p.add_argument("--csv", action="store_true", help="emit the --samples histogram as CSV")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("integrate", help="exact pipeline outputs")
    p.add_argument("--emit", choices=["M1", "M2", "M3", "f", "prob"], required=True)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("sample", help="Monte Carlo estimators")
    sample_sub = p.add_subparsers(dest="what", required=True)

    q = sample_sub.add_parser("sep", help="global separability fraction")
    q.add_argument("--n", type=_positive(int), required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threads", type=_positive(int), default=1)
    q.add_argument("--tol", type=_positive(float), help="PPT tolerance (default: sampling.PPT_TOL)")
    q.set_defaults(func=cmd_sample)

    q = sample_sub.add_parser("conditioned", help="fixed-marginal slice fraction")
    q.add_argument("--a", type=_unit_interval, required=True)
    q.add_argument("--n", type=_positive(int), required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tol", type=_positive(float), help="PPT tolerance (default: sampling.PPT_TOL)")
    q.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("scope", choices=["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--deep", action="store_true", help="acceptance-scale stochastic checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
