"""Command-line surface.

Six verbs: volumes, density, marginal, integrate, sample, verify.  Each verb
returns either a report, ``(command, results[, seed[, checks]])``, or a CSV
table, an iterable of lines whose first is the header.  ``main`` alone times
the verb, writes to stdout (a report as JSON, a table one line at a time) and
sets the exit code: 0 for success / all checks passing, 1 for a report with
``"pass": false``, 2 for usage errors, 141 when the reader closes the pipe.
``verify all``'s checks come from ``checks.run_all``, which names them.

``VERBS`` maps each verb to its help line and the function that adds its
arguments.  ``main`` builds only the parser of the verb it is given;
``build_parser``, the whole tree, parses anything else, such as no verb,
an unknown one or top-level ``--help``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import volumes as vol
from .exactmath import decimal_str, rational_from_str, rational_str
from .volumes import Spectrum

# numpy, and the modules built on it (checks, sampling), are imported by the
# verbs that use them, so `integrate`, `volumes`, `density` without
# `--check-oracle` and `marginal` without `--samples` run without it;
# sep_integral is imported by `integrate`, its only user.


def _versions() -> dict:
    """Package versions; numpy's is the one this run loaded, None when the
    verb ran without importing numpy."""
    np = sys.modules.get("numpy")
    return {"sepprob": __version__, "python": sys.version.split()[0], "numpy": np.__version__ if np else None}


def _report(seconds: float, command: str, results, seed=None, checks_list=None) -> dict:
    rep = {
        "command": command,
        "versions": _versions(),
        "seed": seed,
        "wall_clock_s": round(seconds, 3),
        "results": results,
    }
    if checks_list is not None:
        rep["checks"] = checks_list
        rep["pass"] = all(c["pass"] for c in checks_list)
    return rep


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


def cmd_volumes(args):
    n = args.n
    return "volumes", {
        "n": n,
        "flag_hs": _sym_json(vol.flag_volume_hs(n)),
        "flag_euclid": _sym_json(vol.flag_volume_euclid(n)),
        "state_space_hs": _sym_json(vol.state_space_volume_hs(n)),
        "simplex_integral": rational_str(vol.simplex_vandermonde_integral(n)),
        "simplex_integral_decimal": decimal_str(float(vol.simplex_vandermonde_integral(n))),
    }


def cmd_density(args):
    from . import dh_density as dh

    if args.grid:
        return _density_grid_csv(dh.convolution_density_closed(), args.grid)
    if args.check_oracle:
        rows, worst = _oracle_rows(args.points, args.seed)
        results = {"rows": rows, "max_abs_err": decimal_str(worst), "tolerance": args.tol}
        check = {"name": "fiber oracle agreement", "pass": worst <= args.tol, "detail": f"max err {worst:.2e}"}
        return "density --check-oracle", results, args.seed, [check]
    closed = dh.convolution_density_closed()
    return "density", {
        "chambers": {label: closed.piece(label).to_json() for label in dh.CHAMBER_LABELS},
        "variables": ["r", "s"],
    }


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


def _density_grid_csv(closed, k: int):
    from . import dh_density as dh

    yield "r,s,chamber,density"
    for i in range(k):
        r = -5.0 + 6.0 * i / (k - 1) if k > 1 else -5.0
        for j in range(k):
            s = -5.0 + 6.0 * j / (k - 1) if k > 1 else -5.0
            label = dh.classify_chamber(r, s)
            yield f"{r:.6f},{s:.6f},{label},{decimal_str(closed.evaluate_float(r, s))}"


def cmd_marginal(args):
    from . import dh_density as dh

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
        return _marginal_histogram(args, centered)
    support = dh.marginal_support(centered)
    density = dh.marginal_gap_density(centered)
    if args.grid:
        return _marginal_grid_csv(density, support, args.grid)
    return "marginal", {
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


def _marginal_grid_csv(density, support, k: int):
    grid = {float(support.b3) * i / (k - 1) for i in range(k)} if k > 1 else {0.0}
    xs = sorted(grid | {float(b) for b in support})
    yield "x,density"
    for x in xs:
        yield f"{decimal_str(x)},{decimal_str(density.evaluate_float(x))}"


def _marginal_histogram(args, centered):
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
        header = "bin_lo,bin_hi,count,empirical_density,analytic_density"
        return [header, *(",".join(str(row[key]) for key in header.split(",")) for row in rows)]
    results = {"histogram": rows, "sup_norm": decimal_str(hist.sup_norm), "samples": count, "bins": bins}
    return "marginal --samples", results, args.seed


def cmd_integrate(args):
    from . import sep_integral as si

    kind = args.emit
    if kind == "prob":
        p = si.separability_probability()
        return "integrate --emit prob", {"prob": rational_str(p), "decimal": decimal_str(float(p))}
    if kind == "f":
        f = si.separable_slice_poly()
        return "integrate --emit f", {
            "prefactor": _sym_json(f.prefactor),
            "poly": f.poly.to_json(),
            "value_at_0": _sym_json(f.evaluate(0)),
        }
    poly = si.gap_piece(int(kind[1]))
    decimals = {str(exps[0]): decimal_str(float(coeff)) for exps, coeff in poly.sorted_terms()}
    return f"integrate --emit {kind}", {"poly": poly.to_json(), "variable": "x", "decimal_coeffs": decimals}


def cmd_sample(args):
    from . import sampling as sp

    tol = sp.PPT_TOL if args.tol is None else args.tol
    config = sp.SamplerConfig(seed=args.seed, count=args.n, tolerance=tol)
    if args.what == "sep":
        return "sample sep", sp.estimate_sep_prob(config, threads=args.threads)._asdict(), args.seed
    stats = sp.conditioned_ppt_stats(args.a, config, threads=args.threads)
    return "sample conditioned", {"a": args.a, "n": args.n, **stats._asdict()}, args.seed


def cmd_verify(args):
    from . import checks

    results = []
    start = time.perf_counter()
    for name, passed, detail in checks.run_all(seed=args.seed, deep=args.deep):
        seconds = round(time.perf_counter() - start, 3)
        results.append({"name": name, "pass": bool(passed), "detail": detail, "seconds": seconds})
        start = time.perf_counter()
    return "verify all", {"deep": args.deep}, args.seed, results


_THREADS_HELP = ("sampling threads, at most one per CPU; the output is the same at any count: "
                "the draws run in parallel, the per-chunk arithmetic on one thread at a time")


def _volumes_args(p):
    p.add_argument("--n", type=_positive(int), required=True)
    p.set_defaults(func=cmd_volumes)


def _density_args(p):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check-oracle", action="store_true")
    mode.add_argument("--grid", type=_positive(int), default=0, help="emit a CSV grid of this size")
    p.add_argument("--points", type=_positive(int), default=100, help="points per chamber")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    p.set_defaults(func=cmd_density)


def _marginal_args(p):
    p.add_argument("--spectrum", required=True, help="four rationals or decimals, e.g. 0.45,0.27,0.18,0.10")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grid", type=_positive(int), default=0, help="emit a CSV grid of this size")
    mode.add_argument("--samples", type=_positive(int), default=0, help="sample a histogram of this size")
    p.add_argument("--bins", type=_positive(int), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive(int), default=1, help=_THREADS_HELP)
    p.add_argument("--csv", action="store_true", help="emit the --samples histogram as CSV")
    p.set_defaults(func=cmd_marginal)


def _integrate_args(p):
    p.add_argument("--emit", choices=["M1", "M2", "M3", "f", "prob"], required=True)
    p.set_defaults(func=cmd_integrate)


def _sample_args(p):
    sub = p.add_subparsers(dest="what", required=True)
    sep = sub.add_parser("sep", help="global separability fraction")
    conditioned = sub.add_parser("conditioned", help="fixed-marginal slice fraction")
    conditioned.add_argument("--a", type=_unit_interval, required=True)
    for q in (sep, conditioned):
        q.add_argument("--n", type=_positive(int), required=True)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--threads", type=_positive(int), default=1, help=_THREADS_HELP)
        q.add_argument("--tol", type=_positive(float), help="PPT tolerance (default: sampling.PPT_TOL)")
        q.set_defaults(func=cmd_sample)


def _verify_args(p):
    p.add_argument("scope", choices=["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--deep", action="store_true", help="acceptance-scale stochastic checks")
    p.set_defaults(func=cmd_verify)


# Verb -> (its help line, the function that adds its arguments and
# `func`): the one table that `build_parser` and `parse_args` read.
VERBS = {
    "volumes": ("closed-form volume constants for size N", _volumes_args),
    "density": ("planar chamber density and its oracles", _density_args),
    "marginal": ("marginal-gap density for a fixed spectrum", _marginal_args),
    "integrate": ("exact pipeline outputs", _integrate_args),
    "sample": ("Monte Carlo estimators", _sample_args),
    "verify": ("run the self-check suite", _verify_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: every verb of ``VERBS`` as a subparser."""
    parser = argparse.ArgumentParser(
        prog="sepprob",
        description="Exact volumes, piecewise densities, and Monte Carlo checks "
        "for two-qubit separability under the flat metric.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, add_arguments) in VERBS.items():
        add_arguments(sub.add_parser(verb, help=help_text))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``, as ``build_parser().parse_args(argv)`` gives
    them less its ``verb``.  When ``argv`` starts with a verb, only that verb's
    parser is built; anything else (no verb, an unknown one, top-level
    ``--help``, arguments the verb does not know) goes through the whole
    parser, so that its usage and errors read the same."""
    if argv and argv[0] in VERBS:
        _, add_arguments = VERBS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"sepprob {argv[0]}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        out = args.func(args)
        rep = _report(time.perf_counter() - t0, *out) if isinstance(out, tuple) else {}
        # A report goes out as one JSON document, a table one line at a time.
        for line in [json.dumps(rep, indent=2)] if rep else out:
            sys.stdout.write(line + "\n")
        sys.stdout.flush()
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe early: send what is still buffered to
        # devnull, so that the exit flush stays quiet, and exit 128 + SIGPIPE,
        # as a shell reports such a writer.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if rep.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
