"""Batch verification front end.

Subcommands run the library's verification suites and emit JSON/CSV
reports.  Exit codes: 0 all checks pass, 1 a check failed (or an internal
error: a ValueError raised past the argument checks), 2 usage error,
3 numerical conditioning failure.  Usage errors are argparse's and the
argument checks' own: --mu outside (0, 1] or --scale <= 0, --trials below 1
or --kmax below 2 for the suites, --kmax below 16 for verify-weights,
--nmin above --nmax or --grid below 2 for index-sweep.  Given a fixed
--seed, reports are byte-for-byte reproducible (no timestamps).

The parametrix residual grows with K: the worst residuals measured were
1.6e-11, 6.0e-11, 1.6e-10 and 4.8e-10 at K = 4096, 8192, 16384 and 32768,
so the default --tol 1e-10 of parametrix-check holds up to K = 8192.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from contextlib import nullcontext
from functools import partial

import numpy as np

from . import __version__
from .aps import APSProjection, index_numeric
from .classical import index_classical
from .element import random_element
from .hilbert import integration_by_parts_residual, norm_fourier
from .ncops import apply_D, apply_Dbar
from .parametrix import _norm_bound, apply_Q, apply_Qbar
from .report import CheckResult, IllConditionedError, Report, TruncationWarning
from .weights import WeightPair, check_conditions, quantum_disk_weights

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ILL_CONDITIONED = 3


class UsageError(Exception):
    """A bad command-line argument (exit 2)."""


def _weights(mu: float, scale: float) -> WeightPair:
    """quantum_disk_weights, its argument checks raised as usage errors."""
    try:
        return quantum_disk_weights(mu, scale)
    except ValueError as exc:
        raise UsageError(exc) from exc


def _write_report(report: Report, path: str | None) -> int:
    """Write the report as JSON (to stdout without a path); return its exit code."""
    with open(path, "w") if path else nullcontext(sys.stdout) as out:
        out.write(report.to_json() + "\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify_weights(args: argparse.Namespace) -> int:
    if args.kmax < 16:
        raise UsageError(f"need --kmax >= 16, got {args.kmax}")
    w = _weights(args.mu, args.scale)
    return _write_report(check_conditions(w, args.kmax, tol=args.tol), args.json)


def cmd_index_sweep(args: argparse.Namespace) -> int:
    if args.nmin > args.nmax:
        raise UsageError(f"empty cutoff range: --nmin {args.nmin} > --nmax {args.nmax}")
    if args.grid < 2:
        raise UsageError(f"need --grid >= 2, got {args.grid}")
    # built for either variant, so a bad --mu or --scale is always a usage error
    weights = [(mu, _weights(mu, args.scale)) for mu in args.mu or [1.0]]
    sweeps = []  # (variant, mu, size, index function of (projection, cache))
    if args.variant in ("nc", "both"):
        sweeps += [("nc", mu, args.kmax, partial(index_numeric, w, k_max=args.kmax))
                   for mu, w in weights]
    if args.variant in ("classical", "both"):
        sweeps.append(("classical", "", args.grid,
                       partial(index_classical, m_points=args.grid)))
    rows = []
    failures = 0
    for variant, mu, size, index in sweeps:
        cache: dict = {}
        for n in range(args.nmin, args.nmax + 1):
            res = index(p=APSProjection(n), cache=cache)
            rows.append({
                "variant": variant, "N": n, "mu": mu, "K_max": size,
                "dim_ker": res.dim_ker, "dim_coker": res.dim_coker,
                "index_numeric": res.index,
                "index_analytic": res.analytic.index,
            })
            failures += not res.matches_analytic

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as out:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_FAIL if failures else EXIT_PASS


def _suite(args: argparse.Namespace, title: str, check: str, claim: str,
           trial, extra=list) -> int:
    """Run ``args.trials`` seeded trials of one suite and write its report.

    ``trial(rng, w)`` draws one instance and returns its residual and the
    named elements that replay it; ``extra()`` returns the suite's further
    checks after the loop.  The worst trial is the first with the largest
    residual, or the first NaN; its elements are serialised only when the
    report fails.
    """
    if args.trials < 1 or args.kmax < 2:
        raise UsageError(f"need --trials >= 1 and --kmax >= 2, "
                         f"got {args.trials} and {args.kmax}")
    w = _weights(args.mu, args.scale)
    rng = np.random.default_rng(args.seed)
    worst, worst_trial, worst_inputs = -1.0, None, {}
    for n in range(args.trials):
        residual, inputs = trial(rng, w)
        # a NaN residual fails the suite: it is worse than any number
        if residual > worst or (np.isnan(residual) and not np.isnan(worst)):
            worst, worst_trial, worst_inputs = residual, n, inputs
    report = Report(title)
    report.add(CheckResult(
        check=check,
        claim=claim,
        params={"trials": args.trials, "seed": args.seed, "mu": args.mu,
                "scale": args.scale, "k_max": args.kmax, "tol": args.tol},
        observed={"worst_residual": worst, "worst_trial": worst_trial},
        expected={"residual_below": args.tol},
        passed=worst < args.tol,
    ))
    for result in extra():
        report.add(result)
    if not report.passed:
        payload = {name: el.to_json_dict() for name, el in worst_inputs.items()}
        report.add(CheckResult(
            check="worst-instance",
            claim="replay-payload",
            observed={**payload, "trial": worst_trial},
            passed=False,
        ))
    return _write_report(report, args.json)


def cmd_parametrix_check(args: argparse.Namespace) -> int:
    bounds = []  # per trial: ||Qb|| / ||b|| and whether the norm bound holds

    def trial(rng, w):
        b = random_element(rng, args.kmax, -6, 6, k_support=args.kmax // 2)
        qb = apply_Q(b, w)
        nb, nqb = norm_fourier(b, w), norm_fourier(qb, w)
        bounds.append((nqb / nb, _norm_bound(nqb, nb, w, b.k_max)[1]))
        res_q = norm_fourier(apply_D(qb, w) - b, w) / nb
        res_qbar = norm_fourier(apply_Dbar(apply_Qbar(b, w), w) - b, w) / nb
        return max(res_q, res_qbar), {"element": b}

    def norm_bound():
        ok = all(within for _, within in bounds)
        return [CheckResult(
            check="norm-bound",
            claim="parametrix-bounded",
            params={"trials": args.trials},
            observed={"all_within_bound": ok,
                      "worst_ratio": max(r for r, _ in bounds)},
            expected={"all_within_bound": True},
            passed=ok,
        )]

    return _suite(args, "parametrix-suite", "right-inverse-residual",
                  "parametrix-right-inverse", trial, norm_bound)


def cmd_ibp_check(args: argparse.Namespace) -> int:
    def trial(rng, w):
        a, b = (random_element(rng, args.kmax, -4, 4, declared_tails=True,
                               tail_start=args.kmax // 2) for _ in range(2))
        return integration_by_parts_residual(a, b, w), {"a": a, "b": b}

    return _suite(args, "integration-by-parts-suite", "adjoint-identity-residual",
                  "integration-by-parts", trial)


# types of the flags several subcommands share; the defaults are per
# subcommand, and _weights checks --mu and --scale
_SHARED = {"trials": int, "seed": int, "mu": float, "scale": float,
           "kmax": int, "tol": float, "json": str}


def _flags(**defaults) -> argparse.ArgumentParser:
    """Parent parser declaring the shared flags named in ``defaults``."""
    parent = argparse.ArgumentParser(add_help=False)
    for dest, default in defaults.items():
        parent.add_argument(f"--{dest}", type=_SHARED[dest], default=default,
                            metavar="PATH" if dest == "json" else None)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisk",
        description="verification suites for the quantum-disk d-bar calculus")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-weights", help="check the three weight conditions",
                       parents=[_flags(mu=1.0, scale=2.0, kmax=10000, tol=1e-3,
                                       json=None)])
    p.set_defaults(func=cmd_verify_weights)

    p = sub.add_parser("index-sweep",
                       help="index of the boundary-conditioned operator over a cutoff range",
                       parents=[_flags(scale=2.0, kmax=512)])
    p.add_argument("--variant", choices=["nc", "classical", "both"], default="nc")
    p.add_argument("--nmin", type=int, default=-6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--mu", type=float, action="append", default=None,
                   help="repeatable; default 1.0")
    p.add_argument("--grid", type=int, default=2048,
                   help="radial grid size for the classical variant")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_index_sweep)

    p = sub.add_parser("parametrix-check",
                       help="right-inverse residuals and the norm bound on random inputs",
                       parents=[_flags(trials=100, seed=0, mu=1.0, scale=2.0,
                                       kmax=512, tol=1e-10, json=None)])
    p.set_defaults(func=cmd_parametrix_check)

    p = sub.add_parser("ibp-check",
                       help="adjoint-identity residuals on declared-tail random pairs",
                       parents=[_flags(trials=50, seed=0, mu=1.0, scale=2.0,
                                       kmax=512, tol=1e-6, json=None)])
    p.set_defaults(func=cmd_ibp_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            return args.func(args)
        except IllConditionedError as exc:
            print(f"ill-conditioned: {exc}", file=sys.stderr)
            return EXIT_ILL_CONDITIONED
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
