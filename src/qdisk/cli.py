"""Batch verification front end.

Subcommands run the library's verification suites and emit JSON/CSV
reports.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 numerical conditioning failure.  Given a fixed --seed, reports are
byte-for-byte reproducible (no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from functools import partial

import numpy as np

from . import __version__
from .aps import APSProjection, index_numeric
from .classical import index_classical
from .element import random_element
from .hilbert import integration_by_parts_residual, norm_fourier
from .ncops import apply_D, apply_Dbar
from .parametrix import apply_Q, apply_Qbar, norm_bound_check
from .report import CheckResult, IllConditionedError, Report, TruncationWarning
from .weights import check_conditions, constant_classical_weight, quantum_disk_weights

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ILL_CONDITIONED = 3


def _write_json(report: Report, path: str | None) -> None:
    text = report.to_json()
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _mu_arg(value: str) -> float:
    mu = float(value)
    if not 0.0 < mu <= 1.0:
        raise argparse.ArgumentTypeError(f"mu must lie in (0, 1], got {value}")
    return mu


def _positive(value: str) -> float:
    x = float(value)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return x


def cmd_verify_weights(args: argparse.Namespace) -> int:
    w = quantum_disk_weights(args.mu, args.scale)
    report = check_conditions(w, args.kmax, tol=args.tol)
    _write_json(report, args.json)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_index_sweep(args: argparse.Namespace) -> int:
    sweeps = []  # (variant, mu, size, index function of (projection, cache))
    if args.variant in ("nc", "both"):
        for mu in args.mu or [1.0]:
            w = quantum_disk_weights(mu, args.scale)
            sweeps.append(("nc", mu, args.kmax,
                           partial(index_numeric, w, k_max=args.kmax)))
    if args.variant in ("classical", "both"):
        sweeps.append(("classical", "", args.grid,
                       partial(index_classical, weight=constant_classical_weight(),
                               m_points=args.grid)))
    rows = []
    failures = 0
    try:
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
    except IllConditionedError as exc:
        print(f"ill-conditioned: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED

    fieldnames = ["variant", "N", "mu", "K_max", "dim_ker", "dim_coker",
                  "index_numeric", "index_analytic"]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_FAIL if failures else EXIT_PASS


def cmd_parametrix_check(args: argparse.Namespace) -> int:
    w = quantum_disk_weights(args.mu, args.scale)
    rng = np.random.default_rng(args.seed)
    report = Report("parametrix-suite")
    worst = {"residual": -1.0, "trial": None, "payload": None}
    bound_ok = True
    worst_ratio = 0.0

    support = args.kmax // 2
    for trial in range(args.trials):
        b = random_element(rng, args.kmax, -6, 6, k_support=support)
        nb = norm_fourier(b, w)
        res_q = norm_fourier(apply_D(apply_Q(b, w), w) - b, w) / nb
        res_qbar = norm_fourier(apply_Dbar(apply_Qbar(b, w), w) - b, w) / nb
        residual = max(res_q, res_qbar)
        if residual > worst["residual"]:
            worst = {"residual": residual, "trial": trial,
                     "payload": b.to_json_dict()}
        bound = norm_bound_check(b, w)["norm-bound"]
        bound_ok = bound_ok and bound.passed
        worst_ratio = max(worst_ratio, bound.observed["ratio"])

    passed = worst["residual"] < args.tol and bound_ok
    report.add(CheckResult(
        check="right-inverse-residual",
        claim="parametrix-right-inverse",
        params={"trials": args.trials, "seed": args.seed, "mu": args.mu,
                "scale": args.scale, "k_max": args.kmax, "tol": args.tol},
        observed={"worst_residual": worst["residual"],
                  "worst_trial": worst["trial"]},
        expected={"residual_below": args.tol},
        passed=worst["residual"] < args.tol,
    ))
    report.add(CheckResult(
        check="norm-bound",
        claim="parametrix-bounded",
        params={"trials": args.trials},
        observed={"all_within_bound": bound_ok, "worst_ratio": worst_ratio},
        expected={"all_within_bound": True},
        passed=bound_ok,
    ))
    if not passed:
        report.add(CheckResult(
            check="worst-instance",
            claim="replay-payload",
            observed={"element": worst["payload"], "trial": worst["trial"]},
            passed=False,
        ))
    _write_json(report, args.json)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_ibp_check(args: argparse.Namespace) -> int:
    w = quantum_disk_weights(args.mu, args.scale)
    rng = np.random.default_rng(args.seed)
    report = Report("integration-by-parts-suite")
    worst = {"residual": -1.0, "trial": None, "payload": None}
    for trial in range(args.trials):
        a = random_element(rng, args.kmax, -4, 4, declared_tails=True,
                           tail_start=args.kmax // 2)
        b = random_element(rng, args.kmax, -4, 4, declared_tails=True,
                           tail_start=args.kmax // 2)
        residual = integration_by_parts_residual(a, b, w)
        if residual > worst["residual"]:
            worst = {"residual": residual, "trial": trial,
                     "payload": {"a": a.to_json_dict(), "b": b.to_json_dict()}}
    passed = worst["residual"] < args.tol
    report.add(CheckResult(
        check="adjoint-identity-residual",
        claim="integration-by-parts",
        params={"trials": args.trials, "seed": args.seed, "mu": args.mu,
                "scale": args.scale, "k_max": args.kmax, "tol": args.tol},
        observed={"worst_residual": worst["residual"],
                  "worst_trial": worst["trial"]},
        expected={"residual_below": args.tol},
        passed=passed,
    ))
    if not passed:
        report.add(CheckResult(
            check="worst-instance",
            claim="replay-payload",
            observed=worst["payload"] or {},
            passed=False,
        ))
    _write_json(report, args.json)
    return EXIT_PASS if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisk",
        description="verification suites for the quantum-disk d-bar calculus")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-weights",
                       help="check the three weight conditions")
    p.add_argument("--mu", type=_mu_arg, default=1.0)
    p.add_argument("--scale", type=_positive, default=2.0)
    p.add_argument("--kmax", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify_weights)

    p = sub.add_parser("index-sweep",
                       help="index of the boundary-conditioned operator over a cutoff range")
    p.add_argument("--variant", choices=["nc", "classical", "both"], default="nc")
    p.add_argument("--nmin", type=int, default=-6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--mu", type=_mu_arg, action="append", default=None,
                   help="repeatable; default 1.0")
    p.add_argument("--scale", type=_positive, default=2.0)
    p.add_argument("--kmax", type=int, default=512)
    p.add_argument("--grid", type=int, default=2048,
                   help="radial grid size for the classical variant")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_index_sweep)

    p = sub.add_parser("parametrix-check",
                       help="right-inverse residuals and the norm bound on random inputs")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=_mu_arg, default=1.0)
    p.add_argument("--scale", type=_positive, default=2.0)
    p.add_argument("--kmax", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_parametrix_check)

    p = sub.add_parser("ibp-check",
                       help="adjoint-identity residuals on declared-tail random pairs")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=_mu_arg, default=1.0)
    p.add_argument("--scale", type=_positive, default=2.0)
    p.add_argument("--kmax", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--json", metavar="PATH", default=None)
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
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
