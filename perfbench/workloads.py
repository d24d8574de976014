"""The benchmark's workloads and the independent checks of their outputs.

A workload is a fixed batch of `qdisk` CLI invocations; every round of a run
repeats it.  One operation is one invocation, except on `suites`, where one
operation is a seed pair (`parametrix-check --seed s` then `ibp-check --seed s`).
Every size the workload's cost depends on is passed explicitly, so a change of
a CLI default cannot shrink the batch.  The checks below recompute what a
correct output must say from the invocation's own arguments and never trust
the CLI's pass flags or exit-code summary alone.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import reference

NC_MUS = (0.3, 0.7, 1.0)
NC_KMAX = 512
CLASSICAL_GRID = 16384
NMIN, NMAX = -6, 6
# Sizes of the suites checks, as the CLI reports them in each check's params.
PARAMETRIX_ARGS = ("--trials", "100", "--kmax", "512", "--tol", "1e-10",
                   "--mu", "1.0", "--scale", "2.0")
IBP_ARGS = ("--trials", "50", "--kmax", "512", "--tol", "1e-06",
            "--mu", "1.0", "--scale", "2.0")
PARAM_FLAGS = {"--trials": "trials", "--kmax": "k_max", "--tol": "tol",
               "--mu": "mu", "--scale": "scale", "--seed": "seed"}


@dataclass(frozen=True)
class Op:
    """One operation: the argv lists run in order and the check of each output."""

    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[tuple[str, ...], str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: Callable[[int], list[Op]]  # seed -> operations
    warmup: Op
    reference: Callable[[], float]  # timed around every operation


def _sweep_argv(variant: str, size_flag: str, size: int, nmin: int, nmax: int,
                mu: float | None = None) -> tuple[str, ...]:
    argv = ["index-sweep", "--variant", variant, size_flag, str(size),
            "--nmin", str(nmin), "--nmax", str(nmax)]
    if mu is not None:
        argv += ["--mu", repr(mu)]
    return tuple(argv)


def _flag(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_index_csv(argv: tuple[str, ...], text: str) -> list[str]:
    """Check an index-sweep CSV against index = N + 1, row by row.

    Each cutoff N must appear exactly once per mu, with
    dim_ker = max(N+1, 0), dim_coker = max(-(N+1), 0) and index = N + 1,
    and K_max must be the requested truncation (kmax or grid).
    """
    variant = _flag(argv, "--variant")
    nmin, nmax = int(_flag(argv, "--nmin")), int(_flag(argv, "--nmax"))
    if variant == "nc":
        size = _flag(argv, "--kmax")
        mus = [float(_flag(argv, "--mu"))] if "--mu" in argv else [1.0]
    else:
        size = _flag(argv, "--grid")
        mus = [None]
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    seen: dict[tuple, int] = {}
    for row in rows:
        try:
            n = int(row["N"])
            mu = float(row["mu"]) if row["mu"] != "" else None
            counts = (int(row["dim_ker"]), int(row["dim_coker"]),
                      int(row["index_numeric"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed row {row}: {exc}")
            continue
        if row["variant"] != variant or row["K_max"] != size or mu not in mus:
            problems.append(f"row for another run: {row}")
        expected = (max(n + 1, 0), max(-(n + 1), 0), n + 1)
        if counts != expected:
            problems.append(f"N={n} mu={mu}: counts {counts}, expected {expected}")
        seen[(mu, n)] = seen.get((mu, n), 0) + 1
    wanted = {(mu, n): 1 for mu in mus for n in range(nmin, nmax + 1)}
    if seen != wanted:
        problems.append(f"rows per (mu, N) {sorted(seen.items())} != one each "
                        f"for mu in {mus}, N in [{nmin}, {nmax}]")
    return problems


def check_suite_json(argv: tuple[str, ...], text: str) -> list[str]:
    """Check a suite report: every check passes, each worst residual lies
    below the tolerance recorded in the same check's params, and those params
    are the ones the invocation asked for (trials, k_max, tol, mu, scale, seed)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"unreadable JSON: {exc}"]
    problems = []
    if report.get("pass") is not True:
        problems.append(f"report {report.get('report')!r} does not pass")
    residual_checks = 0
    for check in report.get("checks", []):
        if check.get("pass") is not True:
            problems.append(f"check {check.get('check')!r} does not pass")
        worst = check.get("observed", {}).get("worst_residual")
        if worst is None:
            continue
        residual_checks += 1
        params = check.get("params", {})
        for flag, key in PARAM_FLAGS.items():
            if flag not in argv:
                continue
            got = params.get(key)
            if not isinstance(got, (int, float)) or got != float(_flag(argv, flag)):
                problems.append(f"check {check.get('check')!r}: params {key}="
                                f"{got!r}, asked for {_flag(argv, flag)}")
        tol = params.get("tol")
        if not isinstance(tol, (int, float)) or not worst < tol:
            problems.append(f"check {check.get('check')!r}: worst residual "
                            f"{worst!r} not below tol {tol!r}")
    if residual_checks == 0:
        problems.append("no check reports a worst residual")
    return problems


def suite_seed(seed: int) -> int:
    """The CLI seed of the suites batch, derived from the benchmark's seed."""
    return random.Random(f"suites:{seed}").randrange(2**31)


def _index_nc_batch(seed: int) -> list[Op]:
    return [Op((_sweep_argv("nc", "--kmax", NC_KMAX, NMIN, NMAX, mu),),
               check_index_csv) for mu in NC_MUS]


def _index_classical_batch(seed: int) -> list[Op]:
    return [Op((_sweep_argv("classical", "--grid", CLASSICAL_GRID, NMIN, NMAX),),
               check_index_csv)]


def _suites_batch(seed: int) -> list[Op]:
    s = str(suite_seed(seed))
    return [Op((("parametrix-check", "--seed", s, *PARAMETRIX_ARGS),
                ("ibp-check", "--seed", s, *IBP_ARGS)), check_suite_json)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "index-nc",
            "The acceptance sweep (K=512, N in [-6, 6], three mu): nearly all "
            "of it is the dense SVD null count, so a faster null count for the "
            "shift algebra shows here and only here.",
            _index_nc_batch,
            Op((_sweep_argv("nc", "--kmax", 128, 0, 0, 1.0),), check_index_csv),
            reference.dense_svd),
        Workload(
            "index-classical",
            "The flat-disk sweep at grid 16384 reaches the same nullity layer "
            "by the Sturm-count route, so a change to the dense route or a "
            "merged sweep routine must show no regression here.",
            _index_classical_batch,
            Op((_sweep_argv("classical", "--grid", 256, 0, 0),), check_index_csv),
            reference.sturm),
        Workload(
            "suites",
            "parametrix-check and ibp-check (K=512, 100 and 50 trials) exercise "
            "weights, element algebra, D, Q, the Hilbert pairing and report "
            "output, and never the null count.",
            _suites_batch,
            Op((("parametrix-check", "--trials", "2", "--kmax", "64"),
                ("ibp-check", "--trials", "2", "--kmax", "64")),
               check_suite_json),
            reference.interpreter),
    )
}
