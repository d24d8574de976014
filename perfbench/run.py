"""Benchmark of the qdisk CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is index-nc, index-classical, suites, or all.  Every workload runs
through `qdisk.cli.main` in fresh Python processes (perfbench/worker.py),
with QDISK_THREADS cleared and BLAS/OpenMP pinned to one thread, and every
output is checked independently (perfbench/workloads.py).

--trace 0 reports the end-to-end metrics of the workload's fixed batch:
  wall_rel     median, over the rounds run in T s (split over up to SLICES
               measuring processes), of the CLI seconds of one batch over the
               seconds of the workload's reference kernel timed around it
               (perfbench/reference.py); the plain median seconds, wall_s,
               are printed and recorded too
  setup_s      median seconds from process spawn to `import qdisk` plus one
               warm-up call, over the measuring processes and
               PROBES_PER_SLICE fresh processes before each of them
  peak_rss_mb  largest ru_maxrss of the measuring processes
  ok_frac      operations that passed verification over those attempted
               (failed_frac = 1 - ok_frac is printed too)
--trace 1 runs the batch untraced for T/2 s, then traced for T/2 s in
another process, then the K ladder (perfbench/ladder.py), and reports the
per-layer metrics (perfbench/tracer.py): counts of one traced batch,
median self seconds per batch, trace.overhead_frac (of wall_rel) and the
ladder.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Each run also writes
perfbench/out/<workload>-trace<t>.json (metrics, raw samples, environment,
layer map and workload rationale) and, traced, perfbench/out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS
from tracer import LAYER_METRICS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SLICES = 4
PROBES_PER_SLICE = 3
TIME_LIMIT = 170.0  # seconds per workload, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "fraction"}


class BenchError(RuntimeError):
    """A benchmark process failed; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QDISK_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(script: str, args: list[str], deadline: float) -> tuple[dict, float]:
    """Run a perfbench script in a fresh interpreter; return its JSON result
    and the monotonic time just before the spawn."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit reached before {script} {' '.join(args)}")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _failures(ops: list[dict]) -> list[dict]:
    return [op for op in ops if op["problems"]]


def _relative(run: dict) -> list[float]:
    return [t / ref for t, ref in zip(run["round_seconds"], run["round_reference_seconds"])]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """The T seconds of rounds are split over up to SLICES measuring
    processes, with PROBES_PER_SLICE set-up probes before each, so that both
    wall_rel and setup_s sample the whole run: the host's speed drifts in
    phases of tens of seconds."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups: list[float] = []
    rounds: list[float] = []
    relative: list[float] = []
    references: list[float] = []
    ops: list[dict] = []
    maxrss_kb = 0
    for i in range(SLICES):
        left = seconds - sum(rounds)
        if left <= 0:
            break
        for _ in range(PROBES_PER_SLICE):
            probe, spawned = spawn("worker.py", base + ["--setup-only"], deadline)
            setups.append(probe["ready"] - spawned)
        run, spawned = spawn("worker.py", base + ["--seconds", str(left / (SLICES - i))],
                             deadline)
        setups.append(run["ready"] - spawned)
        rounds += run["round_seconds"]
        relative += _relative(run)
        references += run["round_reference_seconds"]
        ops += run["ops"]
        maxrss_kb = max(maxrss_kb, run["maxrss_kb"])
    failed = len(_failures(ops))
    metrics = {
        "wall_rel": statistics.median(relative),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": maxrss_kb / 1024.0,
        "ok_frac": 1.0 - failed / len(ops),
    }
    raw = {"setup_seconds": setups, "round_seconds": rounds,
           "round_reference_seconds": references, "failures": _failures(ops),
           "shown": {"wall_s": statistics.median(rounds),
                     "reference_s": statistics.median(references)}}
    return metrics, len(ops), failed, [], raw


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    OUT.mkdir(exist_ok=True)
    plain, _ = spawn("worker.py", base, deadline)
    traced, _ = spawn("worker.py", base + ["--trace"], deadline)
    ladder, _ = spawn("ladder.py", ["--seed", str(seed)], deadline)

    rounds = [r["layers"] for r in traced["trace_rounds"]]
    metrics: dict[str, float] = {}
    for m in LAYER_METRICS:
        if m.kind == "self_s":
            metrics[m.name] = statistics.median(r[m.name] for r in rounds)
        else:  # counts of one batch; every round repeats the same batch
            metrics[m.name] = rounds[0][m.name]
    metrics["trace.wall_s"] = statistics.median(traced["round_seconds"])
    metrics["trace.overhead_frac"] = (statistics.median(_relative(traced))
                                      / statistics.median(_relative(plain)) - 1.0)
    metrics.update(ladder["metrics"])

    problems = list(ladder["problems"])
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["digest"] != b["digest"]:
            problems.append(f"round {a['round']}: traced output differs from untraced")
    ops = plain["ops"] + traced["ops"]
    raw = {"untraced_round_seconds": plain["round_seconds"],
           "traced_round_seconds": traced["round_seconds"],
           "traced_rounds": traced["trace_rounds"], "failures": _failures(ops),
           "problems": problems}
    return metrics, len(ops), len(_failures(ops)), problems, raw


UNITS = {**E2E_UNITS, **{m.name: m.unit for m in LAYER_METRICS},
         "trace.wall_s": "s", "trace.overhead_frac": "fraction",
         "ladder.nullity.routes_agree": "count"}


def unit_of(name: str) -> str:
    """Unit of a reported metric; KeyError for a name the benchmark does not
    report.  The ladder's timings, ladder.<module>.<fn>.K<k>_s, are seconds."""
    if name in UNITS:
        return UNITS[name]
    if name.startswith("ladder.") and name.endswith("_s"):
        return "s"
    raise KeyError(name)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "QDISK_THREADS": ("cleared in workload processes; ambient value "
                          + repr(os.environ.get("QDISK_THREADS"))),
    }


def layer_map() -> list[dict]:
    return [{"layer": row["layer"], "moves": row["moves"], "on": row["on"],
             "no_change_on": [w for w in WORKLOADS if w not in row["on"]],
             "metrics": [m.name for m in row["metrics"]]} for row in LAYERS]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict, deadline: float):
    measure = per_layer if trace else end_to_end
    metrics, attempted, failed, problems, raw = measure(workload, seed, seconds, deadline)
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)}): "
          f"{WORKLOADS[workload].why}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit_of(name)}")
    for name, value in raw.get("shown", {}).items():
        print(f"  {name:<48} {value:>16.6g} s")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} fraction "
          f"({failed}/{attempted} operations)")
    for problem in problems + [p for op in raw["failures"] for p in op["problems"]]:
        print(f"  problem: {problem}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "why": WORKLOADS[workload].why, "seed": seed,
              "seconds": seconds, "trace": int(trace), "environment": env,
              "layer_map": layer_map(), "metrics": metrics,
              "attempted": attempted, "failed": failed, "raw": raw}
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return metrics, attempted, failed, not problems and failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qdisk" / "__init__.py").is_file():
        print(f"no qdisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT
            values, n, bad, ok = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), env, deadline)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)}
                            for k, v in values.items()})
            attempted += n
            failed += bad
            correct = correct and ok
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
