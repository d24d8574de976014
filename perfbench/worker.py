"""One fresh workload process: import qdisk, warm up, run rounds, verify.

Run by run.py and the self-tests:

    python3 perfbench/worker.py --workload NAME --seed N [--seconds T]
        [--setup-only] [--trace]

Prints one JSON object: the monotonic time at which set-up finished, the
CLI time of each round (the workload's fixed batch, the same every round),
the mean time of the workload's reference kernel (perfbench/reference.py)
over the runs of it before and after each operation of the round, each
operation's verification result and output digest, ru_maxrss, and with
--trace the per-round layer metrics.  Rounds start while fewer than T seconds
have passed (at least one).  With --trace the spans are also written to
perfbench/out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def run_op(cli, op: Op) -> tuple[float, list[str], str]:
    """Run one operation through cli.main; return CLI seconds, problems and
    the sha256 of its outputs.  Exit codes other than 0 and any exception
    are problems, not aborts."""
    problems: list[str] = []
    digest = hashlib.sha256()
    elapsed = 0.0
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:
            elapsed += time.perf_counter() - t0
            problems.append(f"{argv[0]} raised: "
                            + traceback.format_exc(limit=-3).strip())
            continue
        elapsed += time.perf_counter() - t0
        text = out.getvalue()
        digest.update(text.encode())
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        problems += op.check(argv, text)
    return elapsed, problems, digest.hexdigest()


def time_reference(workload) -> float:
    t0 = time.perf_counter()
    workload.reference()
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    from qdisk import cli
    if Path(cli.__file__).resolve().parent != SRC / "qdisk":
        print(f"imported qdisk from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    _, problems, _ = run_op(cli, workload.warmup)
    if problems:
        print(f"warm-up failed: {problems}", file=sys.stderr)
        return 3
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_values
        tracer = Tracer()
        tracer.install()

    batch = workload.batch(args.seed)
    workload.reference()
    ops, round_times, ref_times = [], [], [time_reference(workload)]
    began = time.perf_counter()
    while not round_times or time.perf_counter() - began < args.seconds:
        r = len(round_times)
        round_time = 0.0
        for op in batch:
            if tracer is not None:
                tracer.op = len(ops)
            elapsed, problems, digest = run_op(cli, op)
            round_time += elapsed
            ops.append({"round": r, "seconds": elapsed, "problems": problems[:5],
                        "digest": digest})
            ref_times.append(time_reference(workload))
        round_times.append(round_time)
    n = len(batch)
    round_refs = [sum(ref_times[r * n:r * n + n + 1]) / (n + 1)
                  for r in range(len(round_times))]

    result = {"ready": ready, "round_seconds": round_times,
              "round_reference_seconds": round_refs, "ops": ops,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.op = -1
        calls, self_s = tracer.per_op(len(ops))
        rounds = []
        for r in range(len(round_times)):
            idx = [i for i, op in enumerate(ops) if op["round"] == r]
            counters = sum((tracer.counters.get(i, Counter()) for i in idx), Counter())
            rounds.append({
                "calls": dict(zip(tracer.names, calls[idx].sum(axis=0).tolist())),
                "layers": layer_values(tracer.names, calls[idx].sum(axis=0),
                                       self_s[idx].sum(axis=0), counters),
            })
        result["trace_rounds"] = rounds
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
