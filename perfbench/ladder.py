"""K ladder: each layer function timed alone, from outside, at several K.

Run by run.py in its own process (untraced):

    python3 perfbench/ladder.py --seed N

Prints one JSON object: {"metrics": {...}, "problems": [...]}.  Metric
`ladder.<module>.<fn>.K<k>_s` is the median seconds of one call.  The two
null-count routes are also run on the same pure bidiagonal matrix at every
dense K, and must return the same nullity; `ladder.nullity.routes_agree`
counts the K where they do.  `element.multiply` lies on no CLI path, so its
entries move no workload's wall_rel and are kept for scaling only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
KS = (512, 4096, 32768, 131072)
DENSE_KS = (256, 512, 1024)
MODE = 2  # g-side kernel recursion of D at mode 2: one kernel direction
# Each timing is the median over at least MIN_REPS calls and MIN_TOTAL
# seconds, and at most MAX_REPS calls; the median drops a slow first call.
MIN_REPS, MIN_TOTAL, MAX_REPS = 3, 0.1, 100


def median_seconds(fn):
    """(median seconds of one call, last result)."""
    times: list[float] = []
    began = time.perf_counter()
    while len(times) < MIN_REPS or (time.perf_counter() - began < MIN_TOTAL
                                    and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def recursion_bands(w, k: int):
    """Two-term recursion B(j+MODE) c(j) - B(j) c(j+1) = 0 for j < k, as the
    (diag, upper) bands of an upper-bidiagonal k x (k+1) matrix."""
    js = np.arange(k)
    return w.b_at(js + MODE), -w.b_at(js)


def recursion_dense(w, k: int, tail_row: bool):
    """The same recursion as a dense matrix, with an optional last row that
    pins the tail-window mean (window k // 16), as the APS boundary row does."""
    diag, upper = recursion_bands(w, k)
    js = np.arange(k)
    dense = np.zeros((k + tail_row, k + 1))
    dense[js, js] = diag
    dense[js, js + 1] = upper
    if tail_row:
        window = k // 16
        dense[k, k + 1 - window:] = 1.0 / window
    return dense


def run(seed: int) -> dict:
    from qdisk import (apply_D, apply_Q, inner_product_fourier, multiply,
                       quantum_disk_weights, random_element, restrict)
    from qdisk.nullity import count_null_bidiagonal, count_null_dense

    w = quantum_disk_weights(1.0)
    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}
    problems: list[str] = []

    for k in KS:
        ks = np.arange(k + 1)
        a = random_element(rng, k, -6, 6)
        b = random_element(rng, k, -6, 6, k_support=k // 2)
        timed = {
            "weights.eval": lambda: (w.a_at(ks), w.b_at(ks)),
            "ncops.apply_D": lambda: apply_D(a, w),
            "parametrix.apply_Q": lambda: apply_Q(b, w),
            "element.multiply": lambda: multiply(a, b),
            "element.restrict": lambda: restrict(a),
            "hilbert.inner_product_fourier": lambda: inner_product_fourier(a, b, w),
        }
        for name, fn in timed.items():
            metrics[f"ladder.{name}.K{k}_s"], _ = median_seconds(fn)
        diag, upper = recursion_bands(w, k)
        metrics[f"ladder.nullity.count_null_bidiagonal.K{k}_s"], _ = median_seconds(
            lambda: count_null_bidiagonal(diag, upper, k, k + 1, k))

    agree = 0
    for k in DENSE_KS:
        dense = recursion_dense(w, k, tail_row=True)
        metrics[f"ladder.nullity.count_null_dense.K{k}_s"], count = median_seconds(
            lambda: count_null_dense(dense, k))
        constrained = count.nullity
        if constrained != 0:
            problems.append(f"K={k}: tail-constrained system has nullity "
                            f"{constrained}, expected 0")
        diag, upper = recursion_bands(w, k)
        pure = recursion_dense(w, k, tail_row=False)
        routes = (count_null_dense(pure, k).nullity,
                  count_null_bidiagonal(diag, upper, k, k + 1, k).nullity)
        if routes == (1, 1):
            agree += 1
        else:
            problems.append(f"K={k}: dense and bidiagonal nullities {routes}, "
                            f"expected (1, 1)")
    metrics["ladder.nullity.routes_agree"] = agree
    return {"metrics": metrics, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print(json.dumps(run(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
