"""Reference kernels: fixed work of the same kind as a workload, outside qdisk.

On a shared 2-vCPU Intel Xeon host, the speed of one vCPU drifts by up to
2x over seconds to minutes.  The drift differs by kind of
work: interpreter-bound code (the suites) swings far more than LAPACK
calls (the index sweeps).  A workload's wall time alone therefore cannot
resolve a 25% change from one set of runs to the next.

So worker.py times one reference kernel before every operation and after
the last one, in the same process, and run.py divides each round's CLI
time by the mean of the reference times taken around it.  The kernel of a
workload does the same kind of work as its batch (interpreter loops over
small numpy arrays, a dense SVD, tridiagonal Sturm counts), calls nothing
in qdisk and never changes, so a change to qdisk moves the ratio exactly
as it moves the CLI time, while host drift moves both parts alike.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, svdvals

_rng = np.random.default_rng(20090101)
_VEC = _rng.standard_normal(512)
_DENSE = _rng.standard_normal((514, 513))
_OFF = _rng.uniform(0.5, 1.5, 32767)
_MAIN = np.zeros(32768)


def interpreter() -> float:
    """Python loops, a dict and calls into numpy on 512-element arrays,
    the mix the parametrix and integration-by-parts checks spend their
    time in."""
    total = 0.0
    for _ in range(40):
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(2000):
            table[i & 63] = acc
            acc += (i * 0.5) % 3.0
        w = _VEC.copy()
        for _ in range(150):
            w = np.cumsum(w) * 1e-3
            w = w[::-1] + _VEC
            if not np.all(np.isfinite(w)):
                raise FloatingPointError("reference vector overflowed")
            total += float(np.dot(w, _VEC))
    return total + acc


def dense_svd() -> float:
    """Singular values of a fixed 514 x 513 matrix, three times: the shape
    and routine of the dense null count at K = 512."""
    return float(sum(svdvals(_DENSE)[-1] for _ in range(3)))


def sturm() -> float:
    """Largest eigenvalue and the eigenvalues in (-1e-6, 1e-6) of a fixed
    32768-row zero-diagonal tridiagonal: the Sturm-count calls of the
    bidiagonal null count at grid 16384."""
    top = eigvalsh_tridiagonal(_MAIN, _OFF, select="i", select_range=(32767, 32767))
    near = eigvalsh_tridiagonal(_MAIN, _OFF, select="v", select_range=(-1e-6, 1e-6))
    return float(top[0]) + len(near)
