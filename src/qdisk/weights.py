"""Weight pairs (A, B) for the shift-algebra calculus and the radial weight F.

A weight pair consists of two arithmetic functions on k = 0, 1, 2, ...:

* ``A(k) > 0`` with summable reciprocals — ``1/A`` is the Hilbert-space weight;
* ``B(k)`` positive, strictly increasing, bounded by 1 — the modulus of the
  weighted shift.

The derivative-like operators built from them behave like the flat d-bar
calculus at the boundary exactly when the normalized difference
``A(k)(B(k+1) - B(k))`` tends to 1 together with ``A(k+1)/A(k) -> 1``
(condition 3 below).  The quantum-disk family

    A(k) = scale * (1 + k*mu) * (1 + (k+1)*mu) / mu
    B(k) = sqrt((k+1)*mu / (1 + (k+1)*mu))

satisfies all three conditions for scale = 2, while scale = 1 makes ``1/A``
exactly the eigenvalue sequence of the commutator ``[z̄, z]`` of the weighted
shift z = U·B(K) (its normalized difference then converges to 1/2 instead).

Convention used throughout: ``B(-1) = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .report import CheckResult, Report

__all__ = [
    "WeightPair",
    "ClassicalWeight",
    "quantum_disk_weights",
    "table_weights",
    "custom_weights",
    "weights_from_json",
    "constant_classical_weight",
    "check_conditions",
    "limit_diagnostics",
]

# Probe range used to validate monotonicity/positivity at construction.
_VALIDATION_PROBE = 256


@dataclass(frozen=True)
class WeightPair:
    """Immutable pair of weight functions with the B(-1) = 0 convention.

    ``a_fn``/``b_fn`` must accept numpy integer arrays (k >= 0) and return
    float arrays.  ``k_table_max`` is the last evaluable k for table-backed
    pairs (None means unbounded).  ``memo`` holds the weight table and rows
    of one truncation, filled by ``ncops`` (see its module notes).
    """

    a_fn: Callable[[np.ndarray], np.ndarray]
    b_fn: Callable[[np.ndarray], np.ndarray]
    descriptor: dict = field(default_factory=lambda: {"kind": "custom"})
    k_table_max: int | None = None
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _check_range(self, k: np.ndarray) -> None:
        if self.k_table_max is not None and np.any(k > self.k_table_max):
            raise ValueError(
                f"weight table ends at k={self.k_table_max}; got k={int(np.max(k))}"
            )

    def a_at(self, k) -> np.ndarray | float:
        """A(k) for k >= 0 (scalar or array)."""
        arr = np.asarray(k)
        if np.any(arr < 0):
            raise ValueError("A(k) is only defined for k >= 0")
        self._check_range(arr)
        out = self.a_fn(arr)
        return float(out) if np.isscalar(k) or arr.ndim == 0 else np.asarray(out, dtype=float)

    def b_at(self, k) -> np.ndarray | float:
        """B(k) for k >= -1, with B(-1) = 0."""
        arr = np.asarray(k)
        if np.any(arr < -1):
            raise ValueError("B(k) is only defined for k >= -1")
        self._check_range(arr)
        out = np.zeros(arr.shape, dtype=float)
        mask = arr >= 0
        if np.any(mask):
            out[mask] = self.b_fn(arr[mask])
        return float(out) if np.isscalar(k) or arr.ndim == 0 else out

    def inv_a_partial_sum(self, k_max: int) -> float:
        """Sum of 1/A(k) over k = 0..k_max."""
        return float(np.sum(1.0 / self.a_at(np.arange(k_max + 1))))

    def inv_a_tail(self, k_max: int) -> float:
        """Upper bound for the tail sum of 1/A(k) over k > k_max.

        Closed form for the quantum-disk family (the telescoping tail),
        zero for tables (reciprocals are zero-extended beyond the table),
        and a converged numeric sum for custom closures.
        """
        kind = self.descriptor.get("kind")
        if kind == "quantum_disk":
            mu = self.descriptor["mu"]
            scale = self.descriptor["scale"]
            return 1.0 / (scale * (1.0 + (k_max + 1) * mu))
        if kind == "table":
            return 0.0
        total = 0.0
        lo = k_max + 1
        for _ in range(64):
            ks = np.arange(lo, lo + 32768)
            inc = float(np.sum(1.0 / self.a_fn(ks)))
            total += inc
            lo += 32768
            if inc < 1e-17:
                return total
        raise ValueError("tail of 1/A(k) did not converge numerically; "
                         "supply a weight kind with a closed-form tail")

    def log_b_cumsum(self, count: int) -> np.ndarray:
        """L with L[k] = sum_{i<k} log B(i) for k = 0..count (length count+1).

        Products of consecutive B values underflow in naive form once many
        factors < 1 accumulate; every B-product ratio in the package is
        evaluated as exp of differences of this array.
        """
        logs = np.log(self.b_at(np.arange(count)))
        out = np.zeros(count + 1)
        np.cumsum(logs, out=out[1:])
        return out

    def table(self, k_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, L) for one operator call, each evaluated once: A[k] = A(k)
        for k = 0..k_hi, B[k + 1] = B(k) for k = -1..k_hi (so B[0] = 0) and
        L = log_b_cumsum(k_hi + 1)."""
        ks = np.arange(-1, k_hi + 1)
        return self.a_at(ks[1:]), self.b_at(ks), self.log_b_cumsum(k_hi + 1)

    def to_json_dict(self) -> dict:
        return dict(self.descriptor)


def _validate_b(w: WeightPair, k_hi: int) -> None:
    ks = np.arange(k_hi + 1)
    b = w.b_at(ks)
    a = w.a_at(ks)
    if not np.all(a > 0):
        raise ValueError("A(k) must be positive")
    if not np.all(b > 0):
        raise ValueError("B(k) must be positive")
    if not np.all(np.diff(b) > 0):
        raise ValueError("B(k) must be strictly increasing")
    if not np.all(b < 1):
        raise ValueError("B(k) must stay below 1")


def quantum_disk_weights(mu: float, scale: float = 2.0) -> WeightPair:
    """Weight pair of the quantum unit disk with deformation mu in (0, 1].

    scale = 1 makes 1/A exactly the commutator eigenvalue sequence
    mu/((1+k mu)(1+(k+1) mu)); scale = 2 rescales A so the normalized
    difference A(k)(B(k+1)-B(k)) converges to 1.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")

    def a_fn(k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return scale * (1.0 + k * mu) * (1.0 + (k + 1.0) * mu) / mu

    def b_fn(k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        t = (k + 1.0) * mu
        return np.sqrt(t / (1.0 + t))

    return WeightPair(a_fn, b_fn,
                      descriptor={"kind": "quantum_disk", "mu": mu, "scale": scale})


def table_weights(a_values: Sequence[float], b_values: Sequence[float],
                  validate: bool = True) -> WeightPair:
    """Weight pair backed by finite tables; evaluation beyond them raises.

    validate=False admits tables violating the B constraints, for use with
    check_conditions in diagnostic mode only.
    """
    a_arr = np.asarray(a_values, dtype=float)
    b_arr = np.asarray(b_values, dtype=float)
    if a_arr.ndim != 1 or b_arr.ndim != 1 or len(a_arr) != len(b_arr):
        raise ValueError("A and B tables must be 1-d and of equal length")
    k_hi = len(a_arr) - 1

    w = WeightPair(lambda k: a_arr[np.asarray(k, dtype=int)],
                   lambda k: b_arr[np.asarray(k, dtype=int)],
                   descriptor={"kind": "table",
                               "A": a_arr.tolist(), "B": b_arr.tolist()},
                   k_table_max=k_hi)
    if validate:
        _validate_b(w, k_hi)
    return w


def custom_weights(a_fn: Callable, b_fn: Callable, validate: bool = True) -> WeightPair:
    """Weight pair from vectorized closures, probed for the B constraints."""
    w = WeightPair(a_fn, b_fn, descriptor={"kind": "custom"})
    if validate:
        _validate_b(w, _VALIDATION_PROBE)
    return w


def weights_from_json(data: dict) -> WeightPair:
    """Rebuild a weight pair from its serialized descriptor."""
    kind = data.get("kind")
    if kind == "quantum_disk":
        return quantum_disk_weights(data["mu"], data["scale"])
    if kind == "table":
        return table_weights(data["A"], data["B"])
    raise ValueError(f"cannot deserialize weight descriptor of kind {kind!r}")


@dataclass(frozen=True)
class ClassicalWeight:
    """Radial coefficient F(rho) > 0 on [0, 1] with F(1) = 2.

    The value 2 at the boundary is what makes the flat-disk boundary
    restriction come out as a clean angular derivative.
    """

    f_fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        rho = np.linspace(0.0, 1.0, 257)
        vals = np.asarray(self.f_fn(rho), dtype=float)
        if not np.all(vals > 0):
            raise ValueError("F(rho) must be positive on [0, 1]")
        if abs(vals[-1] - 2.0) > 1e-12:
            raise ValueError(f"F(1) must equal 2, got {vals[-1]}")

    def at(self, rho) -> np.ndarray | float:
        out = self.f_fn(np.asarray(rho, dtype=float))
        return float(out) if np.isscalar(rho) else np.asarray(out, dtype=float)


def constant_classical_weight() -> ClassicalWeight:
    """The canonical choice F(rho) = 2."""
    return ClassicalWeight(lambda rho: np.full_like(np.asarray(rho, dtype=float), 2.0))


def _geometric_samples(k_max: int, per_decade: int = 8) -> np.ndarray:
    n = max(2, int(per_decade * math.log10(max(k_max, 2))) + 1)
    ks = np.unique(np.geomspace(1, k_max, n).astype(int))
    return ks


def check_conditions(w: WeightPair, k_max: int, tol: float = 1e-3,
                     cond3_tol: float = 0.05) -> Report:
    """Diagnose all three weight conditions over k <= k_max.

    Failures are recorded in the report, never raised; this is the one entry
    point that accepts non-validated pairs.  tol bounds the last-decade
    increment of the partial sums of 1/A (the truncation-level Cauchy check);
    cond3_tol bounds the distance of A(k)(B(k+1)-B(k)) from 1 at the largest
    sampled k.
    """
    if k_max < 16:
        raise ValueError("k_max must be at least 16")
    report = Report("weight-conditions")
    ks = np.arange(k_max + 1)
    a = w.a_at(ks)
    b = w.b_at(ks)
    b_next = w.b_at(ks + 1)

    positive = bool(np.all(a > 0) and np.all(b > 0))
    increasing = bool(np.all(b_next > b))
    below_one = bool(np.all(b < 1) and np.all(b_next < 1))

    inv_a = 1.0 / a
    partial = float(np.sum(inv_a))
    decade = float(np.sum(inv_a[k_max // 10 + 1:]))
    cauchy_ok = decade < tol
    tail_bound = None
    if w.descriptor.get("kind") == "quantum_disk":
        tail_bound = w.inv_a_tail(k_max)

    report.add(CheckResult(
        check="positivity",
        claim="weights-positive",
        params={"k_max": k_max},
        observed={"A_positive": np.all(a > 0), "B_positive": np.all(b > 0)},
        expected={"A_positive": True, "B_positive": True},
        passed=positive,
    ))
    report.add(CheckResult(
        check="inverse-weight-summable",
        claim="hilbert-weight-summable",
        params={"k_max": k_max, "tol": tol},
        observed={"partial_sum": partial, "last_decade_increment": decade,
                  "tail_bound": tail_bound},
        expected={"last_decade_increment_below": tol},
        passed=positive and cauchy_ok,
    ))
    report.add(CheckResult(
        check="shift-monotone-bounded",
        claim="shift-modulus-increasing-below-one",
        params={"k_max": k_max},
        observed={"strictly_increasing": increasing, "below_one": below_one},
        expected={"strictly_increasing": True, "below_one": True},
        passed=increasing and below_one and positive,
    ))

    samples = _geometric_samples(k_max)
    norm_diff = w.a_at(samples) * (w.b_at(samples + 1) - w.b_at(samples))
    a_ratio = w.a_at(samples + 1) / w.a_at(samples)
    dist = abs(float(norm_diff[-1]) - 1.0)
    ratio_dist = abs(float(a_ratio[-1]) - 1.0)
    report.add(CheckResult(
        check="normalized-difference-limit",
        claim="boundary-normalization",
        params={"k_max": k_max, "cond3_tol": cond3_tol},
        observed={"k": samples, "A_times_B_increment": norm_diff,
                  "A_ratio": a_ratio, "distance_to_one": dist,
                  "ratio_distance_to_one": ratio_dist},
        expected={"limit": 1.0, "distance_below": cond3_tol},
        passed=dist < cond3_tol and ratio_dist < cond3_tol,
    ))
    return report


def limit_diagnostics(w: WeightPair, n: int, k_probe: Sequence[int]) -> Report:
    """Evaluate the four telescoped weight differences at the probe points.

    The sequences

        A(k+1)(B(k) - B(k+n)),   A(k)(B(k) - B(k+n)),
        A(k+n+1)(B(k+n) - B(k)), A(k+n)(B(k+n) - B(k))

    converge to -n, -n, +n, +n respectively (each is a sum of n normalized
    differences, up to an A-ratio that tends to 1).  Errors are measured
    against those limits.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    probes = np.asarray(list(k_probe), dtype=int)
    if np.any(probes < 0):
        raise ValueError("probe points must be non-negative")

    bk = w.b_at(probes)
    bkn = w.b_at(probes + n)
    seqs = {
        "A(k+1)(B(k)-B(k+n))": w.a_at(probes + 1) * (bk - bkn),
        "A(k)(B(k)-B(k+n))": w.a_at(probes) * (bk - bkn),
        "A(k+n+1)(B(k+n)-B(k))": w.a_at(probes + n + 1) * (bkn - bk),
        "A(k+n)(B(k+n)-B(k))": w.a_at(probes + n) * (bkn - bk),
    }
    targets = [-float(n), -float(n), float(n), float(n)]

    report = Report("telescoped-limits")
    for (name, values), target in zip(seqs.items(), targets):
        errors = np.abs(values - target)
        report.add(CheckResult(
            check=name,
            claim="telescoped-difference-limit",
            params={"n": n, "k_probe": probes},
            observed={"values": values, "errors": errors},
            expected={"target": target},
            passed=bool(n == 0 or np.all(np.diff(errors) <= 0) or errors[-1] < 0.5),
        ))
    return report
