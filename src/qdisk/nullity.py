"""Numerical null-space counting with an auditable threshold and gap rule.

Singular values below tau = sigma_max * 1e-6 / scale_dim count as zero;
any singular value inside the forbidden band [tau, gap * tau) makes the
count unreliable and raises IllConditionedError.  Rows are normalized to
unit length first (rank-preserving equilibration), so sigma_max is O(1)
and the rule is scale-free.  A caller that hands in a transpose gets its
columns equilibrated instead: the count is the same, sigma_max and tau
are those of the column-scaled system (the flat disk's a < 0 systems).

Two routes:

* bidiagonal (production): an upper-bidiagonal system B, optionally
  bordered by one dense row w.  Singular values of B are the eigenvalues of
  its interleaved (Golub-Kahan) zero-diagonal tridiagonal T.  A threshold
  query is one pair of Sturm counts on T, at -t and t, in O(size) with
  absolute accuracy eps * sigma_max: the bisection tolerance is set wider
  than (-t, t), so LAPACK stebz returns the count without refining any
  eigenvalue.  The counts stay on T because squaring would lose the small
  singular values.  sigma_max^2 is the top eigenvalue of the Gram
  tridiagonal B B^T, half the size of T; only the top is read from it.
  The border changes the inertia of H - tI, H the Golub-Kahan matrix of the
  bordered system, by the sign of the Schur complement
  s(t) = -t - w^T (T - tI)^{-1} w (Haynsworth), one banded solve per query;
  sigma_max is the root of s above lambda_max(T).  Dot products with w run
  over its support only.
* dense: scipy svdvals on the full matrix, O(K^3) — the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded, svdvals

from .report import IllConditionedError

__all__ = ["NullCount", "count_null_dense", "count_null_bidiagonal"]

THRESHOLD_SCALE = 1e-6
GAP_RATIO = 100.0


@dataclass(frozen=True)
class NullCount:
    nullity: int
    sigma_max: float
    threshold: float
    n_below: int
    structural: int  # columns minus rows, when positive


def _check_band(sigmas_in_band: int, threshold: float) -> None:
    if sigmas_in_band:
        raise IllConditionedError(
            f"{sigmas_in_band} singular value(s) inside the forbidden band "
            f"[{threshold:.3e}, {GAP_RATIO * threshold:.3e}); "
            f"increase the truncation")


def count_null_dense(matrix: np.ndarray, scale_dim: int) -> NullCount:
    """Null count of a dense (real or complex) rows x cols matrix."""
    rows, cols = matrix.shape
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    sigmas = svdvals(matrix / norms[:, None])
    sigma_max = float(sigmas[0]) if len(sigmas) else 0.0
    threshold = sigma_max * THRESHOLD_SCALE / scale_dim
    below = int(np.sum(sigmas < threshold))
    in_band = int(np.sum((sigmas >= threshold) & (sigmas < GAP_RATIO * threshold)))
    _check_band(in_band, threshold)
    structural = max(cols - rows, 0)
    return NullCount(below + structural, sigma_max, threshold, below, structural)


def _interleaved_offdiagonal(diag: np.ndarray, upper: np.ndarray,
                             rows: int, cols: int) -> np.ndarray:
    """Off-diagonal of the Golub-Kahan tridiagonal of an upper-bidiagonal
    rows x cols matrix with entries A[j,j] = diag[j], A[j,j+1] = upper[j]."""
    size = rows + cols
    off = np.zeros(size - 1)
    off[0: 2 * len(diag): 2] = diag
    off[1: 1 + 2 * len(upper): 2] = upper
    return off


def _gram_top(diag: np.ndarray, upper: np.ndarray) -> float:
    """sigma_max of the upper-bidiagonal matrix B whose row j holds diag[j]
    and upper[j] (zero past its end): the square root of lambda_max of the
    rows x rows tridiagonal B B^T, diagonal diag^2 + upper^2 and
    off-diagonal upper[j] * diag[j+1]."""
    rows = len(diag)
    upper = np.r_[upper, np.zeros(rows - len(upper))]
    top = eigvalsh_tridiagonal(diag * diag + upper * upper,
                               upper[:-1] * diag[1:], select="i",
                               select_range=(rows - 1, rows - 1))
    return float(np.sqrt(top[0]))


def _count_within(off: np.ndarray, t: float) -> int:
    """Eigenvalues in (-t, t] of the zero-diagonal tridiagonal with
    off-diagonal ``off``.  A bisection tolerance wider than the interval
    makes stebz return after the two endpoint Sturm counts."""
    return len(eigvalsh_tridiagonal(np.zeros(len(off) + 1), off, select="v",
                                    select_range=(-t, t), tol=4.0 * t))


def _shifted_solve(bands: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """(T - tI)^{-1} rhs for the zero-diagonal tridiagonal T held in ``bands``."""
    bands[1] = -t
    try:
        return solve_banded((1, 1), bands, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"shifted Golub-Kahan matrix is singular at t={t:.3e}") from exc


def _bordered_top(bands: np.ndarray, w: np.ndarray,
                  support: tuple[np.ndarray, np.ndarray], top: float) -> float:
    """Top eigenvalue of [[T, w], [w^T, 0]], ``top`` = lambda_max(T) and
    ``support`` = (indices, values) the nonzero entries of w: the root
    above ``top`` of s(x), which is convex and decreasing there, so Newton
    steps from its left climb to it monotonically.  They start at the Ritz
    value on span{(y, 0), e_border}, y one inverse-iteration step towards
    T's top eigenvector, which cannot exceed the root; s <= 0 there already
    puts the root between ``top`` and the start.  y^T y is a ufunc sum, not
    a BLAS dot: unpinned BLAS threads a long dot product at a cost above
    that of the whole banded solve."""
    idx, vals = support
    x = top * (1.0 + 1e-13)
    y = _shifted_solve(bands, w, x)
    wy, yy = vals @ y[idx], np.sum(y * y)
    rho = x + wy / yy  # Rayleigh quotient y^T T y / y^T y
    x = max(x, 0.5 * (rho + np.sqrt(rho * rho + 4.0 * wy * wy / yy)))
    for _ in range(100):
        y = _shifted_solve(bands, w, x)
        s = -x - vals @ y[idx]
        if s <= 0.0:
            break
        step = s / (1.0 + np.sum(y * y))
        x += step
        if step <= 1e-16 * x:
            break
    return float(x)


def count_null_bidiagonal(diag: np.ndarray, upper: np.ndarray, rows: int,
                          cols: int, scale_dim: int,
                          unknowns: int | None = None,
                          border: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> NullCount:
    """Null count of an upper-bidiagonal rows x cols matrix B (cols in
    {rows, rows+1}) via Sturm counts on the interleaved tridiagonal T.

    Eigenvalues of T come in ±sigma pairs plus |rows - cols| structural
    zeros, so the count of eigenvalues in (-t, t) is
    2 * #{sigma < t} + |rows - cols|.  Each threshold query is count-only
    (two Sturm counts on T); sigma_max is read from the Gram tridiagonal
    B B^T, half the size of T.

    ``unknowns`` is the column count of the system whose null space is
    wanted; pass the original one when the matrix handed in is a transpose
    (singular values agree, the structural nullity does not).

    ``border = (indices, values)`` appends one dense row with those entries
    on the column (unknowns') side; the count in (-t, t) becomes
    count_T + 1 - 2 [s(t) > 0], s the Schur complement of the module notes.
    """
    if cols not in (rows, rows + 1):
        raise ValueError("bidiagonal route expects cols in {rows, rows+1}")
    if len(diag) != min(rows, cols) or len(upper) != min(rows, cols - 1):
        raise ValueError("inconsistent bidiagonal band lengths")
    if unknowns is None:
        unknowns = cols
    scale = np.hypot(diag, np.concatenate([upper, np.zeros(len(diag) - len(upper))]))
    scale[scale == 0.0] = 1.0
    diag = diag / scale
    upper = upper / scale[: len(upper)]

    off = _interleaved_offdiagonal(diag, upper, rows, cols)
    size = rows + cols
    sigma_max = _gram_top(diag, upper)

    def _count(t: float) -> int:
        count = _count_within(off, t)
        if border is None:
            return count
        s = -t - vals @ _shifted_solve(bands, w, t)[idx]
        return count + (1 if s < 0.0 else -1)

    if border is not None:
        idx = 2 * np.asarray(border[0])
        vals = border[1] / np.linalg.norm(border[1])
        w = np.zeros(size)
        w[idx] = vals
        bands = np.array([np.r_[0.0, off], np.zeros(size), np.r_[off, 0.0]])
        sigma_max = _bordered_top(bands, w, (idx, vals), sigma_max)
        rows += 1

    threshold = sigma_max * THRESHOLD_SCALE / scale_dim
    structural = abs(rows - cols)
    n_t = _count(threshold)
    n_band = _count(GAP_RATIO * threshold)
    _check_band((n_band - n_t) // 2, threshold)
    if (n_t - structural) % 2:
        raise IllConditionedError(
            "eigenvalue count parity violated near the null threshold")
    below = (n_t - structural) // 2
    extra = unknowns - min(rows, cols)
    return NullCount(below + extra, sigma_max, threshold, below, extra)
