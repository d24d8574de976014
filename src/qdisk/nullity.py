"""Numerical null-space counting with an auditable threshold and gap rule.

Rows are normalized to unit length first (rank-preserving equilibration).
Singular values below tau = THRESHOLD_SCALE * SIGMA_SCALE / scale_dim
count as zero; any singular value inside the forbidden band
[tau, GAP_RATIO * tau) makes the count unreliable and raises
IllConditionedError.  SIGMA_SCALE = sqrt(2) stands in for sigma_max, which
is never computed: every counted system is bidiagonal, plus at most one
border row, and row-equilibrated, so 1 <= sigma_max <= 2 (constant note
below).  Both routes use this one threshold; they differ only in how they
find the singular values below it.  A caller that hands in a transpose
(the flat disk's a < 0 systems) gets its columns equilibrated instead:
the count is the same, and the transpose is bidiagonal too.

Two routes:

* bidiagonal (production): an upper-bidiagonal system B, optionally
  bordered by one dense row w.  Singular values of B are the eigenvalues of
  its interleaved (Golub-Kahan) zero-diagonal tridiagonal T.  A threshold
  query is one pair of Sturm counts on T, at -t and t, in O(size) with
  absolute accuracy eps * sigma_max: LAPACK dstebz is called directly with
  a bisection tolerance wider than (-t, t), so it returns the count
  without refining any eigenvalue.  The counts stay on T because squaring
  would lose the small singular values.  The border changes the inertia of
  H - tI, H the Golub-Kahan matrix of the bordered system, by the sign of
  the Schur complement s(t) = -t - w^T (T - tI)^{-1} w (Haynsworth), one
  banded solve per query.  Dot products with w run over its support only.
  The gap query, at GAP_RATIO * tau, comes first: the structural zeros are
  exact eigenvalues of any zero-diagonal T and Sturm counts are monotone
  in the shift in IEEE arithmetic (Demmel, Dhillon & Ren, On the
  correctness of some bisection-like parallel eigenvalue algorithms in
  floating point arithmetic, 1995), so structural <= count(tau) <=
  count(GAP_RATIO * tau): if it finds only those zeros, tau is not asked.
* dense: scipy svdvals on the full matrix, O(K^3) — a test oracle, kept
  here only because the benchmark ladder imports it from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, svdvals
from scipy.linalg.lapack import dstebz

from .report import IllConditionedError

__all__ = ["NullCount", "count_null_dense", "count_null_bidiagonal"]

THRESHOLD_SCALE = 1e-6
GAP_RATIO = 100.0
# Nominal sigma_max of a row-equilibrated system.  Unit rows give
# sigma_max >= 1; a bidiagonal B has ||B||_inf <= sqrt(2) and ||B||_1 <= 2,
# so sigma_max <= (||B||_1 ||B||_inf)^(1/2) <= 2^(3/4), and a unit border
# row adds at most 1 to sigma_max^2: sigma_max lies in [1, 2] (Golub & Van
# Loan, Matrix Computations, 2.3).  The sweep systems measure sqrt(2).
SIGMA_SCALE = np.sqrt(2.0)


@dataclass(frozen=True)
class NullCount:
    nullity: int
    threshold: float
    n_below: int
    structural: int  # columns minus rows, when positive


def _threshold(scale_dim: int) -> float:
    return THRESHOLD_SCALE * SIGMA_SCALE / scale_dim


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
    threshold = _threshold(scale_dim)
    below = int(np.sum(sigmas < threshold))
    in_band = int(np.sum((sigmas >= threshold) & (sigmas < GAP_RATIO * threshold)))
    _check_band(in_band, threshold)
    structural = max(cols - rows, 0)
    return NullCount(below + structural, threshold, below, structural)


def _interleaved_offdiagonal(diag: np.ndarray, upper: np.ndarray,
                             rows: int, cols: int) -> np.ndarray:
    """Off-diagonal of the Golub-Kahan tridiagonal of an upper-bidiagonal
    rows x cols matrix with entries A[j,j] = diag[j], A[j,j+1] = upper[j]."""
    size = rows + cols
    off = np.zeros(size - 1)
    off[0: 2 * len(diag): 2] = diag
    off[1: 1 + 2 * len(upper): 2] = upper
    return off


def _count_within(zeros: np.ndarray, off: np.ndarray, t: float) -> int:
    """Eigenvalues in (-t, t] of the tridiagonal with diagonal ``zeros``
    (all zero) and off-diagonal ``off``: dstebz with range "V" (1), the
    values in (vl, vu].  A bisection tolerance wider than the interval
    makes it return after the two endpoint Sturm counts.  The caller keeps
    one ``zeros`` for all its queries: a fresh array per query of a long T
    costs page faults on every query."""
    count, _, _, _, info = dstebz(zeros, off, 1, -t, t, 0, 0, 4.0 * t, "E")
    if info > 0:
        raise IllConditionedError(
            f"Sturm count did not converge at t={t:.3e} (dstebz info={info})")
    if info < 0:
        raise RuntimeError(f"dstebz rejected argument {-info}")
    return count


def _shifted_solve(bands: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """(T - tI)^{-1} rhs for the zero-diagonal tridiagonal T held in ``bands``."""
    bands[1] = -t
    try:
        return solve_banded((1, 1), bands, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"shifted Golub-Kahan matrix is singular at t={t:.3e}") from exc


def count_null_bidiagonal(diag: np.ndarray, upper: np.ndarray, rows: int,
                          cols: int, scale_dim: int,
                          unknowns: int | None = None,
                          border: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> NullCount:
    """Null count of an upper-bidiagonal rows x cols matrix B (cols in
    {rows, rows+1}) via Sturm counts on the interleaved tridiagonal T.

    Eigenvalues of T come in ±sigma pairs plus |rows - cols| structural
    zeros, so the count of eigenvalues in (-t, t) is
    2 * #{sigma < t} + |rows - cols|.  The threshold is the fixed one of
    the module notes.  A count is one count-only dstebz query on T at
    GAP_RATIO * tau, plus one at tau only when the first finds more than
    the structural zeros (module notes); no eigenvalue is computed.

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
    zeros = np.zeros(size)

    def _count(t: float) -> int:
        count = _count_within(zeros, off, t)
        if border is not None:
            s = -t - vals @ _shifted_solve(bands, w, t)[idx]
            count += 1 if s < 0.0 else -1
        if count < structural or (count - structural) % 2:
            raise IllConditionedError(
                f"eigenvalue count {count} at t={t:.3e} is below the "
                f"{structural} structural zero(s) or has the wrong parity")
        return count

    if border is not None:
        idx = 2 * np.asarray(border[0])
        vals = border[1] / np.linalg.norm(border[1])
        w = np.zeros(size)
        w[idx] = vals
        bands = np.array([np.r_[0.0, off], np.zeros(size), np.r_[off, 0.0]])
        rows += 1

    threshold = _threshold(scale_dim)
    structural = abs(rows - cols)
    n_band = _count(GAP_RATIO * threshold)
    # structural <= n_t <= n_band (module notes)
    n_t = structural if n_band == structural else _count(threshold)
    _check_band((n_band - n_t) // 2, threshold)
    below = (n_t - structural) // 2
    extra = unknowns - min(rows, cols)
    return NullCount(below + extra, threshold, below, extra)
