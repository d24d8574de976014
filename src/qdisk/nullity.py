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
  its interleaved (Golub-Kahan) zero-diagonal tridiagonal T, ±sigma pairs
  plus exact zeros.  By that symmetry a threshold query, the count in
  [-t, t], is 2 N(t) - size from one Sturm count N(t) on T at t, in
  O(size) with absolute accuracy eps * sigma_max: one bisection step of
  LAPACK's Sturm kernel DLAEBZ (IJOB = 2, bound at import from scipy's
  Cython LAPACK capsule) on [0, 2t], whose midpoint is t; IJOB = 1 would
  count at both ends of [-t, t].  Its inputs are dstebz's, E2 = off^2 with
  squares below the underflow threshold zeroed (splits) and PIVMIN = tiny
  * max(1, max E2): a pivot at or below PIVMIN counts and becomes at most
  -PIVMIN, so an eigenvalue at ±t to the last bit counts, which the
  forbidden band keeps away from every accepted count.  dstebz itself adds
  passes over T that a count does not need; dlarrc lacks the pivot guard
  and miscounts after a zero pivot at a split (0/0).  The guard keeps the
  counts monotone in the shift in IEEE arithmetic (Demmel, Dhillon & Ren,
  On the correctness of some bisection-like parallel eigenvalue algorithms
  in floating point arithmetic, 1995).  The counts stay on T because
  squaring would lose the small singular values.  The border moves the
  count of H, the (± symmetric) Golub-Kahan matrix of the bordered system,
  by +1 if the Schur complement s(t) = -t - w^T (T - tI)^{-1} w is
  negative, else by -1 (Haynsworth): one tridiagonal solve per query
  (LAPACK dgtsv, Gaussian elimination with partial pivoting), dotted with w
  over its support only.  A zero border stays unscaled: s = -t.  The gap query,
  at GAP_RATIO * tau, comes first: the structural zeros are exact
  eigenvalues of any zero-diagonal T and the counts are monotone, so
  structural <= count(tau) <= count(GAP_RATIO * tau): if it finds only
  those zeros, tau is not asked.  Systems of one shape count as a stack:
  row j of one buffer holds T_j's off-diagonal, then a zero, so the flat
  buffer is the stack's block-diagonal T.  After a zero E2 the Sturm step
  D(J) - E2(J-1)/q - t is exactly -t, a fresh block's first step, and
  each PIVMIN, the stack's and every block's, is tiny (a row divided by
  its hypot has entries of modulus <= 1, so E2 <= 1): one gap query counts
  the exact sum of the blocks' counts.  Each is at least its structural
  zeros, as the computed count is exact for a T with relatively perturbed
  E2 (Demmel et al.), a Golub-Kahan matrix of B's shape, with pivots moved
  by PIVMIN, far inside GAP_RATIO * tau.  So a total equal to the sum of
  the structural zeros puts every block there: the guard's lower half
  applies to that total, not per block.  Else each T_j is asked alone;
  borders and tau stay per system.  aps.STACK_ENTRIES bounds a stack.
* dense: scipy svdvals on the full matrix, O(K^3) — a test oracle, kept
  here only because the benchmark ladder imports it from this module.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, svdvals
from scipy.linalg.lapack import dgtsv

from .report import IllConditionedError

__all__ = ["NullCount", "count_null_dense", "count_null_bidiagonal",
           "count_null_stack"]

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


# DLAEBZ(IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E,
# E2, NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO), by reference: i int, d double
_DLAEBZ_ARGS = "iiiiiiddddddiddiidii"


def _bind(capsule):
    """The C function of a scipy Cython LAPACK capsule as a ctypes function
    of 20 pointers, once its signature string is checked to be DLAEBZ's: a
    mismatch raises ImportError here instead of crashing a later call."""
    api, obj = ctypes.pythonapi, ctypes.py_object
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))(capsule)
    args = name.decode().removeprefix("void (").removesuffix(")").split(", ")
    kinds = "".join("i" if arg == "int *" else
                    "d" if arg.endswith(("_d *", "double *")) else "?" for arg in args)
    if kinds != _DLAEBZ_ARGS:
        raise ImportError(f"scipy's dlaebz has an unexpected signature: {name!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)(address)


_dlaebz = _bind(cython_lapack.__pyx_capi__["dlaebz"])
_TINY = np.finfo(float).tiny


def _sturm_inputs(off: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(D, E2, PIVMIN) of the zero-diagonal tridiagonal with off-diagonal
    ``off``, by dstebz's rules (module notes), for ``_count_within``."""
    e2 = off * off
    e2[e2 < _TINY] = 0.0
    return np.zeros(len(off) + 1), e2, _TINY * max(1.0, e2.max(initial=0.0))


def _count_within(d: np.ndarray, e2: np.ndarray, pivmin: float, t: float) -> int:
    """Eigenvalues in [-t, t], t > 0, of the zero-diagonal tridiagonal that
    ``_sturm_inputs`` describes, as 2 N(t) - n (module notes), by one IJOB = 2
    step on AB = [0, 2t], NAB = (0, n), which counts at the midpoint t.  The
    first pivot, -t, counts, so the step keeps [0, t] as interval 1 and N(t)
    as NAB(1,2).  INFO 1 or 2 counts the intervals one step leaves
    unconverged; any other nonzero INFO is a bug in this call.  Every
    pointer gets a valid buffer, read or not; E, unread, shares E2's."""
    if not (d.dtype == e2.dtype == np.float64 and d.flags.c_contiguous
            and e2.flags.c_contiguous and len(e2) == len(d) - 1):
        raise ValueError("dlaebz needs contiguous float64 D and E2, len(E2) = N - 1")
    # ints: IJOB = 2, NITMAX = 1, N, MMAX = 2, MINP = 1, NBMIN = 0, NVAL(2),
    # MOUT, NAB(2, 2) = (0, -, n, -) by columns, IWORK(2), INFO; reals: ABSTOL,
    # RELTOL, PIVMIN, AB(2, 2) = (0, -, 2t, -), C(2), WORK(2): one pass, at t
    ints = (ctypes.c_int * 16)(2, 1, len(d), 2, 1, 0, 0, 0, 0, 0, 0, len(d))
    reals = (ctypes.c_double * 11)(0.0, 0.0, pivmin, 0.0, 0.0, 2.0 * t)
    i, r, e = ctypes.addressof(ints), ctypes.addressof(reals), e2.ctypes.data
    _dlaebz(i, i + 4, i + 8, i + 12, i + 16, i + 20, r, r + 8, r + 16,
            d.ctypes.data, e, e, i + 24, r + 24, r + 56, i + 32, i + 36,
            r + 72, i + 52, i + 60)
    if not 0 <= ints[15] <= 2:
        raise RuntimeError(f"dlaebz rejected argument {-ints[15]}" if ints[15] < 0
                           else f"dlaebz overflowed its intervals, INFO = {ints[15]}")
    return 2 * ints[11] - len(d)


def _shifted_solve(off: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """(T - tI)^{-1} rhs, T zero-diagonal with off-diagonal ``off``, by dgtsv:
    INFO > 0 is an exactly singular T - tI, INFO < 0 a bug in this call."""
    *_, x, info = dgtsv(off, np.full(len(rhs), -t), off, rhs)
    if info > 0:
        raise IllConditionedError(
            f"shifted Golub-Kahan matrix is singular at t={t:.3e}")
    if info < 0:
        raise RuntimeError(f"dgtsv rejected argument {-info}")
    return x


def count_null_bidiagonal(diag: np.ndarray, upper: np.ndarray, rows: int,
                          cols: int, scale_dim: int,
                          unknowns: int | None = None,
                          border: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> NullCount:
    """Null count of an upper-bidiagonal rows x cols matrix B, bordered by
    ``border`` if it is given: ``count_null_stack`` of the stack of one."""
    return count_null_stack(np.asarray(diag)[None], np.asarray(upper)[None], rows,
                            cols, scale_dim, [(0, border is not None)], unknowns,
                            border)[0]


def count_null_stack(diag: np.ndarray, upper: np.ndarray, rows: int, cols: int,
                     scale_dim: int, requests: list[tuple[int, bool]],
                     unknowns: int | None = None,
                     border: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> list[NullCount]:
    """Null counts of a stack of upper-bidiagonal rows x cols matrices B_j
    (cols in {rows, rows+1}), B_j's bands in row j of ``diag`` and
    ``upper``: one ``NullCount`` per request (j, bordered), in order.

    The count in [-t, t] of T_j, the Golub-Kahan tridiagonal of B_j, is
    2 * #{sigma <= t} + |rows - cols|.  ``border = (indices, values)`` is a
    dense row on the column side, appended to B_j when ``bordered``; the
    count becomes count_T + 1 - 2 [s(t) >= 0], s the Schur complement.
    Threshold, stacked gap pass, tau pass and band check: module notes.  A
    NaN or inf in the bands or border raises ValueError before any query.
    ``unknowns`` is the column count of the systems whose null space is
    wanted; pass the original for transposes (same singular values).
    """
    if cols not in (rows, rows + 1):
        raise ValueError("bidiagonal route expects cols in {rows, rows+1}")
    n_d, n_u = min(rows, cols), min(rows, cols - 1)
    if diag.shape[1:] != (n_d,) or upper.shape != (len(diag), n_u):
        raise ValueError("inconsistent bidiagonal band lengths")
    if border is not None and not np.isfinite(border[1]).all():
        raise ValueError("non-finite entries in border")
    unknowns = cols if unknowns is None else unknowns
    size, systems = rows + cols, len(diag)
    scale = np.abs(diag)  # hypot(d, 0) in the last column of a square system
    np.hypot(diag[:, :n_u], upper, out=scale[:, :n_u])
    if not np.isfinite(scale).all():  # as is any NaN or inf in diag or upper
        for name, values in (("diag", diag), ("upper", upper)):
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite entries in {name}")
    scale[scale == 0.0] = 1.0
    # row j: the off-diagonal of T_j, then the zero that joins it to T_{j+1}
    off = np.zeros((systems, size))
    np.divide(diag, scale, out=off[:, 0: 2 * n_d: 2])
    np.divide(upper, scale[:, :n_u], out=off[:, 1: 2 * n_u: 2])
    if border is not None:
        idx = 2 * np.asarray(border[0])
        vals = border[1] / (np.linalg.norm(border[1]) or 1.0)
        w = np.zeros(size)
        w[idx] = vals

    threshold = _threshold(scale_dim)
    gap, floor = GAP_RATIO * threshold, abs(rows - cols)
    total = _count_within(*_sturm_inputs(off.reshape(-1)[:-1]), gap)  # module notes
    at_gap = ([total] if systems == 1 else [floor] * systems if total == floor * systems
              else [_count_within(*_sturm_inputs(row[:-1]), gap) for row in off])
    out = []
    for j, bordered in requests:
        structural = abs(rows + bordered - cols)

        def count(n: int, t: float) -> int:  # n: the count of T_j in [-t, t]
            if bordered:
                s = -t - vals @ _shifted_solve(off[j, :-1], w, t)[idx]
                n += 1 if s < 0.0 else -1
            if n < structural or (n - structural) % 2:
                raise IllConditionedError(
                    f"eigenvalue count {n} at t={t:.3e} is below the "
                    f"{structural} structural zero(s) or has the wrong parity")
            return n

        n_band = count(at_gap[j], gap)
        # structural <= n_t <= n_band (module notes)
        n_t = structural if n_band == structural else count(
            _count_within(*_sturm_inputs(off[j, :-1]), threshold), threshold)
        _check_band((n_band - n_t) // 2, threshold)
        below = (n_t - structural) // 2
        extra = unknowns - min(rows + bordered, cols)
        out.append(NullCount(below + extra, threshold, below, extra))
    return out
