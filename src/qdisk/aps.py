"""Spectral boundary conditions, kernel/cokernel counting and the index.

P_N projects boundary functions onto span(e^{imφ})_{m <= N}.  The
boundary-conditioned operator D_{P_N} acts on elements whose restriction
lies in Ran P_N; its adjoint is D̄ on the domain where e^{-iφ} r(·) lies in
Ker P_N, i.e. modes m <= N+1 of the restriction vanish.  Counting modes:

    dim ker   = #{m : 0 <= m <= N}        = max(N+1, 0)
    dim coker = #{m : N+2 <= m <= 0}      = max(-(N+1), 0)
    index     = N + 1

``index_numeric`` reproduces the counts with no reference to those formulas:
per mode it assembles the finite two-term recursion of the operator
(k <= k_max) plus, when the mode is constrained, a boundary row pinning the
tail-window mean to zero, and counts numerical null directions by singular
values under the threshold/gap rule, in O(k_max) per mode: the recursion
is bidiagonal and the boundary row a border (``nullity.count_null_bidiagonal``;
the tests check it against the SVD of ``_mode_matrix``).  Kernel and
cokernel never overlap and the increment in N is one mode at a time, so the
sweep is a discrete spectral-flow picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .element import BoundaryFunction, ToeplitzElement
from .nullity import GAP_RATIO, THRESHOLD_SCALE, count_null_bidiagonal
from .parametrix import apply_Q
from .report import IllConditionedError
from .weights import WeightPair

__all__ = [
    "APSProjection",
    "project",
    "IndexCounts",
    "index_analytic",
    "NumericIndex",
    "index_numeric",
    "APSSolution",
    "solve_aps",
]


@dataclass(frozen=True)
class APSProjection:
    """Spectral cutoff: range spanned by boundary modes m <= cutoff."""

    cutoff: int


def project(f: BoundaryFunction, p: APSProjection) -> BoundaryFunction:
    """Zero all boundary modes above the cutoff."""
    return BoundaryFunction({m: c for m, c in f.modes.items()
                             if m <= p.cutoff})


class IndexCounts(NamedTuple):
    dim_ker: int
    dim_coker: int
    index: int


def index_analytic(p: APSProjection) -> IndexCounts:
    """Kernel/cokernel dimensions by mode counting.

    Kernel modes are restrictions e^{imφ} of the holomorphic-like
    generators filtered by m <= cutoff; cokernel modes are the conjugate
    generators surviving the adjoint condition (mode m kept iff
    m >= cutoff+2, m <= 0).
    """
    n = p.cutoff
    dim_ker = len(range(0, n + 1))
    dim_coker = len(range(n + 2, 1))
    return IndexCounts(dim_ker, dim_coker, dim_ker - dim_coker)


def _mode_bands(w: WeightPair, side: str, m: int, k_max: int, window: int,
                constrained: bool):
    """Per-mode system of D (side 'ker') or D̄ (side 'coker') at mode m, as
    the arguments (diag, upper, rows, cols, border) of
    ``count_null_bidiagonal``.

    Rows are the two-term relations for k <= k_max.  When they form a square
    lower-bidiagonal matrix, rows and columns are both reversed, which keeps
    every row (so the row equilibration) and makes it upper bidiagonal.  A
    constrained mode adds the boundary row pinning the tail-window mean,
    entries 1/sqrt(window): the unit row that equilibration makes of it.
    """
    if side not in ("ker", "coker"):
        raise ValueError(f"side must be 'ker' or 'coker', got {side!r}")
    ks = np.arange(k_max + 1)
    n = abs(m)
    sign = 1.0 if side == "ker" else -1.0
    tail = np.arange(k_max - window + 1, k_max + 1)
    if (m >= 0) if side == "ker" else (m <= 0):
        # B(k+n) c(k) - B(k) c(k+1) = 0 (D, m >= 0; sign flipped for D̄)
        diag = sign * w.b_at(ks[:-1] + n)
        upper = -sign * w.b_at(ks[:-1])
        rows = k_max
    else:
        # -B(k+n-1) c(k) + B(k-1) c(k-1) = 0 (D, m < 0; sign flipped for D̄)
        diag = -sign * w.b_at(ks + n - 1)[::-1]
        upper = sign * w.b_at(ks[:-1])[::-1]
        rows = k_max + 1
        tail = k_max - tail
    border = (tail, np.full(window, window ** -0.5)) if constrained else None
    return diag, upper, rows, k_max + 1, border


def _mode_matrix(w: WeightPair, side: str, m: int, k_max: int,
                 window: int, constrained: bool) -> np.ndarray:
    """Dense matrix of ``_mode_bands``, the oracle for the structured count."""
    diag, upper, rows, cols, border = _mode_bands(w, side, m, k_max, window,
                                                  constrained)
    mat = np.zeros((rows + constrained, cols))
    mat[np.arange(len(diag)), np.arange(len(diag))] = diag
    mat[np.arange(len(upper)), np.arange(1, len(upper) + 1)] = upper
    if constrained:
        mat[rows, border[0]] = border[1]
    return mat


@dataclass
class NumericIndex:
    dim_ker: int
    dim_coker: int
    index: int
    analytic: IndexCounts
    matches_analytic: bool
    mode_range: tuple[int, int]
    per_mode: list[dict] = field(default_factory=list)


def index_numeric(w: WeightPair, p: APSProjection, k_max: int,
                  mode_range: tuple[int, int] | None = None,
                  window: int | None = None,
                  threshold_scale: float = THRESHOLD_SCALE,
                  gap: float = GAP_RATIO,
                  cache: dict | None = None) -> NumericIndex:
    """Independent index computation via truncated per-mode linear systems.

    The boundary row constrains the tail-window mean (window = k_max // 16,
    at least 8 — smaller truncations cannot support the gap criterion and
    raise IllConditionedError).  ``cache`` may be shared across calls with
    the same weights/k_max to reuse per-(side, mode, constrained) counts
    during sweeps.
    """
    n = p.cutoff
    if mode_range is None:
        mode_range = (-abs(n) - 4, abs(n) + 4)
    lo, hi = mode_range
    if lo > -abs(n) - 4 or hi < abs(n) + 4:
        raise ValueError(f"mode_range must cover [{-abs(n) - 4}, {abs(n) + 4}]")
    if window is None:
        window = k_max // 16
    if window < 8:
        raise IllConditionedError(
            f"k_max={k_max} is too small for the boundary window/gap "
            f"criterion (needs k_max >= 128)")
    if cache is None:
        cache = {}

    jobs = []
    for m in range(lo, hi + 1):
        jobs.append(("ker", m, m > n))
        jobs.append(("coker", m, m <= n + 1))
    for job in sorted(set(jobs) - cache.keys()):
        side, m, constrained = job
        diag, upper, rows, cols, border = _mode_bands(w, side, m, k_max,
                                                      window, constrained)
        cache[job] = count_null_bidiagonal(diag, upper, rows, cols, k_max,
                                           threshold_scale=threshold_scale,
                                           gap=gap, border=border)

    per_mode = []
    dim_ker = 0
    dim_coker = 0
    for job in jobs:
        side, m, constrained = job
        res = cache[job]
        per_mode.append({"side": side, "mode": m, "constrained": constrained,
                         "nullity": res.nullity, "sigma_max": res.sigma_max,
                         "threshold": res.threshold})
        if side == "ker":
            dim_ker += res.nullity
        else:
            dim_coker += res.nullity

    analytic = index_analytic(p)
    index = dim_ker - dim_coker
    return NumericIndex(dim_ker, dim_coker, index, analytic,
                        (dim_ker, dim_coker, index) == tuple(analytic),
                        mode_range, per_mode)


@dataclass
class APSSolution:
    """Outcome of solving D a = b under the boundary condition.

    Exactly one of ``element``/``obstruction`` is set.  ``kernel_coeffs``
    is the (minimal-norm, hence zero) kernel adjustment actually applied;
    the admissible solution set is element + span of the first
    cutoff+1 kernel generators.
    """

    element: ToeplitzElement | None
    obstruction: BoundaryFunction | None
    kernel_coeffs: np.ndarray
    solvable: bool


def solve_aps(b: ToeplitzElement, w: WeightPair, p: APSProjection,
              obstruction_tol: float = 1e-8) -> APSSolution:
    """Solve D a = b with r(a) in Ran P_N, when possible.

    Qb already has vanishing boundary values on all modes >= 0, so the
    minimal-norm kernel adjustment is zero and the only possible
    obstruction lives in the negative modes cutoff < m < 0, whose boundary
    values are convergent series in b (the cokernel pairing).  A nonzero
    obstruction is returned, not raised.
    """
    n = p.cutoff
    a = apply_Q(b, w)
    coeffs = np.zeros(max(n + 1, 0), dtype=complex)

    blocked_modes = range(n + 1, 0)
    if len(blocked_modes) == 0:
        return APSSolution(a, None, coeffs, True)

    # boundary values of the forced f-side solution at the blocked modes
    span = max((abs(m) for m in b.modes), default=0) + 2
    lb = w.log_b_cumsum(b.k_max + span)
    ks = np.arange(b.k_max + 1)
    inv_a = 1.0 / w.a_at(ks)
    obstruction: dict[int, complex] = {}
    for mode in blocked_modes:
        mb = mode + 1  # input mode of b feeding output mode
        if mb not in b.modes:
            continue
        nn = 1 - mb
        s = lb[ks + nn - 1] - lb[ks]
        val = complex(-np.sum(np.exp(s) * b.coeff(mb) * inv_a))
        if abs(val) > obstruction_tol:
            obstruction[mode] = val
    if obstruction:
        return APSSolution(None, BoundaryFunction(obstruction), coeffs, False)
    return APSSolution(a, None, coeffs, True)
