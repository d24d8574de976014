"""Spectral boundary conditions, kernel/cokernel counting and the index.

P_N projects boundary functions onto span(e^{imφ})_{m <= N}.  The
boundary-conditioned operator D_{P_N} acts on elements whose restriction
lies in Ran P_N; its adjoint is D̄ on the domain where e^{-iφ} r(·) lies in
Ker P_N, i.e. modes m <= N+1 of the restriction vanish.  Counting modes:

    dim ker   = #{m : 0 <= m <= N}        = max(N+1, 0)
    dim coker = #{m : N+2 <= m <= 0}      = max(-(N+1), 0)
    index     = N + 1

``index_numeric`` reproduces the counts with no reference to those formulas:
per mode it assembles the homogeneous stencil of the operator (table in the
``ncops`` notes, k <= k_max) plus, when the mode is constrained, a boundary
row pinning the tail-window mean to zero, and counts numerical null
directions by singular values under the threshold/gap rule, in O(k_max)
per mode: the recursion is bidiagonal and the boundary row a border
(``nullity.count_null_bidiagonal``; the tests check it against the SVD of
the dense system).  Kernel and cokernel never overlap and the increment in
N is one mode at a time, so the sweep is a discrete spectral-flow picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .element import BoundaryFunction, ToeplitzElement
from .ncops import _stencil, _table
from .nullity import NullCount, count_null_bidiagonal
from .parametrix import _forced_boundary_values, apply_Q
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


def _mode_bands(w: WeightPair, a: int, k_max: int, window: int,
                constrained: bool):
    """Stencil bracket at signed index a, rows k <= k_max, as the arguments
    (diag, upper, rows, cols, border) of ``count_null_bidiagonal``: D at
    mode a, and minus D̄ at mode -a, up to the positive row factor A(k+p).

    A square lower-bidiagonal system (s = -1) is reversed in rows and
    columns, which keeps every row (so the row equilibration) and makes it
    upper bidiagonal.  A constrained mode adds the boundary row pinning the
    tail-window mean, entries 1/sqrt(window): the unit row that
    equilibration makes of it.
    """
    st = _stencil(+1, a)
    _, b, _ = _table(w, k_max, k_max + abs(a) + 1)  # b[k + 1] = B(k)
    on_c, on_next = b[st.q + 1 + st.n:][:k_max + 1], b[st.q + 1:][:k_max + 1]
    tail = np.arange(k_max - window + 1, k_max + 1)
    if st.s > 0:
        diag, upper, rows = on_c[:-1], -on_next[:-1], k_max
    else:
        diag, upper, rows = -on_c[::-1], on_next[:0:-1], k_max + 1
        tail = k_max - tail
    border = (tail, np.full(window, window ** -0.5)) if constrained else None
    return diag, upper, rows, k_max + 1, border


@dataclass
class NumericIndex:
    dim_ker: int
    dim_coker: int
    index: int
    analytic: IndexCounts
    matches_analytic: bool
    mode_range: tuple[int, int]
    per_mode: list[dict] = field(default_factory=list)


def _sweep(p: APSProjection, mode_range: tuple[int, int] | None,
           cache: dict | None,
           count: Callable[[int, bool], NullCount]) -> NumericIndex:
    """Index from per-mode null counts, shared by ``index_numeric`` and
    ``classical.index_classical``.

    Mode m enters the kernel as system a = m, constrained iff m > cutoff,
    and the cokernel as system a = -m, constrained iff m <= cutoff + 1.
    ``cache`` maps (a, constrained) to ``count(a, constrained)``, one entry
    per distinct system; ``per_mode`` lists every (side, mode).
    """
    n = p.cutoff
    if mode_range is None:
        mode_range = (-abs(n) - 4, abs(n) + 4)
    lo, hi = mode_range
    if lo > -abs(n) - 4 or hi < abs(n) + 4:
        raise ValueError(f"mode_range must cover [{-abs(n) - 4}, {abs(n) + 4}]")
    cache = {} if cache is None else cache
    per_mode = []
    dims = {"ker": 0, "coker": 0}
    for m in range(lo, hi + 1):
        for side, a, constrained in (("ker", m, m > n),
                                     ("coker", -m, m <= n + 1)):
            if (a, constrained) not in cache:
                cache[a, constrained] = count(a, constrained)
            res = cache[a, constrained]
            per_mode.append({"side": side, "mode": m, "constrained": constrained,
                             "nullity": res.nullity, "threshold": res.threshold})
            dims[side] += res.nullity
    analytic = index_analytic(p)
    counts = (dims["ker"], dims["coker"], dims["ker"] - dims["coker"])
    return NumericIndex(*counts, analytic, counts == tuple(analytic),
                        mode_range, per_mode)


def index_numeric(w: WeightPair, p: APSProjection, k_max: int,
                  mode_range: tuple[int, int] | None = None,
                  cache: dict | None = None) -> NumericIndex:
    """Independent index computation via truncated per-mode linear systems.

    The boundary row constrains the tail-window mean (window = k_max // 16,
    at least 8 — smaller truncations cannot support the gap criterion and
    raise IllConditionedError).  ``cache`` may be shared across calls with
    the same weights/k_max to reuse per-(a, constrained) counts during
    sweeps: the kernel system at mode m and the cokernel system at mode -m
    differ only by sign.
    """
    window = k_max // 16
    if window < 8:
        raise IllConditionedError(
            f"k_max={k_max} is too small for the boundary window/gap "
            f"criterion (needs k_max >= 128)")

    def count(a: int, constrained: bool) -> NullCount:
        *bands, border = _mode_bands(w, a, k_max, window, constrained)
        return count_null_bidiagonal(*bands, k_max, border=border)

    return _sweep(p, mode_range, cache, count)


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
    obstruction = {mode: value
                   for mode, value in _forced_boundary_values(b, w).items()
                   if mode > n and abs(value) > obstruction_tol}
    if obstruction:
        return APSSolution(None, BoundaryFunction(obstruction), coeffs, False)
    return APSSolution(a, None, coeffs, True)
