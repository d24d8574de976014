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
row pinning the mode's boundary value, the functional that ``restrict``
applies (``element._boundary_weights``), to zero, and counts numerical null
directions by singular values under the threshold/gap rule, in O(k_max)
per mode: the recursion is bidiagonal and the boundary row a border
(``nullity.count_null_stack``; the tests check it against the SVD of the
dense system).  Kernel and cokernel never overlap and the increment in
N is one mode at a time, so the sweep is a discrete spectral-flow picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .element import BoundaryFunction, ToeplitzElement, _boundary_weights
from .ncops import _stencil, _table
from .nullity import NullCount, count_null_stack
from .parametrix import _forced_boundary_values, apply_Q
from .report import IllConditionedError
from .weights import WeightPair, _validate_weights

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

OBSTRUCTION_TOL = 1e-8
# Golub-Kahan entries (rows + cols <= 2 k_max + 2 per system) of one stack.
# Stacking saves a fixed cost per system worth a few thousand entries, so
# 2^15 keeps most of it with a stack's arrays near 1 MiB; with no bound the
# K = 100000 sweep peaked at 96 MiB, not 75.  From k_max = 8192 on: 1 each.
STACK_ENTRIES = 2 ** 15


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


def _mode_bands(w: WeightPair, a: int | list[int], k_max: int, constrained: bool):
    """Stencil bracket at signed index a, rows k <= k_max, as the arguments
    (diag, upper, rows, cols, border) of ``count_null_bidiagonal``: D at
    mode a, and minus D̄ at mode -a, up to the positive row factor A(k+p).
    For an array of indices of one sign the bands are the rows of
    (systems, band length) arrays, one per index, for ``count_null_stack``.

    A square lower-bidiagonal system (s = -1) is reversed in rows and
    columns, which keeps every row (so the row equilibration) and makes it
    upper bidiagonal.  A constrained mode adds the boundary row: the
    weights of ``_boundary_weights(k_max)``, which the count scales to a unit
    row, on its columns (k_max - k for a reversed system).
    """
    a = np.asarray(a)
    st = _stencil(+1, a[..., None])
    _, b, _ = _table(w, k_max, k_max + int(np.abs(a).max()) + 1)  # b[k + 1] = B(k)
    ks = np.arange(k_max + 1)
    on_c, on_next = b[st.q + 1 + st.n + ks], b[st.q + 1 + ks]
    tail, weights = _boundary_weights(k_max)
    if a.min() >= 0:
        diag, upper, rows = on_c[..., :-1], -on_next[..., :-1], k_max
    else:
        diag, upper, rows = -on_c[..., ::-1], on_next[..., :0:-1], k_max + 1
        tail = k_max - tail
    border = (tail, weights) if constrained else None
    return diag, upper, rows, k_max + 1, border


def _reach(p: APSProjection) -> int:
    """Largest |mode| of the sweep, which runs over modes -reach..reach."""
    return abs(p.cutoff) + 4


@dataclass
class NumericIndex:
    dim_ker: int
    dim_coker: int
    index: int
    analytic: IndexCounts
    matches_analytic: bool
    per_mode: list[dict] = field(default_factory=list)


def _sweep(p: APSProjection, cache: dict | None,
           count: Callable[[list], list[NullCount]]) -> NumericIndex:
    """Index from per-mode null counts, shared by ``index_numeric`` and
    ``classical.index_classical``, over modes -|N|-4..|N|+4.

    Mode m enters the kernel as system a = m, constrained iff m > cutoff,
    and the cokernel as system a = -m, constrained iff m <= cutoff + 1.
    ``cache`` maps (a, constrained) to its null count, one entry per
    distinct system; the keys it lacks go, in sweep order, to one call
    ``count(keys)``, which returns their counts.  ``per_mode`` lists every
    (side, mode).
    """
    n, reach = p.cutoff, _reach(p)
    cache = {} if cache is None else cache
    jobs = [(side, m, (a, constrained)) for m in range(-reach, reach + 1)
            for side, a, constrained in (("ker", m, m > n), ("coker", -m, m <= n + 1))]
    missing = list(dict.fromkeys(key for _, _, key in jobs if key not in cache))
    cache.update(zip(missing, count(missing)))
    per_mode = []
    dims = {"ker": 0, "coker": 0}
    for side, m, (a, constrained) in jobs:
        res = cache[a, constrained]
        per_mode.append({"side": side, "mode": m, "constrained": constrained,
                         "nullity": res.nullity, "threshold": res.threshold})
        dims[side] += res.nullity
    analytic = index_analytic(p)
    counts = (dims["ker"], dims["coker"], dims["ker"] - dims["coker"])
    return NumericIndex(*counts, analytic, counts == tuple(analytic), per_mode)


def index_numeric(w: WeightPair, p: APSProjection, k_max: int,
                  cache: dict | None = None) -> NumericIndex:
    """Independent index computation via truncated per-mode linear systems.

    The boundary row pins the boundary value that ``restrict`` reads
    (``_mode_bands``); k_max < 128 cannot support the gap criterion and
    raises IllConditionedError.  ``cache`` may be shared across calls with
    the same weights/k_max to reuse per-(a, constrained) counts during
    sweeps: the kernel system at mode m and the cokernel system at mode -m
    differ only by sign.  The systems it lacks are counted in one call, as
    stacks of one sign (``count_null_stack``, within ``STACK_ENTRIES``), one
    row per index a, bordered where constrained.  The weights are checked
    over every k the systems read, k <= k_max + max |a| + 1, once per extent
    (the memo keeps the last k checked): A finite and positive, B in (0, 1)
    and strictly increasing, or ValueError naming the first bad k.
    """
    if k_max < 128:
        raise IllConditionedError(
            f"k_max={k_max} is too small for the boundary window/gap "
            f"criterion (needs k_max >= 128)")
    k_hi = k_max + _reach(p) + 1
    a_tab, b_tab, _ = _table(w, k_max, k_hi)  # b_tab[k + 1] = B(k)
    if w.memo.get("valid_to", -1) < k_hi:  # the memo is per k_max
        _validate_weights(a_tab[: k_hi + 1], b_tab[1: k_hi + 2])
        w.memo["valid_to"] = k_hi

    def count(keys: list) -> list[NullCount]:
        counts, per = {}, max(1, STACK_ENTRIES // (2 * k_max + 2))
        for up in (True, False):
            systems = list(dict.fromkeys(a for a, _ in keys if (a >= 0) == up))
            for i in range(0, len(systems), per):
                row = {a: j for j, a in enumerate(systems[i: i + per])}
                *bands, border = _mode_bands(w, list(row), k_max, True)
                asked = [key for key in keys if key[0] in row]
                counts.update(zip(asked, count_null_stack(
                    *bands, k_max, [(row[a], c) for a, c in asked], border=border)))
        return [counts[key] for key in keys]

    return _sweep(p, cache, count)


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


def solve_aps(b: ToeplitzElement, w: WeightPair, p: APSProjection) -> APSSolution:
    """Solve D a = b with r(a) in Ran P_N, when possible.

    Qb already has vanishing boundary values on all modes >= 0, so the
    minimal-norm kernel adjustment is zero and the only possible
    obstruction lives in the negative modes cutoff < m < 0, whose boundary
    values are convergent series in b (the cokernel pairing).  Those above
    OBSTRUCTION_TOL in modulus are the obstruction, returned, not raised.
    """
    n = p.cutoff
    a = apply_Q(b, w)
    coeffs = np.zeros(max(n + 1, 0), dtype=complex)
    obstruction = {mode: value
                   for mode, value in _forced_boundary_values(b, w).items()
                   if mode > n and abs(value) > OBSTRUCTION_TOL}
    if obstruction:
        return APSSolution(None, BoundaryFunction(obstruction), coeffs, False)
    return APSSolution(a, None, coeffs, True)
