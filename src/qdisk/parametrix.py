"""Explicit right inverses Q of D and Q̄ of D̄.

Solving D(x) = b or D̄(x) = b per mode inverts the stencil (table in the
``ncops`` notes) at the mode of x.  An s = -1 stencil is forced from k = 0
upward (B(-1) = 0 leaves no free constant); an s = +1 stencil carries one
free constant, fixed so the solution's boundary value vanishes — the choice
that makes the APS machinery work.  Both closed forms are

    x(k) = exp(s G(k)) Σ_j exp(-s H(j)) b(j) / (σ A(j+p)),

    G(k) = log B(k)..B(k+n-1),   H(j) = log B(j)..B(j+n+s-1),

summed over j <= k for s = -1 and j >= k for s = +1.  All B-products are
exp of differences of cumulative log sums, so deep products cannot
underflow.  The j >= k sums truncate at k_max; when the input still has mass
there, the neglected tail is bounded by max|coeff| * sum_{j>k_max} 1/A(j)
and reported through a TruncationWarning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .element import BoundaryFunction, ToeplitzElement, power_UB
from .hilbert import norm_fourier
from .ncops import _stencil, _table, apply_D
from .report import CheckResult, DecompositionError, Report, TruncationWarning
from .weights import WeightPair

__all__ = [
    "apply_Q",
    "apply_Qbar",
    "norm_bound_check",
    "boundary_value_decomposition",
    "BoundaryDecomposition",
]


def _tail_warning(b: ToeplitzElement, w: WeightPair, modes, tail_tol: float) -> None:
    """Bound the neglected j > k_max tail of the forward sums."""
    worst = 0.0
    for m in modes:
        edge = abs(b.coeff(m)[-1])
        t = b.tail(m)
        if t is not None:
            edge = max(edge, abs(t))
        worst = max(worst, edge)
    if worst > tail_tol:
        bound = worst * w.inv_a_tail(b.k_max)
        warnings.warn(
            f"input has coefficients of size {worst:.3e} at the truncation "
            f"edge; neglected parametrix tail bounded by {bound:.3e}",
            TruncationWarning, stacklevel=4)


def _summands(st, tab: tuple, c: np.ndarray) -> np.ndarray:
    """exp(-s H(j)) c(j) / (σ A(j+p)) for j = 0..k_max."""
    a, _, lb = tab
    size = len(c)
    h = lb[st.n + st.s: st.n + st.s + size] - lb[:size]
    return np.exp(-st.s * h) * c * (st.sigma / a[st.p: st.p + size])


def _solve(b: ToeplitzElement, w: WeightPair, shift: int,
           tail_tol: float) -> ToeplitzElement:
    """Closed-form x with D x = b (shift +1) or D̄ x = b (shift -1)."""
    tab = _table(w, b.k_max, [m - shift for m in b.modes])
    lb = tab[2]
    modes: dict[int, np.ndarray] = {}
    for m, c in b.modes.items():
        st = _stencil(shift, m - shift)
        terms = _summands(st, tab, c)
        total = np.cumsum(terms) if st.s < 0 else np.cumsum(terms[::-1])[::-1]
        g = lb[st.n: st.n + len(c)] - lb[:len(c)]
        modes[m - shift] = np.exp(st.s * g) * total
    _tail_warning(b, w, [m for m in b.modes if _stencil(shift, m - shift).s > 0],
                  tail_tol)
    return ToeplitzElement(b.k_max, modes, {}, b.tail_start, b.k_valid)


def _forced_boundary_values(b: ToeplitzElement, w: WeightPair) -> dict[int, complex]:
    """Boundary values of the forced (s = -1) modes of Q b, by output mode:
    the limit of the closed form is its full j-sum, since exp(-G(k)) -> 1."""
    tab = _table(w, b.k_max, [m - 1 for m in b.modes])
    values = {}
    for m, c in b.modes.items():
        st = _stencil(+1, m - 1)
        if st.s < 0:
            values[m - 1] = complex(np.sum(_summands(st, tab, c)))
    return values


def apply_Q(b: ToeplitzElement, w: WeightPair, tail_tol: float = 1e-9) -> ToeplitzElement:
    """Right inverse of D: D(Qb) = b on the interior, modes shifted down by 1.

    The g-side output is the unique solution with vanishing boundary value.
    """
    return _solve(b, w, +1, tail_tol)


def apply_Qbar(b: ToeplitzElement, w: WeightPair, tail_tol: float = 1e-9) -> ToeplitzElement:
    """Right inverse of D̄: D̄(Q̄b) = b on the interior, modes shifted up by 1.

    It satisfies the conjugation identity
    D̄(a) = b  <=>  D(a*) = -A(K) b* A(K)^{-1}.
    """
    return _solve(b, w, -1, tail_tol)


def _norm_bound(norm_qb: float, norm_b: float, w: WeightPair,
                k_max: int) -> tuple[float, bool]:
    """The constant C = (1/B(0)) (sum_j 1/A(j)) of ||Qb|| <= C ||b||, and
    whether the bound holds.

    The reciprocal sum is the k <= k_max partial sum plus the closed-form
    tail bound, so C dominates the untruncated constant.
    """
    constant = (w.inv_a_partial_sum(k_max) + w.inv_a_tail(k_max)) / float(w.b_at(0))
    return constant, norm_qb <= constant * norm_b * (1.0 + 1e-12) + 1e-300


def norm_bound_check(b: ToeplitzElement, w: WeightPair) -> Report:
    """Verify ||Qb|| <= (1/B(0)) (sum_j 1/A(j)) ||b|| at truncation."""
    lhs = norm_fourier(apply_Q(b, w), w)
    nb = norm_fourier(b, w)
    constant, passed = _norm_bound(lhs, nb, w, b.k_max)
    report = Report("parametrix-bound")
    report.add(CheckResult(
        check="norm-bound",
        claim="parametrix-bounded",
        params={"k_max": b.k_max},
        observed={"lhs": lhs, "rhs": constant * nb, "norm_b": nb,
                  "ratio": lhs / nb if nb > 0 else 0.0, "bound_constant": constant},
        expected={"lhs_below": constant * nb},
        passed=passed,
    ))
    return report


class BoundaryDecomposition:
    """Result of splitting a = Qb + sum_n c_n (U B(K))^n."""

    def __init__(self, b: ToeplitzElement, kernel_coeffs: np.ndarray,
                 boundary: BoundaryFunction, residual: float):
        self.b = b
        self.kernel_coeffs = kernel_coeffs
        self.boundary = boundary
        self.residual = residual


def _truncate_to_valid(b: ToeplitzElement) -> ToeplitzElement:
    """Zero the coefficients past the validity bound (edge entries of
    difference operators are garbage and would poison the forward sums)."""
    if b.k_valid >= b.k_max:
        return b
    modes = {}
    for m, c in b.modes.items():
        masked = c.copy()
        masked[b.k_valid + 1:] = 0.0
        modes[m] = masked
    return ToeplitzElement(b.k_max, modes, {}, b.tail_start, b.k_valid)


def boundary_value_decomposition(a: ToeplitzElement, w: WeightPair,
                                 tol: float = 1e-8,
                                 window: int = 16) -> BoundaryDecomposition:
    """Split a into Qb + kernel part and read off its boundary values.

    b = Da (masked to its validity bound); the kernel coefficients c_n are
    extracted by ratio-matching a - Qb against the generators (U B(K))^n on
    the largest-k window of the valid range — there Qb's g side has died
    out, so the ratio is constant and the match is exact, even where the
    generator itself is still O(1/k) away from its limit.  The boundary
    value at a mode m < 0 is the full j-sum of Q's forced closed form (the
    module notes); at mode +n it is c_n.
    Raises DecompositionError when the split leaves an interior residual
    above tolerance.
    """
    b = _truncate_to_valid(apply_D(a, w))
    qb = apply_Q(b, w)
    d = a - qb
    hi = d.k_valid

    n_top = max(d.mode_max, 0)
    coeffs = np.zeros(n_top + 1, dtype=complex)
    recon = None
    for n in range(n_top + 1):
        gen = power_UB(w, n, a.k_max)
        lo = max(hi - window + 1, 0)
        sel = np.arange(lo, hi + 1)
        if len(sel) == 0:
            raise DecompositionError(
                f"no valid window to match the mode-{n} kernel generator; "
                f"increase k_max")
        coeffs[n] = np.mean(d.coeff(n)[sel] / gen.coeff(n)[sel])
        scaled = coeffs[n] * gen
        recon = scaled if recon is None else recon + scaled

    resid_el = d - recon if recon is not None else d
    scale = 1.0 + max((float(np.max(np.abs(c))) for c in a.modes.values()),
                      default=0.0)
    residual = 0.0
    for m, c in resid_el.modes.items():
        residual = max(residual, float(np.max(np.abs(c[: hi + 1]))))
    if residual > tol * scale:
        raise DecompositionError(
            f"kernel split leaves interior residual {residual:.3e} "
            f"(tolerance {tol * scale:.3e})")

    # boundary values: series on the f side, kernel coefficients on the g side
    bvals = _forced_boundary_values(b, w)
    for n in range(n_top + 1):
        if coeffs[n] != 0.0:
            bvals[n] = complex(coeffs[n])
    return BoundaryDecomposition(b, coeffs, BoundaryFunction(bvals), residual)
