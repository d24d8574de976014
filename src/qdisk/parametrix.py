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
above TAIL_TOL there, the neglected tail is bounded by max|coeff| *
sum_{j>k_max} 1/A(j) and reported through a TruncationWarning.
Each solve builds its output array in place: cumsum writes the sums of the
s = -1 block (``ncops._blocks``) and, through a reversed view, of the rest.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .element import BoundaryFunction, ToeplitzElement, power_UB
from .hilbert import norm_fourier
from .ncops import _blocks, _rows, _table, apply_D
from .report import CheckResult, DecompositionError, Report, TruncationWarning
from .weights import WeightPair

__all__ = [
    "apply_Q",
    "apply_Qbar",
    "norm_bound_check",
    "boundary_value_decomposition",
    "BoundaryDecomposition",
]

TAIL_TOL = 1e-9
MATCH_WINDOW = 16


def _tail_warning(b: ToeplitzElement, w: WeightPair, up: np.ndarray) -> None:
    """Bound the neglected j > k_max tail of the forward sums (rows ``up``)."""
    edge = np.abs(b.coeffs[:, -1])
    edge = np.where(b.declared, np.maximum(edge, np.abs(b.tail_values)), edge)
    worst = float(np.max(edge[up & b.present], initial=0.0))
    if worst > TAIL_TOL:
        bound = worst * w.inv_a_tail(b.k_max)
        warnings.warn(
            f"input has coefficients of size {worst:.3e} at the truncation "
            f"edge; neglected parametrix tail bounded by {bound:.3e}",
            TruncationWarning, stacklevel=4)


def _summands(b: ToeplitzElement, w: WeightPair, shift: int):
    """The s = +1 mask at the modes m - shift of x, and exp(-s H(j)) b(j) /
    (σ A(j+p)) for j = 0..k_max."""
    exp_h, inv_amp, up = _rows(w, b.k_max, shift, b.mode_lo - shift,
                               b.mode_hi - shift, ("exp_h", "inv_amp", "up"))
    terms = np.multiply(exp_h, b.coeffs)
    return up, np.multiply(terms, inv_amp, out=terms)


def _solve(b: ToeplitzElement, w: WeightPair, shift: int) -> ToeplitzElement:
    """Closed-form x with D x = b (shift +1) or D̄ x = b (shift -1)."""
    up, terms = _summands(b, w, shift)  # up: j >= k sums
    exp_g, = _rows(w, b.k_max, shift, b.mode_lo - shift, b.mode_hi - shift,
                   ("exp_g",))
    down, fwd = _blocks(shift, b.mode_lo - shift)
    total = np.empty_like(terms)
    np.cumsum(terms[down], axis=1, out=total[down])
    np.cumsum(terms[fwd, ::-1], axis=1, out=total[fwd, ::-1])
    _tail_warning(b, w, up)
    return ToeplitzElement(b.k_max, b.mode_lo - shift,
                           np.multiply(exp_g, total, out=total),
                           b.present, tail_start=b.tail_start, k_valid=b.k_valid)


def _forced_boundary_values(b: ToeplitzElement, w: WeightPair) -> dict[int, complex]:
    """Boundary values of the forced (s = -1) modes of Q b, by output mode:
    the limit of the closed form is its full j-sum, since exp(-G(k)) -> 1."""
    up, terms = _summands(b, w, +1)
    forced = ~up & b.present
    modes = (b.mode_lo - 1 + np.flatnonzero(forced)).tolist()
    return dict(zip(modes, np.sum(terms[forced], axis=1).tolist()))


def apply_Q(b: ToeplitzElement, w: WeightPair) -> ToeplitzElement:
    """Right inverse of D: D(Qb) = b on the interior, modes shifted down by 1.

    The g-side output is the unique solution with vanishing boundary value.
    """
    return _solve(b, w, +1)


def apply_Qbar(b: ToeplitzElement, w: WeightPair) -> ToeplitzElement:
    """Right inverse of D̄: D̄(Q̄b) = b on the interior, modes shifted up by 1.

    It satisfies the conjugation identity
    D̄(a) = b  <=>  D(a*) = -A(K) b* A(K)^{-1}.
    """
    return _solve(b, w, -1)


def _norm_bound(norm_qb: float, norm_b: float, w: WeightPair,
                k_max: int) -> tuple[float, bool]:
    """The constant C = (1/B(0)) (sum_j 1/A(j)) of ||Qb|| <= C ||b||, and
    whether the bound holds.

    The reciprocal sum is the k <= k_max partial sum plus the closed-form
    tail bound, so C dominates the untruncated constant.
    """
    inv_a, = _rows(w, k_max, +1, 0, 0, ("inv_a",))  # 1/A(k), k <= k_max
    b0 = float(_table(w, k_max, k_max)[1][1])  # table B[k + 1] = B(k)
    constant = (float(np.sum(inv_a[0])) + w.inv_a_tail(k_max)) / b0
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
    coeffs = b.coeffs.copy()
    coeffs[:, b.k_valid + 1:] = 0.0
    return replace(b, coeffs=coeffs, tail_values=None, declared=None)


def boundary_value_decomposition(a: ToeplitzElement, w: WeightPair,
                                 tol: float = 1e-8) -> BoundaryDecomposition:
    """Split a into Qb + kernel part and read off its boundary values.

    b = Da (masked to its validity bound); the kernel coefficients c_n are
    extracted by ratio-matching a - Qb against the generators (U B(K))^n on
    the last MATCH_WINDOW k of the valid range — there Qb's g side has died
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
        lo = max(hi - MATCH_WINDOW + 1, 0)
        sel = np.arange(lo, hi + 1)
        if len(sel) == 0:
            raise DecompositionError(
                f"no valid window to match the mode-{n} kernel generator; "
                f"increase k_max")
        coeffs[n] = np.mean(d.coeff(n)[sel] / gen.coeff(n)[sel])
        scaled = coeffs[n] * gen
        recon = scaled if recon is None else recon + scaled

    resid_el = d - recon if recon is not None else d
    scale = 1.0 + float(np.max(np.abs(a.coeffs), initial=0.0))
    residual = float(np.max(np.abs(resid_el.coeffs[:, : hi + 1]), initial=0.0))
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
