"""Independent oracles that the tests play against the production routes.

They live with the tests because the library never runs them: the l2 matrix
picture of an element (``to_matrix``, the oracle for every algebraic
identity), the mode-by-mode sum and difference of two elements and the dense quantum-disk structure check built on it, the trace
route of the Hilbert pairing, which builds two dense (K+1) x (K+1) matrices,
the dense matrix of an APS mode system, which exists only to be counted
by SVD against the structured null count, the dstebz Sturm count that the
production DLAEBZ count must equal, and the two-query structured count on
top of it, one system at a time, that the gap-first stacked count must
equal field for field.
"""

import warnings

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dstebz

from qdisk import (ToeplitzElement, TruncationWarning, adjoint, apply_D,
                   apply_Dbar, power_UB, quantum_disk_weights)
from qdisk import nullity
from qdisk.aps import _mode_bands


def to_matrix(a, dim: int) -> np.ndarray:
    """Dense l2 matrix of the element on the first ``dim`` basis vectors.

    Mode m >= 0 contributes g_m(k) at (k+m, k); mode m < 0 contributes
    f_{|m|}(k) at (k, k+|m|).  This is the independent oracle for products,
    adjoints and the commutator operators.
    """
    if dim > a.k_max + 1:
        raise ValueError(f"dim={dim} exceeds stored range k_max+1={a.k_max + 1}")
    out = np.zeros((dim, dim), dtype=complex)
    for m, c in a.modes.items():
        if m >= 0:
            ks = np.arange(dim - m)
            out[ks + m, ks] = c[: dim - m]
        else:
            n = -m
            ks = np.arange(dim - n)
            out[ks, ks + n] = c[: dim - n]
    return out


def support_max(a) -> float:
    """Largest |coefficient| stored at k = k_max (truncation-edge size)."""
    return float(np.max(np.abs(a.coeffs[a.present, -1]), initial=0.0))


def combined_by_modes(a, b, op):
    """a + b (op np.add) or a - b (np.subtract) mode by mode over the union
    of the mode ranges: an absent mode reads as a zero row with a known
    tail 0, on both operands."""
    lo, hi = min(a.mode_lo, b.mode_lo), max(a.mode_hi, b.mode_hi)
    modes = range(lo, hi + 1)
    coeffs = np.array([op(a.coeff(m), b.coeff(m)) for m in modes])
    present = np.array([a._row(m) is not None or b._row(m) is not None for m in modes])
    tails = [(a.tail(m), b.tail(m)) for m in modes]
    known = np.array([ta is not None and tb is not None for ta, tb in tails])
    values = np.array([op(complex(ta), complex(tb)) if k else 0j
                       for (ta, tb), k in zip(tails, known)])
    return ToeplitzElement(a.k_max, lo, coeffs, present, values, known & present,
                           max(a.tail_start, b.tail_start),
                           min(a.k_valid, b.k_valid))


def structure_check_dense(mu: float, k_max: int) -> list[dict]:
    """The observed values of ``quantum_disk_structure_check``, check by
    check, from dense (K+1) x (K+1) matrices: the matrix commutator, the
    defining relation as matrix products and the derivative defects as
    matrices with rows divided by A."""
    w1 = quantum_disk_weights(mu, scale=1.0)
    z = power_UB(w1, 1, k_max)
    zbar = adjoint(z)
    dim = k_max + 1
    mz = to_matrix(z, dim)
    mzbar = to_matrix(zbar, dim)

    comm = mzbar @ mz - mz @ mzbar
    interior = dim - 2
    ks = np.arange(interior)
    expected_eigs = mu / ((1.0 + ks * mu) * (1.0 + (ks + 1) * mu))
    diag_err = float(np.max(np.abs(np.diag(comm)[:interior] - expected_eigs)))
    off = comm[:interior, :interior] - np.diag(np.diag(comm)[:interior])
    off_err = float(np.max(np.abs(off)))

    eye = np.eye(dim)
    rhs = mu * (eye - mz @ mzbar) @ (eye - mzbar @ mz)
    rel_err = float(np.max(np.abs((comm - rhs)[:interior, :interior])))

    inv_a_rows = (1.0 / w1.a_at(np.arange(dim)))[:, None]

    def _bracket_defect(x, reference, hi: int) -> float:
        diff = x if reference is None else x - reference
        mat = to_matrix(diff, dim) * inv_a_rows
        return float(np.max(np.abs(mat[: hi + 1, : hi + 1])))

    hi = k_max - 2
    one = power_UB(w1, 0, k_max)
    rel = {
        "D(1)": _bracket_defect(apply_D(one, w1), None, hi),
        "D(z)": _bracket_defect(apply_D(z, w1), None, hi),
        "D(zbar)+1": _bracket_defect(apply_D(zbar, w1), (-1.0) * one, hi),
        "Dbar(1)": _bracket_defect(apply_Dbar(one, w1), None, hi),
        "Dbar(z)-1": _bracket_defect(apply_Dbar(z, w1), one, hi),
        "Dbar(zbar)": _bracket_defect(apply_Dbar(zbar, w1), None, hi),
    }
    return [{"max_diag_error": diag_err, "max_offdiag": off_err},
            {"max_entry_error": rel_err}, rel]


def _warn_if_truncated(a, tail_tol: float, label: str) -> None:
    edge = support_max(a)
    declared = max((abs(t) for t in a.tails.values()), default=0.0)
    size = max(edge, declared)
    if size > tail_tol:
        warnings.warn(
            f"{label} has coefficients of size {size:.3e} at the truncation "
            f"edge; the trace is only approximate", TruncationWarning,
            stacklevel=3)


def inner_product(a, b, w, tail_tol: float = 1e-9) -> complex:
    """Trace-form pairing Tr(A(K)^{-1} b a*) over the stored block.

    Tr(A^{-1} b a*) = sum_{r,c} b[r,c] conj(a[r,c]) / A(r), so no matrix
    product is needed.  Emits a TruncationWarning when either element has
    non-negligible coefficients at the edge.
    """
    if a.k_max != b.k_max:
        raise ValueError("elements must share k_max")
    _warn_if_truncated(a, tail_tol, "first element")
    _warn_if_truncated(b, tail_tol, "second element")
    dim = a.k_max + 1
    ma = to_matrix(a, dim)
    mb = to_matrix(b, dim)
    inv_a = 1.0 / w.a_at(np.arange(dim))
    return complex(np.sum(mb * np.conj(ma) * inv_a[:, None]))


def mode_matrix(w, a: int, k_max: int, constrained: bool) -> np.ndarray:
    """Dense matrix of ``aps._mode_bands``, the oracle for the structured count,
    with the border scaled to the unit row that the count makes of it."""
    diag, upper, rows, cols, border = _mode_bands(w, a, k_max, constrained)
    mat = np.zeros((rows + constrained, cols))
    mat[np.arange(len(diag)), np.arange(len(diag))] = diag
    mat[np.arange(len(upper)), np.arange(1, len(upper) + 1)] = upper
    if constrained:
        mat[rows, border[0]] = border[1] / np.linalg.norm(border[1])
    return mat


def count_within_dstebz(zeros, off, t):
    """Eigenvalues in (-t, t] of the tridiagonal with diagonal ``zeros``
    (all zero) and off-diagonal ``off``: dstebz with range "V" (1), the
    values in (vl, vu].  A bisection tolerance wider than the interval
    makes it return after the two endpoint Sturm counts."""
    count, _, _, _, info = dstebz(zeros, off, 1, -t, t, 0, 0, 4.0 * t, "E")
    if info:
        raise RuntimeError(f"dstebz returned info={info} at t={t:.3e}")
    return count


def equilibrated_offdiagonal(diag, upper, rows, cols):
    """Off-diagonal of the Golub-Kahan tridiagonal of the row-equilibrated
    upper-bidiagonal rows x cols matrix with entries A[j,j] = diag[j],
    A[j,j+1] = upper[j], one system at a time."""
    scale = np.hypot(diag, np.concatenate([upper, np.zeros(len(diag) - len(upper))]))
    scale[scale == 0.0] = 1.0
    off = np.zeros(rows + cols - 1)
    off[0: 2 * len(diag): 2] = diag / scale
    off[1: 1 + 2 * len(upper): 2] = upper / scale[: len(upper)]
    return off


def count_null_two_queries(diag, upper, rows, cols, scale_dim,
                           unknowns=None, border=None):
    """``count_null_bidiagonal`` as two dstebz Sturm queries, at tau and
    then at GAP_RATIO * tau, followed by the band check and the parity
    check of the count at tau."""
    if unknowns is None:
        unknowns = cols
    off = equilibrated_offdiagonal(diag, upper, rows, cols)
    size = rows + cols
    zeros = np.zeros(size)

    def count(t):
        n = count_within_dstebz(zeros, off, t)
        if border is None:
            return n
        bands[1] = -t
        s = -t - vals @ solve_banded((1, 1), bands, w, check_finite=False)[idx]
        return n + (1 if s < 0.0 else -1)

    if border is not None:
        idx = 2 * np.asarray(border[0])
        vals = border[1] / (np.linalg.norm(border[1]) or 1.0)
        w = np.zeros(size)
        w[idx] = vals
        bands = np.array([np.r_[0.0, off], np.zeros(size), np.r_[off, 0.0]])
        rows += 1
    threshold = nullity._threshold(scale_dim)
    structural = abs(rows - cols)
    n_t = count(threshold)
    n_band = count(nullity.GAP_RATIO * threshold)
    nullity._check_band((n_band - n_t) // 2, threshold)
    if (n_t - structural) % 2:
        raise nullity.IllConditionedError(
            "eigenvalue count parity violated near the null threshold")
    below = (n_t - structural) // 2
    extra = unknowns - min(rows, cols)
    return nullity.NullCount(below + extra, threshold, below, extra)


# -- mode-by-mode references of the whole-array kernels -----------------------
# Each evaluates the weights per call and loops over the modes, with the
# stencil table of the ncops notes written out; the whole-array kernels keep
# this arithmetic and its operand order, so they must agree bit for bit.


def stencil_row(shift: int, m: int) -> tuple[int, int, int, int, int]:
    """(s, p, sigma, n, q) of D (shift +1) or D-bar (shift -1) at mode m."""
    s = 1 if shift * m >= 0 else -1
    sigma = shift * s
    return s, abs(m) + s if sigma > 0 else 0, sigma, abs(m), min(s, 0)


def _table(w, k_max: int, modes):
    return w.table(k_max + max((abs(m) for m in modes), default=0) + 1)


def _terms(x, w, shift: int):
    """Per mode of x: output mode, s, sigma A(k+p), B(k+n+q), B(k+q), c(k)
    and c(k+s) (by value below k = 0, the declared tail or 0 above k_max)."""
    a, b, _ = _table(w, x.k_max, x.modes)
    size = x.k_max + 1
    for m, c in x.modes.items():
        s, p, sigma, n, q = stencil_row(shift, m)
        tail = x.tail(m)
        nxt = (np.concatenate([c[1:], [0j if tail is None else tail]]) if s > 0
               else np.concatenate([c[:1], c[:-1]]))
        yield (m + shift, s, sigma * a[p: p + size], b[q + 1 + n: q + 1 + n + size],
               b[q + 1: q + 1 + size], c, nxt)


def mode_by_mode_apply(x, w, shift: int) -> dict:
    return {out: amp * (on_c * c - on_next * nxt)
            for out, _, amp, on_c, on_next, c, nxt in _terms(x, w, shift)}


def mode_by_mode_polar(x, w, shift: int) -> tuple[dict, dict]:
    radial, angular = {}, {}
    for out, s, amp, on_c, on_next, c, nxt in _terms(x, w, shift):
        later, earlier = (on_next, c) if s > 0 else (on_c, nxt)
        radial[out] = amp * later * (c - nxt)
        angular[out] = amp * (on_c - on_next) * earlier
    return radial, angular


def mode_by_mode_solve(b, w, shift: int) -> dict:
    """Q (shift +1) or Q-bar (shift -1): the closed forms of the parametrix notes."""
    a, _, lb = _table(w, b.k_max, [m - shift for m in b.modes])
    out = {}
    for m, c in b.modes.items():
        s, p, sigma, n, q = stencil_row(shift, m - shift)
        size = len(c)
        h = lb[n + s: n + s + size] - lb[:size]
        terms = np.exp(-s * h) * c * (sigma / a[p: p + size])
        total = np.cumsum(terms) if s < 0 else np.cumsum(terms[::-1])[::-1]
        g = lb[n: n + size] - lb[:size]
        out[m - shift] = np.exp(s * g) * total
    return out


def mode_by_mode_pairing(x, y, w) -> complex:
    """Fourier pairing (x, y), one mode at a time in the shared set's order."""
    shared = set(x.modes) & set(y.modes)
    if not shared:
        return 0j
    size = x.k_max + 1
    inv_a = 1.0 / w.a_at(np.arange(size + max(max(shared), 0)))
    total = 0.0 + 0.0j
    for m in shared:
        shift = max(m, 0)
        # a named conjugate: numpy computes an unnamed one of 256 KiB or more
        # in place, as conj(x) * y, and complex products round differently
        # in the two operand orders
        conj_x = np.conj(x.coeff(m))
        total += np.sum(y.coeff(m) * conj_x * inv_a[shift: shift + size])
    return complex(total)
