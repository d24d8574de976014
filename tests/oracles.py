"""Independent oracles that the tests play against the production routes.

They live with the tests because the library never runs them: the trace
route of the Hilbert pairing builds two dense (K+1) x (K+1) matrices, and
the dense matrix of an APS mode system exists only to be counted by SVD
against the structured null count.
"""

import warnings

import numpy as np

from qdisk import TruncationWarning, to_matrix
from qdisk.aps import _mode_bands


def _warn_if_truncated(a, tail_tol: float, label: str) -> None:
    edge = a.support_max()
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


def mode_matrix(w, a: int, k_max: int, window: int,
                constrained: bool) -> np.ndarray:
    """Dense matrix of ``aps._mode_bands``, the oracle for the structured count."""
    diag, upper, rows, cols, border = _mode_bands(w, a, k_max, window,
                                                  constrained)
    mat = np.zeros((rows + constrained, cols))
    mat[np.arange(len(diag)), np.arange(len(diag))] = diag
    mat[np.arange(len(upper)), np.arange(1, len(upper) + 1)] = upper
    if constrained:
        mat[rows, border[0]] = border[1]
    return mat


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
        total += np.sum(y.coeff(m) * np.conj(x.coeff(m)) * inv_a[shift: shift + size])
    return complex(total)
