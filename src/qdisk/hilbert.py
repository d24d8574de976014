"""Weighted Hilbert space of shift-algebra elements.

The pairing is (a, b) = Tr(A(K)^{-1} b a*): conjugate-linear in a, linear in
b.  The library computes it by the Fourier route, mode-matched k-sums with
weight 1/A(k) on modes < 0 and 1/A(k+m) on modes m >= 0
(``inner_product_fourier`` / ``norm_fourier``); the tests play it against
the trace route through dense matrices.

The integration-by-parts identity

    (Da, b) = (a, D̄b) - ∫ conj(r(a)) r(b) e^{-iφ} dφ/2π

telescopes mode-by-mode (finite Abel summation), so at truncation K the only
error is the neglected k > K tail.  There the 1/A weight cancels the A of
the stencil (table in the ``ncops`` notes), leaving B-difference telescopes
with closed-form sums; ``integration_by_parts_residual`` adds those
corrections and lands at roundoff for declared-tail inputs.
"""

from __future__ import annotations

import warnings

import numpy as np

from .element import BoundaryFunction, ToeplitzElement, restrict
from .ncops import _rows, apply_D, apply_Dbar
from .report import CheckResult, Report, TruncationWarning
from .weights import WeightPair

__all__ = [
    "inner_product_fourier",
    "norm_fourier",
    "boundary_pairing",
    "abel_identity_check",
    "integration_by_parts_residual",
]


def inner_product_fourier(a: ToeplitzElement, b: ToeplitzElement,
                          w: WeightPair) -> complex:
    """Fourier-form pairing: per-mode k-sums with the shifted 1/A weights,
    added over the shared modes (from the row masks) in their set order."""
    if a.k_max != b.k_max:
        raise ValueError("elements must share k_max")
    shared = np.fromiter(set(a.present_modes) & set(b.present_modes), int)
    if not len(shared):
        return 0j
    lo, hi = int(shared.min()), int(shared.max())
    weight, = _rows(w, a.k_max, +1, lo, hi, ("inv_a",))
    prod = np.conj(a.coeffs[lo - a.mode_lo: hi - a.mode_lo + 1])
    np.multiply(b.coeffs[lo - b.mode_lo: hi - b.mode_lo + 1], prod, out=prod)
    per_mode = np.sum(np.multiply(prod, weight, out=prod), axis=1)
    # added one mode at a time, in the shared set's iteration order
    return complex(np.cumsum(per_mode[shared - lo])[-1])


def norm_fourier(a: ToeplitzElement, w: WeightPair) -> float:
    """Hilbert norm in Fourier form, truncated at k_max."""
    return float(np.sqrt(max(inner_product_fourier(a, a, w).real, 0.0)))


def boundary_pairing(fa: BoundaryFunction, fb: BoundaryFunction) -> complex:
    """∫ conj(fa) fb e^{-iφ} dφ/2π = Σ_m conj(fa_m) fb_{m+1}, exactly."""
    return complex(sum(np.conj(c) * fb.coeff(m + 1)
                       for m, c in fa.modes.items()))


def abel_identity_check(f, g, n: int) -> Report:
    """Finite Abel summation identity and its trace form, evaluated exactly.

    Both sequences must be defined on 0..n+1.  The summation-by-parts
    identity

        sum_{k<=n} f_k (g_{k+1}-g_k)
            = f_{n+1} g_{n+1} - f_0 g_0 - sum_{k<=n} g_{k+1}(f_{k+1}-f_k)

    is algebraic (the two sums add up to a telescope), so the reported
    difference is pure roundoff.  The trace
    form replaces the edge product by the limits,

        Tr((f(K-1)-f(K)) g(K)) = Tr(f(K)(g(K+1)-g(K))) - (lim f)(lim g),

    and is exact at truncation when the sequences have reached their tails
    (the edge values stand in for the limits).
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if len(f) < n + 2 or len(g) < n + 2:
        raise ValueError("sequences must be defined on 0..n+1")
    ks = np.arange(n + 1)
    lhs = np.sum(f[ks] * (g[ks + 1] - g[ks]))
    rhs = f[n + 1] * g[n + 1] - f[0] * g[0] - np.sum(g[ks + 1] * (f[ks + 1] - f[ks]))
    scale = 1.0 + np.max(np.abs(f)) * np.max(np.abs(g)) * (n + 1)
    diff = abs(lhs - rhs)

    # trace form: f(-1) := 0, truncated at N = n, edge products as limits
    f_prev = np.concatenate([[0.0], f[:n]])
    trace_lhs = np.sum((f_prev - f[: n + 1]) * g[: n + 1])
    trace_rhs = np.sum(f[: n + 1] * (g[1: n + 2] - g[: n + 1])) - f[n] * g[n + 1]
    trace_diff = abs(trace_lhs - trace_rhs)

    report = Report("abel-summation")
    report.add(CheckResult(
        check="summation-by-parts",
        claim="finite-abel-identity",
        params={"n": n},
        observed={"lhs": lhs, "rhs": rhs, "difference": diff, "scale": scale},
        expected={"difference_below": 1e-13 * scale},
        passed=diff <= 1e-13 * scale,
    ))
    report.add(CheckResult(
        check="trace-form",
        claim="diagonal-trace-telescope",
        params={"n": n},
        observed={"lhs": trace_lhs, "rhs": trace_rhs, "difference": trace_diff},
        expected={"difference_below": 1e-10 * scale},
        passed=trace_diff <= 1e-10 * scale,
    ))
    return report


def _ibp_tail(x: ToeplitzElement, w: WeightPair, shift: int,
              pair) -> complex:
    """Exact k > k_max tail of the pairing of D (shift +1) or D̄ (shift -1)
    of the constant-tail input x, each mode m weighted by ``pair(m)``: the
    1/A weight cancels the stencil's A, leaving its angular coefficient
    σ(B(k+n+q) - B(k+q)), whose sum over k > k_max telescopes to
    σ Σ_{j<n}(1 - B(K+1+q+j)) (the memo's ``ibp`` entry)."""
    tails, = _rows(w, x.k_max, shift, x.mode_lo, x.mode_hi, ("ibp",))
    return sum(pair(m) * tails[m - x.mode_lo] for m in x.present_modes)


def integration_by_parts_residual(a: ToeplitzElement, b: ToeplitzElement,
                                  w: WeightPair) -> float:
    """Residual |(Da,b) - (a,D̄b) + boundary term| of the adjoint identity.

    The two pairings are evaluated in Fourier form over k <= k_max plus the
    exact constant-tail corrections; the boundary term is the finite Fourier
    sum of ∫ conj(r(a)) r(b) e^{-iφ} dφ/2π.  For declared-tail inputs the
    residual is limited only by roundoff; otherwise restrict's estimates
    leave an O(1/k_max) remainder that propagates as a TruncationWarning.
    """
    if a.k_max != b.k_max:
        raise ValueError("elements must share k_max")
    if np.any(a.present & ~a.declared) or np.any(b.present & ~b.declared):
        warnings.warn(
            "inputs without declared tails: boundary values are window-mean "
            "estimates and the residual is only O(1/k_max)",
            TruncationWarning, stacklevel=2)

    # per-mode limits: declared tails where present, restrict's estimates else
    ra, rb = restrict(a), restrict(b)
    da_b = inner_product_fourier(apply_D(a, w), b, w)
    da_b += _ibp_tail(a, w, +1, lambda m: np.conj(ra.coeff(m)) * rb.coeff(m + 1))
    a_dbarb = inner_product_fourier(a, apply_Dbar(b, w), w)
    a_dbarb += _ibp_tail(b, w, -1, lambda m: np.conj(ra.coeff(m - 1)) * rb.coeff(m))
    return abs(da_b - a_dbarb + boundary_pairing(ra, rb))
