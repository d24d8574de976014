"""The two derivative-like operators on shift-algebra elements.

With z = U B(K) and z* = B(K) U*, the operators are the weighted commutators

    D(a)  = A(K) [U B(K), a]        (shifts every mode up by one)
    D̄(a) = A(K) [B(K) U*, a]       (shifts every mode down by one)

expanded per mode via U* f(K) = f(K+1) U*.  On the coefficients c of input
mode m, n = |m|, every case is one two-term stencil (B(-1) = 0)

    out(k) = σ A(k+p) [B(k+n+q) c(k) - B(k+q) c(k+s)],  q = 0 (s = +1), -1 (s = -1)

    case                    s    p     σ
    D,  g side (m >= 0)    +1   n+1   +1
    D,  f side (m < 0)     -1   0     -1
    D̄, f side (m <= 0)    +1   0     -1
    D̄, g side (m >= 1)    -1   n-1   +1

The bracket depends only on the signed system index a = m (D) or -m (D̄),
with s = +1 iff a >= 0.  Its homogeneous solutions are the ``aps`` mode
systems, its inverses the closed forms of ``parametrix``, and its angular
coefficient summed over k > K the ``hilbert`` tail correction.  The polar
split writes the bracket as a radial part (the c-difference times the B of
the later-indexed c) plus an angular part (the B-difference times the
earlier one), mirroring (F/2ρ)(ρ∂ρ + i∂φ) on the flat disk.

Sign convention at the boundary: with B increasing, the angular coefficients
converge to +m for input mode m (the normalized B-differences are negative
on the f side and positive on the g side), so

    restrict ∘ D ∘ extend  = -i e^{+iφ} ∂/∂φ   (mode m -> +m · coeff at m+1)
    restrict ∘ D̄ ∘ extend = -i e^{-iφ} ∂/∂φ   (mode m -> +m · coeff at m-1)

Equivalently D = -𝒟 where 𝒟 = A(K)[·, UB(K)] is the operator normalized so
that 𝒟(z*) = 1 for the scale-1 quantum-disk weights.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .element import (ToeplitzElement, BoundaryFunction, adjoint, extend,
                      power_UB, restrict, to_matrix)
from .report import CheckResult, Report
from .weights import WeightPair, quantum_disk_weights

__all__ = [
    "apply_D",
    "apply_Dbar",
    "polar_split",
    "boundary_operator_check",
    "kernel_basis",
    "quantum_disk_structure_check",
]

Which = Literal["D", "Dbar"]


class _Stencil(NamedTuple):
    s: int
    p: int
    sigma: int
    n: int
    q: int


def _stencil(shift: int, m: int) -> _Stencil:
    """Stencil table row of D (shift +1) or D̄ (shift -1) at input mode m."""
    s = 1 if shift * m >= 0 else -1
    sigma = shift * s
    return _Stencil(s, abs(m) + s if sigma > 0 else 0, sigma, abs(m), min(s, 0))


def _table(w: WeightPair, k_max: int, modes) -> tuple:
    """``w.table`` wide enough for the stencil of every mode at k <= k_max."""
    return w.table(k_max + max((abs(m) for m in modes), default=0) + 1)


def _coefficients(st: _Stencil, tab: tuple, k_max: int):
    """(σ A(k+p), B(k+n+q), B(k+q)) for k = 0..k_max, sliced from ``tab``."""
    a, b, _ = tab
    lo = st.q + 1  # b[k + 1] = B(k)
    return (st.sigma * a[st.p: st.p + k_max + 1],
            b[lo + st.n: lo + st.n + k_max + 1], b[lo: lo + k_max + 1])


def _terms(a: ToeplitzElement, w: WeightPair, shift: int):
    """Per input mode of a: output mode, s, the coefficients σA(k+p),
    B(k+n+q), B(k+q), and c(k), c(k+s) (continued by value below k = 0)."""
    tab = _table(w, a.k_max, a.modes)
    for m, c in a.modes.items():
        st = _stencil(shift, m)
        yield (m + shift, st.s, *_coefficients(st, tab, a.k_max), c,
               a.read(m, st.s, clamp_below=True))


def _apply(a: ToeplitzElement, w: WeightPair, shift: int) -> ToeplitzElement:
    modes = {out: amp * (on_c * c - on_next * nxt)
             for out, _, amp, on_c, on_next, c, nxt in _terms(a, w, shift)}
    # reading c(k+1) past k_max costs one valid k, unless the tail is declared
    shrink = any(a.tail(m) is None for m in a.modes if _stencil(shift, m).s > 0)
    return ToeplitzElement(a.k_max, modes, {}, a.tail_start,
                           max(a.k_valid - shrink, -1))


def apply_D(a: ToeplitzElement, w: WeightPair) -> ToeplitzElement:
    """D(a) = A(K)[U B(K), a] in Fourier form; output mode = input mode + 1.

    The D rows of the stencil table in the module notes.  The g side reads
    g(k+1), so the validity bound shrinks by one unless the tail is declared.
    """
    return _apply(a, w, +1)


def apply_Dbar(a: ToeplitzElement, w: WeightPair) -> ToeplitzElement:
    """D̄(a) = A(K)[B(K) U*, a]; output mode = input mode - 1.

    The D̄ rows of the stencil table in the module notes; mode 0 runs
    through the f side (the diagonal is re-indexed on the fly).
    """
    return _apply(a, w, -1)


def polar_split(a: ToeplitzElement, w: WeightPair,
                which: Which = "D") -> tuple[ToeplitzElement, ToeplitzElement]:
    """Split D or D̄ into (radial, angular) parts; they sum to the full apply.

    The radial part differences the coefficients at fixed B; the angular part
    multiplies undifferenced coefficients by B-differences.  For extensions
    (constant coefficients) the radial part vanishes identically: below k=0
    the coefficient reads continue by value (the k=0 row, whose B(-1) factor
    vanishes, belongs entirely to the angular part), so radial + angular
    still reproduces the full operator exactly.
    """
    shift = {"D": 1, "Dbar": -1}.get(which)
    if shift is None:
        raise ValueError(f"which must be 'D' or 'Dbar', got {which!r}")
    radial: dict[int, np.ndarray] = {}
    angular: dict[int, np.ndarray] = {}
    for out, s, amp, on_c, on_next, c, nxt in _terms(a, w, shift):
        later, earlier = (on_next, c) if s > 0 else (on_c, nxt)
        radial[out] = amp * later * (c - nxt)
        angular[out] = amp * (on_c - on_next) * earlier
    k_valid = max(a.k_valid - 1, -1)
    return (ToeplitzElement(a.k_max, radial, {}, a.tail_start, k_valid),
            ToeplitzElement(a.k_max, angular, {}, a.tail_start, k_valid))


def kernel_basis(w: WeightPair, which: Which, n_max: int,
                 k_max: int) -> list[ToeplitzElement]:
    """Kernel generators: (U B(K))^n for D, their adjoints (B(K) U*)^n for D̄.

    The n-th element restricts (asymptotically) to e^{inφ} resp. e^{-inφ}.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    basis = [power_UB(w, n, k_max) for n in range(n_max + 1)]
    if which == "Dbar":
        basis = [adjoint(p) for p in basis]
    elif which != "D":
        raise ValueError(f"which must be 'D' or 'Dbar', got {which!r}")
    return basis


def boundary_operator_check(f: BoundaryFunction, w: WeightPair, k_max: int,
                            which: Which = "D",
                            tail_window: int | None = None) -> Report:
    """Compare restrict(apply(extend(f))) with its exact boundary action.

    Mode m of f contributes +m * coeff at mode m+1 under D (m-1 under D̄),
    i.e. the boundary operators are -i e^{±iφ} ∂/∂φ.  Convergence is at the
    O(1/k) rate of the telescoped weight limits, so the reported per-mode
    errors shrink roughly like 1/k_max.  Weights whose normalized difference
    does not converge to 1 are flagged: the comparison would then be against
    (limit) · f' instead.
    """
    if tail_window is None:
        tail_window = max(8, k_max // 64)
    shift = 1 if which == "D" else -1
    got = restrict(_apply(extend(f, k_max), w, shift), tail_window)

    expected = {m + shift: m * c for m, c in f.modes.items() if m != 0}
    errors = {}
    for mode in set(got.modes) | set(expected):
        errors[mode] = abs(got.coeff(mode) - expected.get(mode, 0.0))
    max_error = max(errors.values(), default=0.0)

    probe = max(k_max - 1, 1)
    cond3 = float(w.a_at(probe) * (w.b_at(probe + 1) - w.b_at(probe)))
    cond3_ok = abs(cond3 - 1.0) < 0.1

    report = Report(f"boundary-operator-{which}")
    report.add(CheckResult(
        check="normalized-difference-limit",
        claim="boundary-normalization",
        params={"k_max": k_max},
        observed={"value_at_edge": cond3},
        expected={"limit": 1.0},
        passed=cond3_ok,
    ))
    report.add(CheckResult(
        check="boundary-derivative-recovery",
        claim="boundary-angular-derivative",
        params={"k_max": k_max, "tail_window": tail_window, "which": which},
        observed={"per_mode_error": errors, "max_error": max_error,
                  "restriction": got.to_json_dict()},
        expected={"coefficients": {str(m): c for m, c in expected.items()}},
        passed=cond3_ok and max_error < 0.05,
    ))
    return report


def quantum_disk_structure_check(mu: float, k_max: int) -> Report:
    """Structure checks for the weighted-shift realization z = U B(K).

    Verifies, on the interior block: (i) the commutator [z*, z] is diagonal
    with eigenvalues mu/((1+k mu)(1+(k+1) mu)); (ii) the defining relation
    [z*, z] = mu (1 - z z*)(1 - z* z) holds entrywise; (iii) with scale-1
    weights, D(1) = 0, D(z) = 0, D(z*) = -1 and D̄(1) = 0, D̄(z) = 1,
    D̄(z*) = 0 (the derivative normalization 𝒟(z*) = 1 with D = -𝒟).
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
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

    # The operators carry the unbounded left factor A(K); measure defects at
    # the commutator level by dividing the matrix rows by A (else roundoff is
    # amplified by A(k) ~ k^2 and no fixed tolerance is meaningful).
    inv_a_rows = (1.0 / w1.a_at(np.arange(dim)))[:, None]

    def _bracket_defect(x: ToeplitzElement, reference: ToeplitzElement | None,
                        hi: int) -> float:
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
    rel_max = max(rel.values())

    report = Report("quantum-disk-structure")
    report.add(CheckResult(
        check="commutator-eigenvalues",
        claim="shift-commutator-diagonal",
        params={"mu": mu, "k_max": k_max},
        observed={"max_diag_error": diag_err, "max_offdiag": off_err},
        expected={"tolerance": 1e-14},
        passed=diag_err <= 1e-14 and off_err <= 1e-14,
    ))
    report.add(CheckResult(
        check="defining-relation",
        claim="disk-relation-entrywise",
        params={"mu": mu, "k_max": k_max},
        observed={"max_entry_error": rel_err},
        expected={"tolerance": 1e-13},
        passed=rel_err <= 1e-13,
    ))
    report.add(CheckResult(
        check="derivative-normalization",
        claim="complex-derivative-relations",
        params={"mu": mu, "k_max": k_max, "scale": 1.0},
        observed=rel,
        expected={"tolerance": 1e-13},
        passed=rel_max <= 1e-13,
    ))
    return report
