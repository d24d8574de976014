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

Weight rows: each weight factor of the stencil at one mode is a row over
k = 0..k_max, by kind: amp = σA(k+p), on_c = B(k+n+q), on_next = B(k+q);
exp_h = exp(-sH), inv_amp = σ/A(j+p), exp_g = exp(sG) of the ``parametrix``
closed forms; inv_a = 1/A(k + max(m, 0)) of the Fourier pairing; and one
entry per mode, ibp = σ Σ_{j<n}(1 - B(k_max+1+q+j)) (the ``hilbert`` tail
sums) and up = (s > 0).  The WeightPair's ``memo`` holds them for one k_max
(a call at another clears it): one ``WeightPair.table``, reaching as far as
a fill has needed (k_max + r + 1 for the stencil kinds, r the largest
|mode|; k_max + max(m, 0) for inv_a), and per kind and shift the rows over
the modes asked for so far.  ``_rows`` fills a kind on first use and again,
over the union, for a wider mode range; each row is computed with the
arithmetic of the per-mode slice it replaces, so it is bitwise equal to it,
and a warm call evaluates no weight and no exp.  The operators build their
(modes x (k_max+1)) output array in place from whole arrays; by the table
the s = -1 rows are one contiguous block (``_blocks``).

Sign convention at the boundary: with B increasing, the angular coefficients
converge to +m for input mode m (the normalized B-differences are negative
on the f side and positive on the g side), so

    restrict ∘ D ∘ extend  = -i e^{+iφ} ∂/∂φ   (mode m -> +m · coeff at m+1)
    restrict ∘ D̄ ∘ extend = -i e^{-iφ} ∂/∂φ   (mode m -> +m · coeff at m-1)

Equivalently D = -𝒟 where 𝒟 = A(K)[·, UB(K)] is the operator normalized so
that 𝒟(z*) = 1 for the scale-1 quantum-disk weights.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Literal

import numpy as np

from .element import (ToeplitzElement, BoundaryFunction, _boundary_weights, adjoint,
                      extend, from_mode, multiply, power_UB, restrict)
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
_SHIFTS = {"D": 1, "Dbar": -1}


def _shift(which: Which) -> int:
    """+1 for D, -1 for D̄; any other name is a ValueError."""
    if which not in _SHIFTS:
        raise ValueError(f"which must be 'D' or 'Dbar', got {which!r}")
    return _SHIFTS[which]


_Stencil = namedtuple("_Stencil", "s p sigma n q")


def _stencil(shift: int, m) -> _Stencil:
    """Stencil table row of D (shift +1) or D̄ (shift -1) at input mode m;
    for an array of modes, the rows broadcast over it.  Integer arithmetic
    only, so a scalar mode costs no array."""
    s = 1 - 2 * (shift * m < 0)
    sigma = shift * s
    n = abs(m)
    return _Stencil(s, (sigma > 0) * (n + s), sigma, n, (s - 1) // 2)


def _memo(w: WeightPair, k_max: int) -> dict:
    """The memo on ``w``, emptied if it holds another truncation."""
    if w.memo.get("k_max") != k_max:
        w.memo.clear()
        w.memo["k_max"] = k_max
    return w.memo


def _table(w: WeightPair, k_max: int, k_hi: int) -> tuple:
    """``w.table`` reaching at least k_hi, from the memo (module notes)."""
    memo = _memo(w, k_max)
    if len(memo.get("table", ((),))[0]) <= k_hi:
        memo["table"] = w.table(k_hi)
    return memo["table"]


def _fill(w: WeightPair, k_max: int, shift: int, kind: str, lo: int, hi: int):
    ms = np.arange(lo, hi + 1)
    st = _stencil(shift, ms[:, None])
    if kind == "up":
        return st.s[:, 0] > 0
    reach = max(hi, 0) if kind == "inv_a" else max(-lo, hi, 0) + 1
    a, b, lb = _table(w, k_max, k_max + reach)
    ks = np.arange(k_max + 1)
    return {
        "amp": lambda: st.sigma * a[st.p + ks],
        "on_c": lambda: b[st.q + 1 + ks + st.n],  # b[k + 1] = B(k)
        "on_next": lambda: b[st.q + 1 + ks],
        "exp_h": lambda: np.exp(-st.s * (lb[st.n + st.s + ks] - lb[ks])),
        "inv_amp": lambda: st.sigma / a[st.p + ks],
        "exp_g": lambda: np.exp(st.s * (lb[st.n + ks] - lb[ks])),
        "inv_a": lambda: 1.0 / a[np.maximum(ms, 0)[:, None] + ks],
        "ibp": lambda: np.array([
            row.sigma * np.sum(1.0 - b[k_max + 2 + row.q: k_max + 2 + row.q + row.n])
            for row in (_stencil(shift, m) for m in ms.tolist())]),
    }[kind]()


def _rows(w: WeightPair, k_max: int, shift: int, lo: int, hi: int,
          kinds: tuple[str, ...]) -> list[np.ndarray]:
    """Weight rows of the given kinds of D (shift +1) or D̄ (shift -1) at
    input modes lo..hi, from the memo on ``w`` (module notes)."""
    memo, out = _memo(w, k_max), []
    for kind in kinds:
        got = memo.get((kind, shift))
        if got is None or lo < got[0] or hi > got[1]:
            span = (lo, hi) if got is None else (min(lo, got[0]), max(hi, got[1]))
            got = memo[kind, shift] = (*span, _fill(w, k_max, shift, kind, *span))
            got[2].flags.writeable = False  # shared by every later call
        out.append(got[2][lo - got[0]: hi - got[0] + 1])
    return out


def _blocks(shift: int, lo: int) -> tuple[slice, slice]:
    """Row slices (s = -1, s = +1) of D (shift +1) or D̄ (shift -1) at input
    modes lo, lo + 1, ...: the head m < 0 for D, the tail m > 0 for D̄."""
    cut = max(-lo, 0) if shift > 0 else max(1 - lo, 0)
    return (slice(None, cut), slice(cut, None))[::shift]


def _operand(a: ToeplitzElement, w: WeightPair, shift: int):
    """Weight rows σA(k+p), B(k+n+q), B(k+q) at the modes of a, their s = +1
    mask as a column, c(k) and c(k+s) (by value below k = 0, the declared
    tail or 0 above k_max)."""
    *rows, up = _rows(w, a.k_max, shift, a.mode_lo, a.mode_hi,
                      ("amp", "on_c", "on_next", "up"))
    c = a.coeffs
    nxt = np.empty_like(c)
    down, fwd = _blocks(shift, a.mode_lo)
    nxt[fwd, :-1], nxt[fwd, -1] = c[fwd, 1:], a.tail_values[fwd]
    nxt[down, 1:], nxt[down, 0] = c[down, :-1], c[down, 0]
    return rows, up[:, None], c, nxt


def _apply(a: ToeplitzElement, w: WeightPair, shift: int) -> ToeplitzElement:
    (amp, on_c, on_next), up, c, nxt = _operand(a, w, shift)
    # reading c(k+1) past k_max costs one valid k, unless the tail is declared
    shrink = bool(np.any(up[:, 0] & a.present & ~a.declared))
    out = np.multiply(on_c, c)  # amp * (on_c * c - on_next * nxt), in place
    np.subtract(out, np.multiply(on_next, nxt, out=nxt), out=out)
    return ToeplitzElement(a.k_max, a.mode_lo + shift,
                           np.multiply(amp, out, out=out),
                           a.present, tail_start=a.tail_start,
                           k_valid=max(a.k_valid - shrink, -1))


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
    shift = _shift(which)
    (amp, on_c, on_next), up, c, nxt = _operand(a, w, shift)
    later = np.where(up, on_next, on_c)
    earlier = np.where(up, c, nxt)
    k_valid = max(a.k_valid - 1, -1)
    return tuple(ToeplitzElement(a.k_max, a.mode_lo + shift, part, a.present,
                                 tail_start=a.tail_start, k_valid=k_valid)
                 for part in (amp * later * (c - nxt),
                              amp * (on_c - on_next) * earlier))


def kernel_basis(w: WeightPair, which: Which, n_max: int,
                 k_max: int) -> list[ToeplitzElement]:
    """Kernel generators: (U B(K))^n for D, their adjoints (B(K) U*)^n for D̄.

    The n-th element restricts (asymptotically) to e^{inφ} resp. e^{-inφ}.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    basis = [power_UB(w, n, k_max) for n in range(n_max + 1)]
    return basis if _shift(which) > 0 else [adjoint(p) for p in basis]


def boundary_operator_check(f: BoundaryFunction, w: WeightPair, k_max: int,
                            which: Which = "D") -> Report:
    """Compare restrict(apply(extend(f))) with its exact boundary action.

    Mode m of f contributes +m * coeff at mode m+1 under D (m-1 under D̄),
    i.e. the boundary operators are -i e^{±iφ} ∂/∂φ.  Convergence is at the
    O(1/k) rate of the telescoped weight limits, so the reported per-mode
    errors shrink roughly like 1/k_max.  Weights whose normalized difference
    does not converge to 1 are flagged: the comparison would then be against
    (limit) · f' instead.  The restriction is ``restrict``'s one boundary
    functional; the report records the length of its window.
    """
    shift = _shift(which)
    image = _apply(extend(f, k_max), w, shift)
    got, window = restrict(image), _boundary_weights(max(image.k_valid, 0))[0]

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
        params={"k_max": k_max, "tail_window": len(window), "which": which},
        observed={"per_mode_error": errors, "max_error": max_error,
                  "restriction": got.to_json_dict()},
        expected={"coefficients": {str(m): c for m, c in expected.items()}},
        passed=cond3_ok and max_error < 0.05,
    ))
    return report


def _interior_max(x: ToeplitzElement, w: WeightPair | None = None) -> float:
    """Largest |coefficient| over the interior block of the matrix picture,
    rows and columns <= k_max - 2 (mode m up to k = k_max - 2 - |m|).  With
    weights w, each matrix row is divided by A first: mode m at k lies in
    row k + max(m, 0), so this is the memo's inv_a row."""
    ms = np.arange(x.mode_lo, x.mode_hi + 1)[:, None]
    inside = np.arange(x.k_max + 1) <= x.k_max - 2 - np.abs(ms)
    c = x.coeffs
    if w is not None:
        c = c * _rows(w, x.k_max, +1, x.mode_lo, x.mode_hi, ("inv_a",))[0]
    return float(np.max(np.abs(c), where=inside, initial=0.0))


def quantum_disk_structure_check(mu: float, k_max: int) -> Report:
    """Structure checks for the weighted-shift realization z = U B(K).

    Verifies, on the interior block k <= k_max - 2: (i) the commutator
    [z*, z] is diagonal with eigenvalues mu/((1+k mu)(1+(k+1) mu)); (ii) the
    defining relation [z*, z] = mu (1 - z z*)(1 - z* z) holds entrywise;
    (iii) with scale-1 weights, D(1) = 0, D(z) = 0, D(z*) = -1 and
    D̄(1) = 0, D̄(z) = 1, D̄(z*) = 0 (the derivative normalization
    𝒟(z*) = 1 with D = -𝒟).  Everything is formed in Fourier form with
    ``multiply``, so the cost is O(k_max).
    """
    w1 = quantum_disk_weights(mu, scale=1.0)
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2 (the interior k <= k_max - 2 "
                         f"is empty), got {k_max}")
    one = power_UB(w1, 0, k_max)
    z = power_UB(w1, 1, k_max)
    zbar = adjoint(z)
    z_zbar, zbar_z = multiply(z, zbar), multiply(zbar, z)
    comm = zbar_z - z_zbar

    ks = np.arange(k_max - 1)
    expected_eigs = mu / ((1.0 + ks * mu) * (1.0 + (ks + 1) * mu))
    diag_err = float(np.max(np.abs(comm.coeff(0)[: k_max - 1] - expected_eigs)))
    off_err = _interior_max(comm - from_mode(0, comm.coeff(0), k_max))

    rhs = multiply(mu * (one - z_zbar), one - zbar_z)
    rel_err = _interior_max(comm - rhs)

    # The operators carry the unbounded left factor A(K); measure defects at
    # the commutator level by dividing the matrix rows by A (else roundoff is
    # amplified by A(k) ~ k^2 and no fixed tolerance is meaningful).
    defects = {
        "D(1)": apply_D(one, w1),
        "D(z)": apply_D(z, w1),
        "D(zbar)+1": apply_D(zbar, w1) + one,
        "Dbar(1)": apply_Dbar(one, w1),
        "Dbar(z)-1": apply_Dbar(z, w1) - one,
        "Dbar(zbar)": apply_Dbar(zbar, w1),
    }
    rel = {name: _interior_max(x, w1) for name, x in defects.items()}
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
