"""Per-mode radial calculus on the flat unit disk — the commutative baseline.

Functions are stored mode by mode on a uniform radial grid over [0, 1].  The
operator F(ρ)∂/∂z̄ acts per mode as

    mode m  ->  mode m+1,   (F(ρ)/2ρ)(ρ f' - m f)

and its formal adjoint -F(ρ)∂/∂z as

    mode m  ->  mode m-1,  -(F(ρ)/2ρ)(ρ f' + m f)

in the inner product with weight 1/F against the area form (per mode:
∫ conj(f) g 2ρ/F dρ).  The 1/ρ singularity is removable on regular data;
the ρ=0 sample uses the analytic limit row (valid under f(0) = 0 for
m ≠ 0, the per-mode regularity forced by smoothness at the origin).

Index counting mirrors the shift-algebra side: per mode, the kernel ODE
ρ f' = a f is discretized by two-point midpoint collocation (a bidiagonal
chain with exactly one structural null direction), a regularity row f(0)=0
is added exactly when the ODE solution ρ^a is singular (a < 0), and a
boundary row f(1)=0 when the spectral condition constrains the mode.  The
system depends on (a, constrained) alone, so kernel mode m and cokernel
mode -m (both a = m) share one null count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .aps import APSProjection, NumericIndex, _sweep
from .nullity import count_null_bidiagonal
from .weights import ClassicalWeight

__all__ = [
    "RadialModeFunction",
    "radial_grid",
    "apply_D_classical",
    "apply_Dbar_classical",
    "inner_product_classical",
    "boundary_term_classical",
    "integration_by_parts_classical",
    "index_classical",
]

ModeCollection = Mapping[int, np.ndarray]


def radial_grid(m_points: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, m_points)


@dataclass(frozen=True)
class RadialModeFunction:
    """One Fourier mode: samples of f_m(ρ) on the uniform grid."""

    mode: int
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.ndim != 1 or len(arr) < 64:
            raise ValueError("need a 1-d grid with at least 64 samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)


def _radial_apply(samples: np.ndarray, mode: int, weight: ClassicalWeight,
                  sign: float) -> np.ndarray:
    """(sign) * (F/2ρ)(ρ f' - sign*m f) with the analytic ρ=0 limit row."""
    m_points = len(samples)
    h = 1.0 / (m_points - 1)
    rho = radial_grid(m_points)
    deriv = np.gradient(samples, h, edge_order=2)
    f_vals = weight.at(rho)
    out = np.empty_like(samples)
    out[1:] = sign * f_vals[1:] / 2.0 * (deriv[1:]
                                         - sign * mode * samples[1:] / rho[1:])
    out[0] = sign * f_vals[0] / 2.0 * (1.0 - sign * mode) * deriv[0]
    return out


def apply_D_classical(f: RadialModeFunction,
                      weight: ClassicalWeight) -> RadialModeFunction:
    """Holomorphic-derivative analog: mode m -> m+1, (F/2ρ)(ρ f' - m f).

    Exact kernel per mode m >= 0: samples of ρ^m.  At ρ=0 the limit row
    (F(0)/2)(1-m) f'(0) is used; it presumes f(0) = 0 when m != 0.
    """
    return RadialModeFunction(f.mode + 1,
                              _radial_apply(f.samples, f.mode, weight, +1.0))


def apply_Dbar_classical(f: RadialModeFunction,
                         weight: ClassicalWeight) -> RadialModeFunction:
    """Adjoint side: mode m -> m-1, -(F/2ρ)(ρ f' + m f)."""
    return RadialModeFunction(f.mode - 1,
                              _radial_apply(f.samples, f.mode, weight, -1.0))


def inner_product_classical(f: ModeCollection, g: ModeCollection,
                            weight: ClassicalWeight) -> complex:
    """Σ_m ∫ conj(f_m) g_m 2ρ/F dρ by the trapezoid rule."""
    total = 0.0 + 0.0j
    for m in set(f) & set(g):
        fm = np.asarray(f[m], dtype=complex)
        gm = np.asarray(g[m], dtype=complex)
        if len(fm) != len(gm):
            raise ValueError("mode collections must share the grid")
        rho = radial_grid(len(fm))
        integrand = np.conj(fm) * gm * 2.0 * rho / weight.at(rho)
        total += np.trapezoid(integrand, dx=1.0 / (len(fm) - 1))
    return complex(total)


def boundary_term_classical(f: ModeCollection, g: ModeCollection) -> complex:
    """∫ conj(rf) rg e^{-iφ} dφ/2π = Σ_m conj(f_m(1)) g_{m+1}(1), exactly."""
    total = 0.0 + 0.0j
    for m, fm in f.items():
        gm = g.get(m + 1)
        if gm is not None:
            total += np.conj(fm[-1]) * gm[-1]
    return complex(total)


def integration_by_parts_classical(f: ModeCollection, g: ModeCollection,
                                   weight: ClassicalWeight) -> float:
    """Residual |(Df, g) - boundary - (f, D̄g)|; O(h²) on smooth data."""
    df = {}
    for m, fm in f.items():
        out = apply_D_classical(RadialModeFunction(m, fm), weight)
        df[out.mode] = df.get(out.mode, 0.0) + out.samples
    dbarg = {}
    for m, gm in g.items():
        out = apply_Dbar_classical(RadialModeFunction(m, gm), weight)
        dbarg[out.mode] = dbarg.get(out.mode, 0.0) + out.samples
    lhs = inner_product_classical(df, g, weight)
    rhs = inner_product_classical(f, dbarg, weight)
    bdry = boundary_term_classical(f, g)
    return abs(lhs - bdry - rhs)


def _chain_rows(a: float, m_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint collocation of ρ f' = a f between consecutive nodes.

    Row i: (i + 1/2)(f_{i+1} - f_i) - (a/2)(f_i + f_{i+1}) = 0, giving the
    bidiagonal pair (coefficient on f_i, coefficient on f_{i+1})."""
    i = np.arange(m_points - 1, dtype=float)
    on_left = -(i + 0.5 + a / 2.0)
    on_right = (i + 0.5 - a / 2.0)
    return on_left, on_right


def _mode_nullity(a: int, constrained: bool, m_points: int):
    """Null count of the discretized mode system for ρ f' = a f.

    Regularity row (f(0) = 0) exactly when ρ^a is singular at the origin;
    boundary row (f(1) = 0) when the mode is constrained.  The assembled
    matrix is bidiagonal up to single-entry rows, handled by the
    Golub-Kahan tridiagonal Sturm counts.
    """
    on_left, on_right = _chain_rows(float(a), m_points)
    if a >= 0:
        # upper bidiagonal: chain rows, then optional boundary row [.. 0 1]
        diag = np.concatenate([on_left, [1.0] if constrained else []])
        return count_null_bidiagonal(diag, on_right, m_points - 1 + constrained,
                                     m_points, m_points)
    # regularity row first, then the chain (lower bidiagonal); transpose
    low = np.concatenate([on_left, [1.0] if constrained else []])
    diag_t = np.concatenate([[1.0], on_right])
    rows_orig = len(low) + 1  # reg + chain (+ boundary)
    # transpose: upper bidiagonal (m_points) x rows_orig
    return count_null_bidiagonal(diag_t, low, m_points, rows_orig, m_points,
                                 unknowns=m_points)


def index_classical(p: APSProjection, m_points: int = 2048,
                    cache: dict | None = None) -> NumericIndex:
    """Index of the boundary-conditioned flat-disk operator by Sturm
    counting (``count_null_bidiagonal``).

    Per mode m the kernel system uses a = m (holomorphic side) and the
    cokernel system a = -m under the adjoint condition (mode constrained
    iff m <= cutoff + 1).  F does not enter: a positive prefactor never
    changes a kernel.  Counts must match the shift-algebra sweep mode for
    mode.  ``cache`` maps (a, constrained) to its null count, one entry per
    distinct system; ``per_mode`` still lists every (side, mode).
    """
    return _sweep(p, cache, lambda keys: [_mode_nullity(a, constrained, m_points)
                                          for a, constrained in keys])
