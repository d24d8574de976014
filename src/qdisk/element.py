"""Truncated shift-algebra elements in signed Fourier-mode form.

An element holds one complex coefficient sequence over k = 0..k_max per
signed mode m:

* mode m >= 0 holds g_m with the operator meaning U^m g_m(K)  (k indexes the
  matrix column: entry (k+m, k) = g_m(k));
* mode m < 0 holds f_{|m|} with the meaning f_{|m|}(K) (U*)^{|m|}  (k indexes
  the matrix row: entry (k, k+|m|) = f_{|m|}(k)).

Mode 0 is stored once, on the g side.  Each signed mode is one matrix
diagonal, so the l2 matrix picture is a banded matrix whose bandwidth is the
mode range.

Layout: the sequences are the rows of one complex array ``coeffs`` (modes x
(k_max+1)) over the contiguous mode range mode_lo..mode_hi.  The row mask
``present`` tells an absent mode (identically zero: zero row, tail 0) from a
present one whose coefficients vanish.  Declared tails are one array
``tail_values`` with its own row mask ``declared``; ``tail(m)`` is None for
a present mode without one.  ``modes`` and ``tails`` are read-only mappings
over those rows in ascending mode order.  No array is written after
construction, and the operations act on whole arrays.

Truncation bookkeeping: ``k_valid`` is the largest k whose stored
coefficients are exact (shift products and difference operators corrupt the
edge; operations shrink the bound and tests only read the interior).  A
declared tail is the exact value for all k >= tail_start, which is how
boundary values are represented exactly.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import compress
from types import MappingProxyType

import numpy as np

from .report import TruncationWarning
from .weights import WeightPair

__all__ = [
    "ToeplitzElement",
    "BoundaryFunction",
    "element",
    "identity",
    "zero",
    "from_mode",
    "u_power",
    "ustar_power",
    "multiply",
    "adjoint",
    "power_UB",
    "restrict",
    "extend",
    "random_element",
]


@dataclass(frozen=True, eq=False)
class ToeplitzElement:
    k_max: int
    mode_lo: int
    coeffs: np.ndarray  # (modes, k_max + 1) complex
    present: np.ndarray  # (modes,) bool
    tail_values: np.ndarray | None = None  # (modes,) complex; None: no tails
    declared: np.ndarray | None = None  # (modes,) bool
    tail_start: int = 0
    k_valid: int | None = None  # None: all of k <= k_max; -1: none valid

    def __post_init__(self):
        if self.tail_values is None:
            object.__setattr__(self, "tail_values", np.zeros(len(self.coeffs), complex))
            object.__setattr__(self, "declared", np.zeros(len(self.coeffs), bool))
        if self.k_valid is None:
            object.__setattr__(self, "k_valid", self.k_max)
        for arr in (self.coeffs, self.present, self.tail_values, self.declared):
            arr.flags.writeable = False

    @property
    def mode_hi(self) -> int:
        return self.mode_lo + len(self.coeffs) - 1

    @property
    def modes(self) -> Mapping[int, np.ndarray]:
        """Present mode -> its coefficient row (read-only)."""
        return MappingProxyType({m: self.coeffs[m - self.mode_lo]
                                 for m in self.present_modes})

    @property
    def present_modes(self) -> list[int]:
        """The present modes as ascending ints: the keys of ``modes``."""
        return list(compress(range(self.mode_lo, self.mode_hi + 1), self.present.tolist()))

    @property
    def tails(self) -> Mapping[int, complex]:
        """Mode -> declared tail (read-only)."""
        rows = np.flatnonzero(self.present & self.declared).tolist()
        return MappingProxyType({self.mode_lo + i: complex(self.tail_values[i])
                                 for i in rows})

    def _row(self, m: int) -> int | None:
        i = m - self.mode_lo
        return i if 0 <= i < len(self.coeffs) and self.present[i] else None

    def coeff(self, m: int) -> np.ndarray:
        """Stored coefficient sequence of mode m (zeros if absent)."""
        i = self._row(m)
        return np.zeros(self.k_max + 1, dtype=complex) if i is None else self.coeffs[i]

    def tail(self, m: int) -> complex | None:
        """Declared tail of mode m; 0 for absent modes, None if undeclared."""
        i = self._row(m)
        if i is None:
            return 0.0 + 0.0j
        return complex(self.tail_values[i]) if self.declared[i] else None

    def read(self, m: int, shift: int) -> np.ndarray:
        """Coefficient sequence sampled at k + shift, k = 0..k_max.

        Indices below 0 read as 0.  Indices above k_max read the declared
        tail when there is one, else 0 (the caller's k_valid bookkeeping
        accounts for the approximation).
        """
        c, tail, up = self.coeff(m), self.tail(m), max(shift, 0)
        ext = np.full(up, 0j if tail is None else tail)
        return np.concatenate([np.zeros(max(-shift, 0)), c, ext])[up: up + len(c)]

    @property
    def mode_min(self) -> int:
        return min(self.present_modes, default=0)

    @property
    def mode_max(self) -> int:
        return max(self.present_modes, default=0)

    # -- linear structure ---------------------------------------------------

    def _spanning(self, lo: int, rows: int) -> tuple[np.ndarray, ...]:
        """present, tail_values, declared over modes lo..lo+rows-1, 0-padded."""
        parts = (self.present, self.tail_values, self.declared)
        if (self.mode_lo, len(self.coeffs)) == (lo, rows):
            return parts
        wide = [np.zeros(rows, x.dtype) for x in parts]
        for full, part in zip(wide, parts):
            full[self.mode_lo - lo: self.mode_hi - lo + 1] = part
        return wide

    def _combine(self, other: "ToeplitzElement", op) -> "ToeplitzElement":
        """self + other (op np.add) or self - other (np.subtract) over the
        union of the mode ranges: one op call into the output per run of rows
        the same operands cover, a missing operand read as 0.0 (zeros keep
        op's signs); operands over one range make one run."""
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        if other.k_max != self.k_max:
            raise ValueError("elements must share k_max")
        lo = min(self.mode_lo, other.mode_lo)
        xl, yl = self.mode_lo - lo, other.mode_lo - lo
        xh, yh = xl + len(self.coeffs), yl + len(other.coeffs)
        rows = max(xh, yh)
        coeffs = np.empty((rows, self.k_max + 1), complex)
        cuts = sorted({xl, xh, yl, yh})  # from 0 to rows
        for p, q in zip(cuts, cuts[1:]):
            op(self.coeffs[p - xl: q - xl] if xl <= p < xh else 0.0,
               other.coeffs[p - yl: q - yl] if yl <= p < yh else 0.0, out=coeffs[p: q])
        (xp, xt, xd), (yp, yt, yd) = (e._spanning(lo, rows) for e in (self, other))
        known = (xd | ~xp) & (yd | ~yp)
        return ToeplitzElement(self.k_max, lo, coeffs, xp | yp,
                               np.where(known, op(xt, yt), 0), known & (xp | yp),
                               max(self.tail_start, other.tail_start),
                               min(self.k_valid, other.k_valid))

    def __add__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self._combine(other, np.add)

    def __sub__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "ToeplitzElement":
        if isinstance(scalar, ToeplitzElement):
            return NotImplemented
        s = complex(scalar)
        return replace(self, coeffs=self.coeffs * s,
                       tail_values=self.tail_values * s)

    __rmul__ = __mul__

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for m, c in self.modes.items():
            entry = {"m": m, "coeff": np.stack([c.real, c.imag], axis=1).tolist()}
            if m in self.tails:
                entry["tail"] = [self.tails[m].real, self.tails[m].imag]
            entries.append(entry)
        return {"K_max": self.k_max, "tail_start": self.tail_start,
                "k_valid": self.k_valid, "modes": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "ToeplitzElement":
        k_max = int(data["K_max"])
        entries = data["modes"]
        modes = {int(e["m"]): [complex(re, im) for re, im in e["coeff"]]
                 for e in entries}
        tails = {int(e["m"]): complex(*e["tail"]) for e in entries
                 if e.get("tail") is not None}
        return replace(element(k_max, modes, tails, int(data.get("tail_start", 0))),
                       k_valid=int(data.get("k_valid", k_max)))


@dataclass(frozen=True)
class BoundaryFunction:
    """Trigonometric polynomial on the boundary circle, by signed mode.

    ``variation`` (when present) records the in-window spread of the tail
    extrapolation that produced each coefficient — an error estimate, not
    part of the value.
    """

    modes: dict[int, complex] = field(default_factory=dict)
    variation: dict[int, float] | None = None

    def coeff(self, m: int) -> complex:
        return self.modes.get(m, 0.0 + 0.0j)

    def to_json_dict(self) -> dict:
        return {"modes": [{"m": m, "re": complex(c).real, "im": complex(c).imag}
                          for m, c in sorted(self.modes.items())]}

    @staticmethod
    def from_json_dict(data: dict) -> "BoundaryFunction":
        return BoundaryFunction({int(e["m"]): complex(e["re"], e["im"])
                                 for e in data["modes"]})


# -- constructors -------------------------------------------------------------


def element(k_max: int, modes: dict[int, object], tails: dict[int, complex] | None = None,
            tail_start: int = 0) -> ToeplitzElement:
    """Normalizing constructor: stacks the modes, each sequence (or scalar)
    zero-padded to k_max+1; a declared tail needs a mode of its own."""
    tails = {int(m): complex(t) for m, t in (tails or {}).items()}
    keys = sorted(int(m) for m in modes)
    if not set(tails) <= set(keys):
        raise ValueError("declared tail of a mode without coefficients")
    lo, hi = (keys[0], keys[-1]) if keys else (0, -1)
    rows = hi - lo + 1
    coeffs = np.zeros((rows, k_max + 1), dtype=complex)
    present, declared = np.zeros(rows, bool), np.zeros(rows, bool)
    tail_values = np.zeros(rows, complex)
    for m, values in modes.items():
        vals = np.asarray(values, dtype=complex)
        if vals.ndim and len(vals) > k_max + 1:
            raise ValueError("coefficient sequence longer than k_max + 1")
        coeffs[int(m) - lo, : len(vals) if vals.ndim else None] = vals
        present[int(m) - lo] = True
    for m, t in tails.items():
        tail_values[m - lo], declared[m - lo] = t, True
    return ToeplitzElement(k_max, lo, coeffs, present, tail_values, declared,
                           tail_start)


def zero(k_max: int) -> ToeplitzElement:
    return element(k_max, {})


def identity(k_max: int) -> ToeplitzElement:
    return element(k_max, {0: 1.0}, tails={0: 1.0})


def from_mode(m: int, coeffs, k_max: int, tail: complex | None = None) -> ToeplitzElement:
    tails = {} if tail is None else {m: complex(tail)}
    return element(k_max, {m: coeffs}, tails=tails)


def u_power(n: int, k_max: int) -> ToeplitzElement:
    """U^n as an element (n = 1 is the unilateral shift)."""
    if n < 0:
        raise ValueError("use ustar_power for negative powers")
    return from_mode(n, 1.0, k_max, tail=1.0)


def ustar_power(n: int, k_max: int) -> ToeplitzElement:
    """(U*)^n as an element."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return from_mode(-n, 1.0, k_max, tail=1.0)


# -- core operations ----------------------------------------------------------


def adjoint(a: ToeplitzElement) -> ToeplitzElement:
    """Conjugate transpose in mode form: mode m -> mode -m, conjugated.

    (U^n g(K))* = conj(g)(K) (U*)^n and (f(K)(U*)^n)* = U^n conj(f)(K), so the
    k-indexing of each sequence is preserved exactly.
    """
    return ToeplitzElement(a.k_max, -a.mode_hi, np.conj(a.coeffs[::-1]),
                           a.present[::-1], np.conj(a.tail_values[::-1]),
                           a.declared[::-1], a.tail_start, a.k_valid)


def multiply(a: ToeplitzElement, b: ToeplitzElement) -> ToeplitzElement:
    """Normal-ordered product of two elements.

    Each mode pair (m1, m2) contributes one diagonal m1+m2; coefficients are
    obtained by routing through the single intermediate basis index of the
    matrix product, with the commutation rule U* f(K) = f(K+1) U* built into
    the index shifts and the finite-rank corrections (U U* = chi(K)) applied
    as exact masks.  Coefficients are exact for k <= k_valid of the result.
    """
    if a.k_max != b.k_max:
        raise ValueError("elements must share k_max")
    k_max = a.k_max
    modes_a, modes_b = list(a.modes), list(b.modes)
    rows = len(a.coeffs) + len(b.coeffs) - 1 if modes_a and modes_b else 0
    lo = a.mode_lo + b.mode_lo
    coeffs = np.zeros((rows, k_max + 1), dtype=complex)
    present, known = np.zeros(rows, bool), np.ones(rows, bool)
    tails = np.zeros(rows, complex)
    for m1 in modes_a:
        for m2 in modes_b:
            m = m1 + m2
            if m >= 0:
                # entry indexed by column c: intermediate basis index c + m2
                cut = -m2
                x = a.read(m1, m2) if m1 >= 0 else a.read(m1, m)
                y = b.read(m2, 0) if m2 >= 0 else b.read(m2, m2)
            else:
                # entry indexed by row r: intermediate basis index r - m1
                cut = m1
                x = a.read(m1, -m1) if m1 >= 0 else a.read(m1, 0)
                y = b.read(m2, -m) if m2 >= 0 else b.read(m2, -m1)
            term = x * y
            term[: max(cut, 0)] = 0.0
            i = m - lo
            coeffs[i] += term
            present[i] = True
            ta, tb = a.tail(m1), b.tail(m2)
            known[i] &= ta is not None and tb is not None
            tails[i] += ta * tb if known[i] else 0

    spread = (max(a.mode_max, 0) + max(b.mode_max, 0)
              + max(-a.mode_min, 0) + max(-b.mode_min, 0))
    k_valid = min(a.k_valid, b.k_valid) - spread
    if k_valid < 0:
        warnings.warn(
            f"product of elements with total mode spread {spread} has no "
            f"interior at k_max={k_max}", TruncationWarning, stacklevel=2)
    tail_start = min(k_max, max(a.tail_start, b.tail_start) + spread)
    declared = known & present
    return ToeplitzElement(k_max, lo, coeffs, present, np.where(declared, tails, 0),
                           declared, tail_start, max(k_valid, -1))


def power_UB(w: WeightPair, n: int, k_max: int) -> ToeplitzElement:
    """(U B(K))^n = U^n B(K) B(K+1) ... B(K+n-1); n = 0 gives the identity.

    These span the holomorphic-like kernel; the coefficient products are
    evaluated through cumulative log sums so large n and k cannot underflow.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return identity(k_max)
    lb = w.log_b_cumsum(k_max + n)
    ks = np.arange(k_max + 1)
    return element(k_max, {n: np.exp(lb[ks + n] - lb[ks])})


def _boundary_weights(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary value of a mode valid for k <= hi as a linear functional:
    the indices of the last 16 valid k (fewer if hi < 15, none if hi < 0) and
    uniform weights summing to 1, for ``restrict``, the APS boundary row
    (``aps._mode_bands``) and ``parametrix.boundary_value_decomposition``."""
    ks = np.arange(max(hi - 15, 0), hi + 1)
    return ks, np.ones(len(ks)) / max(len(ks), 1)


def restrict(a: ToeplitzElement) -> BoundaryFunction:
    """Boundary restriction: per-mode coefficient limits as circle modes.

    Declared tails restrict exactly; otherwise the limit is the boundary
    functional (``_boundary_weights``) applied at k_valid, and the spread of
    its window about that value is recorded as the error estimate.  An
    element with no valid coefficient (``k_valid`` < 0) has no such window:
    those modes get variation inf and a TruncationWarning.
    """
    hi = max(a.k_valid, 0)
    ks, weights = _boundary_weights(hi)
    window = a.coeffs[:, ks]
    means = window @ weights
    exact = a.declared & (a.tail_start <= hi)
    spread = np.max(np.abs(window - means[:, None]), axis=1)
    if a.k_valid < 0:
        spread[:] = np.inf
        unbounded = (a.mode_lo + np.flatnonzero(a.present & ~exact)).tolist()
        if unbounded:
            warnings.warn(
                f"restrict: k_valid={a.k_valid}, no valid coefficient; modes "
                f"{unbounded} have no usable declared tail, so their "
                f"boundary values are unbounded estimates", TruncationWarning,
                stacklevel=2)
    modes = a.present_modes
    values = np.where(exact, a.tail_values, means)[a.present].tolist()
    variation = np.where(exact, 0.0, spread)[a.present].tolist()
    return BoundaryFunction(dict(zip(modes, values)), dict(zip(modes, variation)))


def extend(f: BoundaryFunction, k_max: int) -> ToeplitzElement:
    """Constant-coefficient extension; restrict(extend(f)) == f exactly."""
    return element(k_max, f.modes, f.modes)


def random_element(rng: np.random.Generator, k_max: int, mode_min: int = -6,
                   mode_max: int = 6, k_support: int | None = None,
                   declared_tails: bool = False,
                   tail_start: int | None = None) -> ToeplitzElement:
    """Seeded random element for the verification suites.

    Coefficients are standard complex normals supported on k < k_support.
    With declared_tails=True every mode is constant (a random tail value)
    from tail_start on, which makes boundary values exact.  One draw fills
    the element, in the stream order of a mode-by-mode loop: per mode the
    real parts, the imaginary parts, then the tail's real and imaginary part.
    """
    if k_support is None:
        k_support = k_max + 1
    if tail_start is None:
        tail_start = k_support // 2
    rows = mode_max - mode_min + 1
    body = min(k_support, k_max + 1)
    draw = rng.standard_normal((rows, 2 * body + 2 * declared_tails))
    coeffs = np.zeros((rows, k_max + 1), dtype=complex)
    coeffs.real[:, :body], coeffs.imag[:, :body] = draw[:, :body], draw[:, body:2 * body]
    tails = draw[:, -2] + 1j * draw[:, -1] if declared_tails else np.zeros(rows, complex)
    if declared_tails:
        coeffs[:, tail_start:] = tails[:, None]
    return ToeplitzElement(k_max, mode_min, coeffs, np.ones(rows, bool), tails,
                           np.full(rows, declared_tails),
                           tail_start if declared_tails else 0, k_max)
