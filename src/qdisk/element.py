"""Truncated shift-algebra elements in signed Fourier-mode form.

An element is stored as a map from signed mode m to a complex coefficient
sequence over k = 0..k_max:

* mode m >= 0 holds g_m with the operator meaning U^m g_m(K)  (k indexes the
  matrix column: entry (k+m, k) = g_m(k));
* mode m < 0 holds f_{|m|} with the meaning f_{|m|}(K) (U*)^{|m|}  (k indexes
  the matrix row: entry (k, k+|m|) = f_{|m|}(k)).

Mode 0 is stored once, on the g side.  Each signed mode is one matrix
diagonal, so the l2 matrix picture is a banded matrix whose bandwidth is the
mode range; ``to_matrix`` realizes it and serves as the oracle for every
algebraic identity in the package.

Truncation bookkeeping: ``k_valid`` is the largest k whose stored
coefficients are exact (shift products and difference operators corrupt the
edge; operations shrink the bound and tests only read the interior).  A mode
may declare an exact constant tail (value for all k >= tail_start), which is
how boundary values are represented exactly; modes that are absent are
identically zero, hence carry tail 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

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
    "to_matrix",
    "multiply",
    "adjoint",
    "power_UB",
    "restrict",
    "extend",
    "random_element",
]


def _as_coeff(values, k_max: int) -> np.ndarray:
    arr = np.zeros(k_max + 1, dtype=complex)
    vals = np.asarray(values, dtype=complex)
    if vals.ndim == 0:
        arr[:] = vals
    else:
        if len(vals) > k_max + 1:
            raise ValueError("coefficient sequence longer than k_max + 1")
        arr[: len(vals)] = vals
    return arr


@dataclass(frozen=True)
class ToeplitzElement:
    k_max: int
    modes: dict[int, np.ndarray] = field(default_factory=dict)
    tails: dict[int, complex] = field(default_factory=dict)
    tail_start: int = 0
    k_valid: int | None = None  # None: all of k <= k_max; -1: none valid

    def __post_init__(self):
        if self.k_valid is None:
            object.__setattr__(self, "k_valid", self.k_max)

    def coeff(self, m: int) -> np.ndarray:
        """Stored coefficient sequence of mode m (zeros if absent)."""
        if m in self.modes:
            return self.modes[m]
        return np.zeros(self.k_max + 1, dtype=complex)

    def tail(self, m: int) -> complex | None:
        """Declared tail of mode m; 0 for absent modes, None if undeclared."""
        if m in self.tails:
            return self.tails[m]
        if m not in self.modes:
            return 0.0 + 0.0j
        return None

    def read(self, m: int, shift: int, clamp_below: bool = False) -> np.ndarray:
        """Coefficient sequence sampled at k + shift, k = 0..k_max.

        Indices below 0 read as 0 — or as the k=0 value with
        clamp_below=True (continuation by value, used by the polar split
        where the k=0 row belongs entirely to the angular part).  Indices
        above k_max read the declared tail when there is one, else 0 (the
        caller's k_valid bookkeeping accounts for the approximation).
        """
        c = self.coeff(m)
        k = np.arange(self.k_max + 1) + shift
        inside = (k >= 0) & (k <= self.k_max)
        out = np.zeros(self.k_max + 1, dtype=complex)
        out[inside] = c[k[inside]]
        if clamp_below:
            out[k < 0] = c[0]
        tail = self.tail(m)
        if tail is not None and shift > 0:
            out[k > self.k_max] = tail
        return out

    @property
    def mode_min(self) -> int:
        return min(self.modes, default=0)

    @property
    def mode_max(self) -> int:
        return max(self.modes, default=0)

    def support_max(self) -> float:
        """Largest |coefficient| stored at k = k_max (truncation-edge size)."""
        if not self.modes:
            return 0.0
        return max(abs(c[-1]) for c in self.modes.values())

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        if other.k_max != self.k_max:
            raise ValueError("elements must share k_max")
        modes = {}
        tails = {}
        for m in sorted(set(self.modes) | set(other.modes)):
            modes[m] = self.coeff(m) + other.coeff(m)
            ta, tb = self.tail(m), other.tail(m)
            if ta is not None and tb is not None:
                tails[m] = ta + tb
        return ToeplitzElement(self.k_max, modes, tails,
                               max(self.tail_start, other.tail_start),
                               min(self.k_valid, other.k_valid))

    def __sub__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ToeplitzElement":
        if isinstance(scalar, ToeplitzElement):
            return NotImplemented
        s = complex(scalar)
        return replace(self,
                       modes={m: c * s for m, c in self.modes.items()},
                       tails={m: t * s for m, t in self.tails.items()})

    __rmul__ = __mul__

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for m in sorted(self.modes):
            c = self.modes[m]
            entry = {"m": m, "coeff": [[z.real, z.imag] for z in c]}
            if m in self.tails:
                t = complex(self.tails[m])
                entry["tail"] = [t.real, t.imag]
            entries.append(entry)
        return {"K_max": self.k_max, "tail_start": self.tail_start,
                "k_valid": self.k_valid, "modes": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "ToeplitzElement":
        k_max = int(data["K_max"])
        modes = {}
        tails = {}
        for entry in data["modes"]:
            m = int(entry["m"])
            modes[m] = np.array([complex(re, im) for re, im in entry["coeff"]],
                                dtype=complex)
            if entry.get("tail") is not None:
                re, im = entry["tail"]
                tails[m] = complex(re, im)
        return ToeplitzElement(k_max, modes, tails,
                               int(data.get("tail_start", 0)),
                               int(data.get("k_valid", k_max)))


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

    def conjugate(self) -> "BoundaryFunction":
        return BoundaryFunction({-m: np.conj(c) for m, c in self.modes.items()})

    def derivative(self) -> "BoundaryFunction":
        """Angular derivative: mode m picks up the factor i*m."""
        return BoundaryFunction({m: 1j * m * c for m, c in self.modes.items()
                                 if m != 0})

    def __add__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        out = dict(self.modes)
        for m, c in other.modes.items():
            out[m] = out.get(m, 0.0) + c
        return BoundaryFunction(out)

    def __sub__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "BoundaryFunction":
        s = complex(scalar)
        return BoundaryFunction({m: c * s for m, c in self.modes.items()})

    __rmul__ = __mul__

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
    """Normalizing constructor: pads/copies coefficient sequences to k_max+1."""
    coeffs = {int(m): _as_coeff(c, k_max) for m, c in modes.items()}
    return ToeplitzElement(k_max, coeffs,
                           {int(m): complex(t) for m, t in (tails or {}).items()},
                           tail_start)


def zero(k_max: int) -> ToeplitzElement:
    return ToeplitzElement(k_max, {})


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


def to_matrix(a: ToeplitzElement, dim: int) -> np.ndarray:
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


def adjoint(a: ToeplitzElement) -> ToeplitzElement:
    """Conjugate transpose in mode form: mode m -> mode -m, conjugated.

    (U^n g(K))* = conj(g)(K) (U*)^n and (f(K)(U*)^n)* = U^n conj(f)(K), so the
    k-indexing of each sequence is preserved exactly.
    """
    return ToeplitzElement(a.k_max,
                           {-m: np.conj(c) for m, c in a.modes.items()},
                           {-m: np.conj(t) for m, t in a.tails.items()},
                           a.tail_start, a.k_valid)


def _mode_spread(a: ToeplitzElement, b: ToeplitzElement) -> int:
    return (max(a.mode_max, 0) + max(b.mode_max, 0)
            + max(-a.mode_min, 0) + max(-b.mode_min, 0))


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
    ks = np.arange(k_max + 1)
    modes: dict[int, np.ndarray] = {}
    tails: dict[int, complex] = {}
    tail_known: dict[int, bool] = {}

    for m1, c1 in a.modes.items():
        for m2, c2 in b.modes.items():
            m = m1 + m2
            if m >= 0:
                # entry indexed by column c: intermediate basis index c + m2
                mask = ks + m2 >= 0
                x = a.read(m1, m2) if m1 >= 0 else a.read(m1, m)
                y = b.read(m2, 0) if m2 >= 0 else b.read(m2, m2)
            else:
                # entry indexed by row r: intermediate basis index r - m1
                mask = ks - m1 >= 0
                x = a.read(m1, -m1) if m1 >= 0 else a.read(m1, 0)
                y = b.read(m2, -m) if m2 >= 0 else b.read(m2, -m1)
            term = np.where(mask, x * y, 0.0)
            if m in modes:
                modes[m] = modes[m] + term
            else:
                modes[m] = term

            ta, tb = a.tail(m1), b.tail(m2)
            known = ta is not None and tb is not None
            tail_known[m] = tail_known.get(m, True) and known
            if known:
                tails[m] = tails.get(m, 0.0) + ta * tb

    tails = {m: t for m, t in tails.items() if tail_known.get(m, False)}
    spread = _mode_spread(a, b)
    k_valid = min(a.k_valid, b.k_valid) - spread
    if k_valid < 0:
        warnings.warn(
            f"product of elements with total mode spread {spread} has no "
            f"interior at k_max={k_max}", TruncationWarning, stacklevel=2)
    tail_start = min(k_max, max(a.tail_start, b.tail_start) + spread)
    return ToeplitzElement(k_max, modes, tails, tail_start, max(k_valid, -1))


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
    coeff = np.exp(lb[ks + n] - lb[ks]).astype(complex)
    return ToeplitzElement(k_max, {n: coeff}, {}, 0, k_max)


def restrict(a: ToeplitzElement, tail_window: int = 16) -> BoundaryFunction:
    """Boundary restriction: per-mode coefficient limits as circle modes.

    Declared tails restrict exactly; otherwise the limit is estimated by the
    mean of the last ``tail_window`` coefficients inside the valid range, and
    the in-window spread is recorded as the error estimate.  An element with
    no valid coefficient (``k_valid`` < 0) has no such window: those modes
    get variation inf and a TruncationWarning.
    """
    if tail_window < 1:
        raise ValueError("tail_window must be >= 1")
    values: dict[int, complex] = {}
    variation: dict[int, float] = {}
    hi = max(a.k_valid, 0)
    lo = max(hi - tail_window + 1, 0)
    unbounded = []
    for m, c in a.modes.items():
        t = a.tail(m)
        if t is not None and a.tail_start <= hi:
            values[m] = complex(t)
            variation[m] = 0.0
        else:
            window = c[lo: hi + 1]
            mean = complex(np.mean(window))
            values[m] = mean
            if a.k_valid < 0:
                unbounded.append(m)
                variation[m] = np.inf
            else:
                variation[m] = float(np.max(np.abs(window - mean)))
    if unbounded:
        warnings.warn(
            f"restrict: k_valid={a.k_valid}, no valid coefficient; modes "
            f"{sorted(unbounded)} have no usable declared tail, so their "
            f"boundary values are unbounded estimates", TruncationWarning,
            stacklevel=2)
    return BoundaryFunction(values, variation)


def extend(f: BoundaryFunction, k_max: int) -> ToeplitzElement:
    """Constant-coefficient extension; restrict(extend(f)) == f exactly."""
    modes = {m: np.full(k_max + 1, complex(c)) for m, c in f.modes.items()}
    tails = {m: complex(c) for m, c in f.modes.items()}
    return ToeplitzElement(k_max, modes, tails, 0, k_max)


def random_element(rng: np.random.Generator, k_max: int, mode_min: int = -6,
                   mode_max: int = 6, k_support: int | None = None,
                   declared_tails: bool = False,
                   tail_start: int | None = None) -> ToeplitzElement:
    """Seeded random element for the verification suites.

    Coefficients are standard complex normals supported on k < k_support.
    With declared_tails=True every mode is constant (a random tail value)
    from tail_start on, which makes boundary values exact.
    """
    if k_support is None:
        k_support = k_max + 1
    modes = {}
    tails = {}
    if tail_start is None:
        tail_start = k_support // 2
    for m in range(mode_min, mode_max + 1):
        c = np.zeros(k_max + 1, dtype=complex)
        body = min(k_support, k_max + 1)
        c[:body] = rng.standard_normal(body) + 1j * rng.standard_normal(body)
        if declared_tails:
            t = complex(rng.standard_normal() + 1j * rng.standard_normal())
            c[tail_start:] = t
            tails[m] = t
        modes[m] = c
    return ToeplitzElement(k_max, modes, tails,
                           tail_start if declared_tails else 0, k_max)
