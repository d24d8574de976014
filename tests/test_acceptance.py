"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from qdisk import (APSProjection, BoundaryFunction, adjoint, apply_D,
                   apply_Dbar, apply_Q, apply_Qbar, boundary_operator_check,
                   constant_classical_weight, index_classical, index_numeric,
                   integration_by_parts_classical,
                   integration_by_parts_residual, norm_fourier, power_UB,
                   quantum_disk_structure_check, quantum_disk_weights,
                   radial_grid, random_element)
from oracles import inner_product, to_matrix

MUS = (0.3, 0.7, 1.0)
K_SWEEP = 512
M_GRID = 2048


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def nc_counts():
    start = time.time()
    counts = {}
    for mu in MUS:
        w = quantum_disk_weights(mu, 2.0)
        cache = {}
        for n in range(-6, 7):
            res = index_numeric(w, APSProjection(n), K_SWEEP, cache=cache)
            counts[(mu, n)] = (res.dim_ker, res.dim_coker, res.index,
                               res.matches_analytic)
    return counts, time.time() - start


def test_criterion_01_index_theorem_nc(nc_counts):
    """Index = cutoff + 1, numerically and by counting, for every cutoff in
    [-6, 6] and every deformation parameter; full sweep under 30 s."""
    counts, elapsed = nc_counts
    ok = all(counts[(mu, n)] == (max(n + 1, 0), max(-(n + 1), 0), n + 1, True)
             for mu in MUS for n in range(-6, 7))
    _report(1, "index-theorem-shift-algebra", ok and elapsed < 30.0,
            f"39 cutoffs x deformations, {elapsed:.1f}s")


def test_criterion_02_index_theorem_classical(nc_counts):
    """The flat-disk discretization reproduces the same counts row for row."""
    counts, _ = nc_counts
    cache = {}
    ok = True
    for n in range(-6, 7):
        res = index_classical(APSProjection(n), M_GRID, cache=cache)
        triple = (res.dim_ker, res.dim_coker, res.index)
        ok = ok and res.matches_analytic and res.index == n + 1
        for mu in MUS:
            ok = ok and triple == counts[(mu, n)][:3]
    _report(2, "index-theorem-classical", ok, f"grid {M_GRID}")


@pytest.fixture(scope="module")
def parametrix_suite():
    """100 seeded random elements, modes in [-6, 6], support k <= 256."""
    w = quantum_disk_weights(1.0, 2.0)
    rng = np.random.default_rng(1234)
    worst_q = worst_qbar = 0.0
    bound_violations = 0
    inv_sum = w.inv_a_partial_sum(K_SWEEP) + w.inv_a_tail(K_SWEEP)
    constant = inv_sum / float(w.b_at(0))
    for _ in range(100):
        b = random_element(rng, K_SWEEP, -6, 6, k_support=256)
        nb = norm_fourier(b, w)
        qb = apply_Q(b, w)
        worst_q = max(worst_q,
                      norm_fourier(apply_D(qb, w) - b, w) / nb)
        worst_qbar = max(worst_qbar,
                         norm_fourier(apply_Dbar(apply_Qbar(b, w), w) - b, w) / nb)
        if norm_fourier(qb, w) > constant * nb * (1.0 + 1e-12):
            bound_violations += 1
    return worst_q, worst_qbar, bound_violations


def test_criterion_03_parametrix_identity(parametrix_suite):
    """Right-inverse residuals below 1e-10 relative on all 100 trials."""
    worst_q, worst_qbar, _ = parametrix_suite
    _report(3, "parametrix-right-inverse",
            worst_q < 1e-10 and worst_qbar < 1e-10,
            f"worst D∘Q {worst_q:.2e}, worst D̄∘Q̄ {worst_qbar:.2e}")


def test_criterion_04_boundedness_estimate(parametrix_suite):
    """||Qb|| <= (1/B(0)) (sum 1/A + tail) ||b||: zero violations."""
    _, _, violations = parametrix_suite
    _report(4, "parametrix-norm-bound", violations == 0,
            f"{violations} violations in 100 trials")


def test_criterion_05_kernel_exactness():
    """The generator families are annihilated on the interior to 1e-13
    relative (defects measured at the bracket level: the unbounded left
    factor A is divided out row-wise)."""
    w = quantum_disk_weights(1.0, 2.0)
    k_max = 256
    dim = k_max + 1
    inv_a_rows = (1.0 / w.a_at(np.arange(dim)))[:, None]
    worst = 0.0
    for n in range(9):
        gen = power_UB(w, n, k_max)
        hi = k_max - n - 2
        out = to_matrix(apply_D(gen, w), dim) * inv_a_rows
        worst = max(worst, float(np.max(np.abs(out[: hi + 1, : hi + 1]))))
        out = to_matrix(apply_Dbar(adjoint(gen), w), dim) * inv_a_rows
        worst = max(worst, float(np.max(np.abs(out[: hi + 1, : hi + 1]))))
    _report(5, "kernel-exactness", worst <= 1e-13,
            f"worst interior defect {worst:.2e}, n <= 8")


def test_criterion_06_boundary_operator_recovery():
    """For trig polynomials of degree <= 4 the boundary restriction of the
    operators acts as the angular derivative (mode m contributes m * coeff
    at mode m±1, the sign forced by the commutator definition): per-mode
    error < 0.05 at k_max = 1e4 and >= 5x smaller than at k_max = 1e3."""
    w = quantum_disk_weights(1.0, 2.0)
    rng = np.random.default_rng(99)
    f = BoundaryFunction({m: complex(*rng.standard_normal(2))
                          for m in range(-4, 5)})
    ok = True
    detail = []
    for which in ("D", "Dbar"):
        errs = {}
        for k_max in (1_000, 10_000):
            rep = boundary_operator_check(f, w, k_max, which)
            errs[k_max] = rep["boundary-derivative-recovery"].observed["max_error"]
        ok = ok and errs[10_000] < 0.05 and errs[1_000] / errs[10_000] >= 5.0
        detail.append(f"{which}: err {errs[10_000]:.2e}, "
                      f"decay x{errs[1_000] / errs[10_000]:.1f}")
    _report(6, "boundary-derivative-recovery", ok, "; ".join(detail))


def test_criterion_07_integration_by_parts():
    """Adjoint identity: residual < 1e-6 on 50 declared-tail random pairs
    at k_max = 512; classical residual halves at second order (3.5-4.5)."""
    w = quantum_disk_weights(1.0, 2.0)
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(50):
        a = random_element(rng, K_SWEEP, -4, 4, declared_tails=True,
                           tail_start=256)
        b = random_element(rng, K_SWEEP, -4, 4, declared_tails=True,
                           tail_start=256)
        worst = max(worst, integration_by_parts_residual(a, b, w))

    weight = constant_classical_weight()
    res = {}
    for m_points in (256, 512):
        rho = radial_grid(m_points)
        rng_c = np.random.default_rng(7)
        f = {m: sum(c * rho ** (abs(m) + 2 * j) for j, c in
                    enumerate(rng_c.standard_normal(3) + 1j * rng_c.standard_normal(3)))
             for m in range(-3, 4)}
        g = {m: sum(c * rho ** (abs(m) + 2 * j) for j, c in
                    enumerate(rng_c.standard_normal(3) + 1j * rng_c.standard_normal(3)))
             for m in range(-3, 4)}
        res[m_points] = integration_by_parts_classical(f, g, weight)
    rate = res[256] / res[512]
    _report(7, "integration-by-parts", worst < 1e-6 and 3.5 <= rate <= 4.5,
            f"worst residual {worst:.2e}, classical halving rate {rate:.2f}")


def test_criterion_08_quantum_disk_structure():
    """Commutator eigenvalues to 1e-14 for k <= 256; defining relation
    entrywise to 1e-13 on the interior; scale-1 derivative relations to
    1e-13 at the bracket level; the full check also at k_max = 8192."""
    ok = True
    details = []
    for mu in MUS:
        k_max = 260
        w1 = quantum_disk_weights(mu, 1.0)
        z = power_UB(w1, 1, k_max)
        mz = to_matrix(z, k_max + 1)
        mzbar = to_matrix(adjoint(z), k_max + 1)
        comm = mzbar @ mz - mz @ mzbar
        ks = np.arange(257)
        expected = mu / ((1.0 + ks * mu) * (1.0 + (ks + 1) * mu))
        eig_err = float(np.max(np.abs(np.diag(comm)[:257] - expected)))
        ok = ok and eig_err <= 1e-14
        for k in (256, 8192):
            ok = ok and quantum_disk_structure_check(mu, k).passed
        details.append(f"mu={mu}: eig err {eig_err:.1e}")
    _report(8, "quantum-disk-structure", ok, "; ".join(details))


def test_criterion_09_norm_consistency():
    """Trace-form inner product and Fourier-form norm agree to 1e-12 on
    100 random elements supported away from the truncation edge."""
    w = quantum_disk_weights(1.0, 2.0)
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        a = random_element(rng, K_SWEEP, -6, 6, k_support=K_SWEEP - 12)
        trace = inner_product(a, a, w).real
        fourier = norm_fourier(a, w) ** 2
        worst = max(worst, abs(trace - fourier) / fourier)
    _report(9, "trace-vs-fourier-norm", worst < 1e-12,
            f"worst relative gap {worst:.2e}")


def test_criterion_10_oracle_equivalence():
    """Fourier-formula operator equals the matrix commutator
    A(K)[U B(K), a] to 1e-12 (relative to the oracle's magnitude) on the
    interior block, for 100 random elements at k_max = 128."""
    k_max = 128
    dim = k_max + 1
    w = quantum_disk_weights(1.0, 2.0)
    rng = np.random.default_rng(777)
    z = power_UB(w, 1, k_max)
    mz = to_matrix(z, dim)
    a_col = w.a_at(np.arange(dim))[:, None]
    hi = k_max - 8
    worst = 0.0
    for _ in range(100):
        a = random_element(rng, k_max, -6, 6)
        ma = to_matrix(a, dim)
        oracle = a_col * (mz @ ma - ma @ mz)
        got = to_matrix(apply_D(a, w), dim)
        scale = float(np.max(np.abs(oracle)))
        worst = max(worst,
                    float(np.max(np.abs((got - oracle)[:hi, :hi]))) / scale)
    _report(10, "fourier-vs-commutator-oracle", worst <= 1e-12,
            f"worst interior deviation {worst:.2e}")
