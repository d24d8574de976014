import numpy as np
import pytest
from scipy.linalg import svdvals

from qdisk import (APSProjection, RadialModeFunction, apply_D_classical,
                   apply_Dbar_classical, boundary_term_classical,
                   constant_classical_weight, index_classical,
                   inner_product_classical, integration_by_parts_classical,
                   radial_grid)
from qdisk import nullity
from qdisk.nullity import count_null_bidiagonal, count_null_dense

M = 256
F2 = constant_classical_weight()


class TestRadialOperators:
    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_holomorphic_kernel(self, n):
        """rho^n at mode n is annihilated: exactly for degree <= 2 (the
        second-order stencils reproduce quadratics), O(h^2) above."""
        rho = radial_grid(M)
        f = RadialModeFunction(n, rho ** n)
        out = apply_D_classical(f, F2)
        assert out.mode == n + 1
        tol = 1e-11 if n <= 2 else 2.5e-4
        assert np.max(np.abs(out.samples)) < tol

    def test_constant_at_mode_zero(self):
        out = apply_D_classical(RadialModeFunction(0, np.ones(M)), F2)
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)

    def test_quadratic_closed_form(self):
        """f = rho^2 at mode 0: (F/2 rho)(rho f') = 2 rho for F = 2, exactly
        on the grid (second-order stencils are exact on quadratics)."""
        rho = radial_grid(M)
        out = apply_D_classical(RadialModeFunction(0, rho ** 2), F2)
        np.testing.assert_allclose(out.samples, 2.0 * rho, atol=1e-11)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_antiholomorphic_kernel(self, n):
        rho = radial_grid(M)
        f = RadialModeFunction(n, rho ** abs(n))
        out = apply_Dbar_classical(f, F2)
        assert out.mode == n - 1
        tol = 1e-11 if abs(n) <= 2 else 2.5e-4
        assert np.max(np.abs(out.samples)) < tol

    def test_shift_is_not_antiholomorphic(self):
        """f = rho at mode +1 (the coordinate z): -(F/2 rho)(rho + rho) = -F."""
        rho = radial_grid(M)
        out = apply_Dbar_classical(RadialModeFunction(1, rho), F2)
        np.testing.assert_allclose(out.samples, -F2.at(rho), atol=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="64"):
            RadialModeFunction(0, np.ones(16))
        with pytest.raises(ValueError, match="finite"):
            RadialModeFunction(0, np.full(64, np.nan))


class TestInnerProduct:
    def test_unit_disk_area(self):
        """(1, 1) = ∫ (1/2) 2 rho drho = 1/2, to quadrature accuracy."""
        one = {0: np.ones(M)}
        got = inner_product_classical(one, one, F2)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_modes_are_orthogonal(self, rng):
        f = {1: rng.standard_normal(M) + 0j}
        g = {0: rng.standard_normal(M) + 0j}
        assert inner_product_classical(f, g, F2) == 0.0

    def test_sesquilinear(self, rng):
        f = {0: rng.standard_normal(M) + 1j * rng.standard_normal(M)}
        g = {0: rng.standard_normal(M) + 1j * rng.standard_normal(M)}
        h = {0: rng.standard_normal(M) + 1j * rng.standard_normal(M)}
        alpha = 0.3 + 0.9j
        lhs = inner_product_classical({0: alpha * f[0] + h[0]}, g, F2)
        rhs = (np.conj(alpha) * inner_product_classical(f, g, F2)
               + inner_product_classical(h, g, F2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestIntegrationByParts:
    def test_constants_vanish(self):
        one = {0: np.ones(M)}
        assert integration_by_parts_classical(one, one, F2) < 1e-12

    @staticmethod
    def _smooth_collection(m_points, modes, seed=5):
        """Band-limited smooth data: polynomials in rho per mode, vanishing
        fast enough at 0 to be per-mode regular."""
        rng = np.random.default_rng(seed)
        rho = radial_grid(m_points)
        out = {}
        for m in modes:
            base = abs(m)
            coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            out[m] = sum(c * rho ** (base + 2 * j) for j, c in enumerate(coeffs))
        return out

    def test_cubic_against_coordinate_mode(self):
        """All three terms nonzero: (Df, g) = 3/5, (f, D-bar g) = -2/5,
        boundary term 1; the grid residual halves at second order."""
        res = {}
        for m_points in (M, 2 * M):
            rho = radial_grid(m_points)
            f = {0: (rho ** 3).astype(complex)}
            g = {1: rho.astype(complex)}
            res[m_points] = integration_by_parts_classical(f, g, F2)
        assert res[M] < 1e-4
        assert 3.0 < res[M] / res[2 * M] < 5.0  # second-order quadrature

    def test_halving_rate_on_smooth_data(self):
        """Doubling the grid divides the residual by ~4 (rate in [3.5, 4.5])."""
        res = {}
        for m_points in (M, 2 * M):
            f = self._smooth_collection(m_points, range(-2, 3), seed=11)
            g = self._smooth_collection(m_points, range(-2, 3), seed=23)
            res[m_points] = integration_by_parts_classical(f, g, F2)
        rate = res[M] / res[2 * M]
        assert 3.5 <= rate <= 4.5

    def test_boundary_term_pairing(self):
        rho = radial_grid(M)
        f = {0: np.ones(M, dtype=complex)}
        g = {1: rho.astype(complex)}
        assert boundary_term_classical(f, g) == 1.0 + 0.0j
        assert boundary_term_classical(g, f) == 0.0 + 0.0j


class TestClassicalIndex:
    def test_cutoff_zero(self):
        res = index_classical(APSProjection(0), 2048)
        assert (res.dim_ker, res.dim_coker, res.index) == (1, 0, 1)
        assert res.matches_analytic

    def test_negative_cutoff(self):
        res = index_classical(APSProjection(-4), 2048)
        assert (res.dim_ker, res.dim_coker, res.index) == (0, 3, -3)

    def test_sweep_matches_counting(self):
        cache = {}
        for n in range(-6, 7):
            res = index_classical(APSProjection(n), 2048, cache=cache)
            assert res.index == n + 1
            assert res.matches_analytic


    def test_shared_cache_matches_fresh_cache(self):
        """The cache holds one count per (a, constrained) system, shared by
        kernel mode m and cokernel mode -m; per_mode is unchanged by it."""
        cache, systems = {}, set()
        for n in range(-6, 7):
            shared = index_classical(APSProjection(n), 2048, cache=cache)
            fresh = index_classical(APSProjection(n), 2048)
            assert shared.per_mode == fresh.per_mode
            systems |= {(r["mode"] if r["side"] == "ker" else -r["mode"],
                         r["constrained"]) for r in shared.per_mode}
        assert set(cache) == systems
        assert len(cache) == 35


class TestNullCountRoutes:
    """The Sturm tridiagonal route must agree with dense SVD counting."""

    @pytest.mark.parametrize("a,constrained", [(0, False), (0, True),
                                               (2, False), (2, True),
                                               (3, False), (-2, False),
                                               (-2, True), (-5, True)])
    def test_bidiagonal_vs_dense(self, a, constrained):
        from qdisk.classical import _chain_rows, _mode_nullity
        m_points = 257
        on_left, on_right = _chain_rows(float(a), m_points)
        rows = np.zeros((m_points - 1, m_points))
        idx = np.arange(m_points - 1)
        rows[idx, idx] = on_left
        rows[idx, idx + 1] = on_right
        blocks = [rows]
        if a < 0:
            reg = np.zeros((1, m_points))
            reg[0, 0] = 1.0
            blocks.insert(0, reg)
        if constrained:
            bc = np.zeros((1, m_points))
            bc[0, -1] = 1.0
            blocks.append(bc)
        system = np.vstack(blocks)
        dense = count_null_dense(system, m_points)
        fast = _mode_nullity(a, constrained, m_points)
        assert dense.nullity == fast.nullity
        assert fast.threshold == dense.threshold
        # the fixed threshold scale stands in for sigma_max of the
        # row-equilibrated oracle
        sigma_max = svdvals(system / np.linalg.norm(system, axis=1)[:, None])[0]
        assert 1.0 <= sigma_max <= 2.0
        assert abs(sigma_max / nullity.SIGMA_SCALE - 1.0) <= 1e-3

    def test_expected_counts(self):
        from qdisk.classical import _mode_nullity
        for a in range(0, 6):
            assert _mode_nullity(a, False, 2048).nullity == 1
            assert _mode_nullity(a, True, 2048).nullity == 0
        for a in range(-6, 0):
            assert _mode_nullity(a, False, 2048).nullity == 0
            assert _mode_nullity(a, True, 2048).nullity == 0
