from dataclasses import replace

import numpy as np
import pytest

from qdisk import (BoundaryFunction, adjoint, apply_D, apply_Dbar,
                   boundary_operator_check, extend, from_mode, identity,
                   kernel_basis, polar_split, power_UB,
                   quantum_disk_structure_check, quantum_disk_weights,
                   random_element, to_matrix)

K = 128


def _interior_max(x, hi):
    if not x.modes:
        return 0.0
    return max(float(np.max(np.abs(c[: hi + 1]))) for c in x.modes.values())


def _commutator_oracle(a, z, w, dim):
    """A(K) [to_matrix(z), to_matrix(a)] — the matrix route."""
    ma = to_matrix(a, dim)
    mz = to_matrix(z, dim)
    return w.a_at(np.arange(dim))[:, None] * (mz @ ma - ma @ mz)


class TestApplyD:
    def test_kills_identity(self, w2):
        assert not any(np.any(c) for c in apply_D(identity(K), w2).modes.values())

    def test_kills_kernel_generators(self, w2):
        """D annihilates every (U B(K))^n, up to A-scaled roundoff."""
        for n in range(9):
            p = power_UB(w2, n, 256)
            out = apply_D(p, w2)
            hi = out.k_valid - n
            scale = float(w2.a_at(hi + n + 1))
            assert _interior_max(out, hi) <= 1e-13 * scale

    def test_scale_one_derivative_of_conjugate(self, w1):
        """D(z*) = -1 for the commutator normalization."""
        zbar = adjoint(power_UB(w1, 1, K))
        out = apply_D(zbar, w1) + identity(K)
        inv_a = 1.0 / w1.a_at(np.arange(K - 1))
        assert np.max(np.abs(out.coeff(0)[: K - 1]) * inv_a) < 1e-13

    def test_matches_matrix_commutator(self, rng, w2):
        """Fourier formulas against A(K)[U B(K), a] on the interior block."""
        z = power_UB(w2, 1, K)
        for _ in range(5):
            a = random_element(rng, K, -5, 5)
            got = to_matrix(apply_D(a, w2), K + 1)
            oracle = _commutator_oracle(a, z, w2, K + 1)
            hi = K - 6
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs((got - oracle)[:hi, :hi])) <= 1e-12 * scale

    def test_mode_shift_law(self, rng, w2):
        a = random_element(rng, K, -4, 4)
        assert set(apply_D(a, w2).modes) == {m + 1 for m in a.modes}
        assert set(apply_Dbar(a, w2).modes) == {m - 1 for m in a.modes}


class TestApplyDbar:
    def test_kills_identity(self, w2):
        assert not any(np.any(c)
                       for c in apply_Dbar(identity(K), w2).modes.values())

    def test_kills_adjoint_kernel_generators(self, w2):
        for n in range(9):
            p = adjoint(power_UB(w2, n, 256))
            out = apply_Dbar(p, w2)
            hi = out.k_valid - n
            scale = float(w2.a_at(hi + n + 1))
            assert _interior_max(out, hi) <= 1e-13 * scale

    def test_scale_one_derivative_of_shift(self, w1):
        """D̄(z) = 1 for the commutator normalization, exactly at every k."""
        z = from_mode(1, w1.b_at(np.arange(K + 1)), K)
        out = apply_Dbar(z, w1) - identity(K)
        inv_a = 1.0 / w1.a_at(np.arange(K + 1))
        assert np.max(np.abs(out.coeff(0)) * inv_a) < 1e-14

    def test_matches_matrix_commutator(self, rng, w2):
        zbar = adjoint(power_UB(w2, 1, K))
        for _ in range(5):
            a = random_element(rng, K, -5, 5)
            got = to_matrix(apply_Dbar(a, w2), K + 1)
            oracle = _commutator_oracle(a, zbar, w2, K + 1)
            hi = K - 6
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs((got - oracle)[:hi, :hi])) <= 1e-12 * scale

    def test_conjugation_identity(self, rng, w2):
        """D̄(a) = -A D(a*)* A^{-1}: the adjoint route through D."""
        dim = K + 1
        a_diag = w2.a_at(np.arange(dim))
        for _ in range(3):
            a = random_element(rng, K, -4, 4)
            direct = to_matrix(apply_Dbar(a, w2), dim)
            via_d = to_matrix(apply_D(adjoint(a), w2), dim)
            routed = -a_diag[:, None] * via_d.conj().T / a_diag[None, :]
            hi = K - 6
            scale = np.max(np.abs(direct))
            assert np.max(np.abs((direct - routed)[:hi, :hi])) <= 1e-12 * scale


class TestPolarSplit:
    def test_extension_has_no_radial_part(self, w2):
        f = BoundaryFunction({-2: 1.0 + 1.0j, 0: 2.0 + 0.0j, 3: -1.0j})
        for which in ("D", "Dbar"):
            radial, _ = polar_split(extend(f, K), w2, which)
            assert _interior_max(radial, K - 2) == 0.0

    def test_parts_sum_to_full_operator(self, rng, w2):
        a = random_element(rng, K, -4, 4)
        for which, op in (("D", apply_D), ("Dbar", apply_Dbar)):
            radial, angular = polar_split(a, w2, which)
            diff = (radial + angular) - op(a, w2)
            hi = K - 6
            scale = float(w2.a_at(hi + 6))
            assert _interior_max(diff, hi) <= 1e-13 * scale

    def test_kernel_generator_parts_cancel(self, w2):
        z = power_UB(w2, 1, K)
        radial, angular = polar_split(z, w2, "D")
        total = radial + angular
        hi = K - 3
        scale = float(w2.a_at(hi + 3))
        assert _interior_max(total, hi) <= 1e-13 * scale
        # each part alone is nonzero: the cancellation is real
        assert _interior_max(radial, hi) > 1e-3

    def test_invalid_selector(self, rng, w2):
        with pytest.raises(ValueError, match="which"):
            polar_split(random_element(rng, 16, 0, 1), w2, "Dtilde")


class TestValidityBound:
    def test_exhausted_bound_is_not_reset(self, rng, w2):
        """An input valid only at k = 0 leaves no valid coefficient after one
        difference step; the bound must read -1, not 0."""
        a = replace(random_element(rng, 16, -2, 2), k_valid=0)
        outputs = [apply_D(a, w2), apply_Dbar(a, w2), *polar_split(a, w2, "D"),
                   *polar_split(a, w2, "Dbar")]
        assert [x.k_valid for x in outputs] == [-1] * 6


class TestKernelBasis:
    def test_holomorphic_side(self, w2):
        basis = kernel_basis(w2, "D", 8, 256)
        assert len(basis) == 9
        for n, p in enumerate(basis):
            out = apply_D(p, w2)
            hi = out.k_valid - n
            scale = float(w2.a_at(hi + n + 1))
            assert _interior_max(out, hi) <= 1e-13 * scale

    def test_antiholomorphic_side(self, w2):
        basis = kernel_basis(w2, "Dbar", 5, 256)
        for n, p in enumerate(basis):
            assert (-n in p.modes) or n == 0

    def test_uniqueness_of_forced_recursion(self, w2):
        """B(K-1)f(K-1) = B(K+n-1)f(K) forces f = 0: the first row has no
        predecessor, so everything chains to zero."""
        for n in (1, 3, 5):
            f = np.zeros(64)
            # row k=0: -B(n-1) f(0) = 0
            assert w2.b_at(n - 1) > 0
            f0 = 0.0
            f[0] = f0
            for k in range(1, 64):
                f[k] = w2.b_at(k - 1) * f[k - 1] / w2.b_at(k + n - 1)
            np.testing.assert_array_equal(f, 0.0)

    def test_generator_ratio_closed_form(self, w2):
        """g_n(k)/g_n(0) = prod_{j<k} B(n+j)/B(j), re-derived by direct
        recursion."""
        n, k_hi = 3, 24
        g = power_UB(w2, n, 64).coeff(n).real
        ratio = np.ones(k_hi)
        for k in range(1, k_hi):
            ratio[k] = ratio[k - 1] * w2.b_at(n + k - 1) / w2.b_at(k - 1)
        np.testing.assert_allclose(g[:k_hi] / g[0], ratio, rtol=1e-13)


class TestBoundaryOperator:
    def test_constant_maps_to_zero(self, w2):
        report = boundary_operator_check(BoundaryFunction({0: 1.0 + 0.0j}),
                                         w2, 1000, "D")
        assert report.passed
        errors = report["boundary-derivative-recovery"].observed["per_mode_error"]
        assert all(v < 1e-12 for v in errors.values())

    def test_first_harmonic_under_d(self, w2):
        """Mode 1 input contributes +1 at mode 2 (the angular derivative
        with the commutator's sign), within the telescoped-limit error."""
        report = boundary_operator_check(BoundaryFunction({1: 1.0 + 0.0j}),
                                         w2, 10_000, "D")
        assert report.passed
        rec = report["boundary-derivative-recovery"]
        assert rec.expected["coefficients"] == {"2": 1.0 + 0.0j}
        assert rec.observed["max_error"] < 0.05

    def test_degree_two_under_d(self, w2):
        """Mode -2 input contributes -2 at mode -1."""
        report = boundary_operator_check(BoundaryFunction({-2: 1.0 + 0.0j}),
                                         w2, 10_000, "D")
        rec = report["boundary-derivative-recovery"]
        assert rec.expected["coefficients"] == {"-1": -2.0 + 0.0j}
        assert rec.observed["max_error"] < 0.05

    def test_error_decays_like_one_over_k(self, w2):
        f = BoundaryFunction({m: 1.0 + 0.0j for m in range(-4, 5)})
        errors = {}
        for k_max in (1000, 10_000):
            report = boundary_operator_check(f, w2, k_max, "D")
            errors[k_max] = report["boundary-derivative-recovery"].observed["max_error"]
        assert errors[1000] / errors[10_000] >= 5.0

    def test_dbar_side(self, w2):
        report = boundary_operator_check(BoundaryFunction({2: 1.0 + 0.0j}),
                                         w2, 10_000, "Dbar")
        rec = report["boundary-derivative-recovery"]
        assert rec.expected["coefficients"] == {"1": 2.0 + 0.0j}
        assert report.passed

    def test_flags_weights_without_normalization(self, w1):
        """scale=1 weights converge to 1/2, not 1: flagged, not compared."""
        report = boundary_operator_check(BoundaryFunction({1: 1.0 + 0.0j}),
                                         w1, 2000, "D")
        assert not report["normalized-difference-limit"].passed
        assert not report.passed


class TestStructure:
    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
    def test_full_report_passes(self, mu):
        assert quantum_disk_structure_check(mu, 256).passed

    def test_displayed_eigenvalues(self):
        """mu=1: eigenvalues 1/2 at k=0 and 1/6 at k=1."""
        w = quantum_disk_weights(1.0, 1.0)
        z = power_UB(w, 1, 16)
        mz = to_matrix(z, 17)
        mzbar = to_matrix(adjoint(z), 17)
        eigs = np.diag(mzbar @ mz - mz @ mzbar).real
        assert eigs[0] == pytest.approx(0.5, abs=1e-15)
        assert eigs[1] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_rejects_out_of_range_mu(self):
        with pytest.raises(ValueError):
            quantum_disk_structure_check(1.5, 64)
