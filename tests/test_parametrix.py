import warnings

import numpy as np
import pytest

from qdisk import (DecompositionError, TruncationWarning, adjoint, apply_D,
                   apply_Dbar, apply_Q, apply_Qbar, boundary_value_decomposition,
                   element, from_mode, identity, norm_bound_check, norm_fourier,
                   power_UB, random_element, u_power, zero)
from qdisk.parametrix import _norm_bound

K = 512


def _mask_to_valid(b):
    """Zero the invalid edge entries of a difference-operator output."""
    return element(b.k_max, {m: np.where(np.arange(b.k_max + 1) <= b.k_valid,
                                         c, 0.0)
                             for m, c in b.modes.items()})


class TestRightInverse:
    def test_zero_maps_to_zero(self, w2):
        out = apply_Q(zero(K), w2)
        assert not out.modes
        out = apply_Qbar(zero(K), w2)
        assert not out.modes

    def test_d_after_q_is_identity(self, rng, w2):
        """D(Qb) = b to 1e-12 relative for interior-supported inputs."""
        for _ in range(10):
            b = random_element(rng, K, -6, 6, k_support=K // 2)
            residual = norm_fourier(apply_D(apply_Q(b, w2), w2) - b, w2)
            assert residual / norm_fourier(b, w2) < 1e-12

    def test_dbar_after_qbar_is_identity(self, rng, w2):
        for _ in range(10):
            b = random_element(rng, K, -6, 6, k_support=K // 2)
            residual = norm_fourier(apply_Dbar(apply_Qbar(b, w2), w2) - b, w2)
            assert residual / norm_fourier(b, w2) < 1e-12

    def test_other_deformations(self, rng):
        from qdisk import quantum_disk_weights
        for mu in (0.3, 0.7):
            w = quantum_disk_weights(mu, 2.0)
            b = random_element(rng, K, -4, 4, k_support=K // 2)
            residual = norm_fourier(apply_D(apply_Q(b, w), w) - b, w)
            assert residual / norm_fourier(b, w) < 1e-12

    def test_tail_sum_spot_value(self, w2):
        """Input at mode +1 feeds output mode 0 through the backward tail
        sum sum_{j>=k} 1/(B(j) A(1+j)); spot-checked against direct
        summation, single term at k = k_max."""
        q = apply_Q(u_power(1, K), w2)
        for k in (0, 37, K - 1, K):
            js = np.arange(k, K + 1)
            direct = np.sum(1.0 / (w2.b_at(js) * w2.a_at(js + 1)))
            assert q.coeff(0)[k] == pytest.approx(direct, rel=1e-13)
        assert q.coeff(0)[K] == pytest.approx(
            1.0 / (w2.b_at(K) * w2.a_at(K + 1)), rel=1e-13)

    def test_forced_side_forward_substitution(self, rng, w2):
        """Row-by-row substitution of the two-term recursions reproduces
        the closed forms at k <= 32 — an independent oracle."""
        b = random_element(rng, 64, -3, 3, k_support=65)
        q = apply_Q(b, w2)
        for mb in range(-3, 1):  # f-side outputs, forced from k = 0
            n = 1 - mb
            p = b.coeff(mb)
            f = np.zeros(65, dtype=complex)
            f[0] = -p[0] / (w2.a_at(0) * w2.b_at(n - 1))
            for k in range(1, 33):
                f[k] = (w2.b_at(k - 1) * f[k - 1]
                        - p[k] / w2.a_at(k)) / w2.b_at(k + n - 1)
            np.testing.assert_allclose(q.coeff(mb - 1)[:33], f[:33],
                                       rtol=1e-11, atol=1e-13)
        for mb in range(1, 4):  # g-side, forward from the closed-form g(0)
            n = mb - 1
            qq = b.coeff(mb)
            g = np.zeros(66, dtype=complex)
            g[0] = q.coeff(n)[0]
            for k in range(33):
                g[k + 1] = (w2.b_at(k + n) * g[k]
                            - qq[k] / w2.a_at(k + n + 1)) / w2.b_at(k)
            np.testing.assert_allclose(q.coeff(n)[:33], g[:33],
                                       rtol=1e-11, atol=1e-13)

    def test_qbar_row_by_row_substitution(self, rng, w2):
        """Row-by-row substitution of the D̄ recursions reproduces Q̄ at
        k <= 32: an oracle that shares nothing with Q's closed form."""
        b = random_element(rng, 64, -3, 3, k_support=65)
        q = apply_Qbar(b, w2)
        for mb in range(0, 4):  # g-side outputs, forced from k = 0
            n = mb + 1
            p = b.coeff(mb)
            g = np.zeros(65, dtype=complex)
            g[0] = p[0] / (w2.a_at(n - 1) * w2.b_at(n - 1))
            for k in range(1, 33):
                g[k] = (w2.b_at(k - 1) * g[k - 1]
                        + p[k] / w2.a_at(k + n - 1)) / w2.b_at(k + n - 1)
            np.testing.assert_allclose(q.coeff(n)[:33], g[:33],
                                       rtol=1e-11, atol=1e-13)
        for mb in range(-3, 0):  # f-side, forward from the closed-form f(0)
            n = -(mb + 1)
            qq = b.coeff(mb)
            f = np.zeros(66, dtype=complex)
            f[0] = q.coeff(mb + 1)[0]
            for k in range(33):
                f[k + 1] = (w2.b_at(k + n) * f[k]
                            + qq[k] / w2.a_at(k)) / w2.b_at(k)
            np.testing.assert_allclose(q.coeff(mb + 1)[:33], f[:33],
                                       rtol=1e-11, atol=1e-13)

    def test_conjugation_route_consistency(self, rng, w2):
        """(Q̄ b)* = Q(-A b* A^{-1}): both routes coefficientwise."""
        dim = K + 1
        ks = np.arange(dim)
        b = random_element(rng, K, -4, 4, k_support=K // 2)
        lhs = adjoint(apply_Qbar(b, w2))
        bstar = adjoint(b)
        conj_modes = {}
        for m, c in bstar.modes.items():
            factor = (w2.a_at(ks + m) / w2.a_at(ks) if m >= 0
                      else w2.a_at(ks) / w2.a_at(ks - m))
            conj_modes[m] = -factor * c
        rhs = apply_Q(element(K, conj_modes), w2)
        for m in set(lhs.modes) | set(rhs.modes):
            scale = 1.0 + np.max(np.abs(rhs.coeff(m)))
            assert np.max(np.abs(lhs.coeff(m) - rhs.coeff(m))) < 1e-12 * scale

    def test_tail_warning_with_bound(self, w2):
        """Mass at the truncation edge on a positive mode triggers the
        computable tail bound."""
        b = from_mode(2, np.ones(K + 1), K)
        with pytest.warns(TruncationWarning, match="bounded by"):
            apply_Q(b, w2)

    def test_tail_warning_reports_its_bound(self, w2):
        """The warning quotes the edge mass and the bound it implies: the
        edge mass times ``inv_a_tail(K)``, the bound on sum_{j > K} 1/A(j)."""
        coeffs = np.zeros(K + 1)
        coeffs[-1] = 3.0
        with pytest.warns(TruncationWarning) as caught:
            apply_Q(from_mode(2, coeffs, K), w2)
        bound = 3.0 * w2.inv_a_tail(K)
        assert bound > 0.0
        assert [str(c.message) for c in caught] == [
            f"input has coefficients of size {3.0:.3e} at the truncation "
            f"edge; neglected parametrix tail bounded by {bound:.3e}"]

    @pytest.mark.parametrize("apply, mode", [(apply_Q, 2), (apply_Qbar, -2)])
    def test_tail_warning_threshold(self, w2, apply, mode):
        """The edge mass of a mode whose sum runs forward warns above 1e-9:
        at 2e-9, not at 5e-10."""
        for edge, warns in ((2e-9, True), (5e-10, False)):
            coeffs = np.zeros(K + 1)
            coeffs[-1] = edge
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                apply(from_mode(mode, coeffs, K), w2)
            assert any(issubclass(c.category, TruncationWarning)
                       for c in caught) == warns, edge


class TestNormBound:
    def test_zero_input(self, w2):
        report = norm_bound_check(zero(K), w2)
        assert report.passed

    def test_random_suite(self, rng, w2):
        """The bound constant at mu=1, scale=2 is (1/B(0)) * (1/2) = 1/sqrt(2);
        no violations across the seeded suite."""
        worst = 0.0
        for _ in range(25):
            b = random_element(rng, K, -6, 6, k_support=K // 2)
            result = norm_bound_check(b, w2)["norm-bound"]
            assert result.passed
            worst = max(worst, result.observed["ratio"])
        assert worst <= 1.0 / np.sqrt(2.0) + 1e-12


class TestBoundaryValueDecomposition:
    def test_pure_kernel_element(self, w2):
        """(U B(K))^2 splits as b = 0 with coefficients (0, 0, 1) and
        boundary value 1 at mode +2."""
        dec = boundary_value_decomposition(power_UB(w2, 2, K), w2)
        np.testing.assert_allclose(dec.kernel_coeffs, [0.0, 0.0, 1.0],
                                   rtol=0, atol=1e-12)
        assert dec.boundary.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert norm_fourier(_mask_to_valid(dec.b), w2) < 1e-10

    def test_round_trip_through_q(self, rng, w2):
        """a = Qb0 recovers b0 on the interior with kernel part ~ 0."""
        b0 = random_element(rng, K, -4, 4, k_support=200)
        dec = boundary_value_decomposition(apply_Q(b0, w2), w2)
        assert np.max(np.abs(dec.kernel_coeffs)) < 1e-10
        hi = 199
        for m in b0.modes:
            diff = np.abs(dec.b.coeff(m)[:hi] - b0.coeff(m)[:hi])
            scale = float(w2.a_at(hi + 4)) * (1 + np.max(np.abs(b0.coeff(m))))
            assert np.max(diff) < 1e-13 * scale

    def test_kernel_shift_recovered_with_series_boundary_values(self, rng, w2):
        """a = Qb0 + 3 (U B(K)): coefficient 3 at mode 1, and the negative
        boundary modes reproduce the convergent series directly."""
        b0 = random_element(rng, K, -4, 4, k_support=200)
        a = apply_Q(b0, w2) + 3.0 * power_UB(w2, 1, K)
        dec = boundary_value_decomposition(a, w2)
        assert dec.kernel_coeffs[1] == pytest.approx(3.0, abs=1e-8)
        ks = np.arange(K + 1)
        lb = w2.log_b_cumsum(K + 8)
        for mode in (-1, -2, -3):
            n = -mode
            s = lb[ks + n - 1] - lb[ks]
            series = -np.sum(np.exp(s) * b0.coeff(mode + 1) / w2.a_at(ks))
            assert dec.boundary.coeff(mode) == pytest.approx(series, abs=1e-8)

    def test_kernel_shaped_tail_deviations_are_absorbed(self, w2):
        """U is not in the kernel, but a - Qb still splits exactly: the
        g-side homogeneous solutions are B-products, and single-mode
        truncation deviations are themselves kernel-shaped."""
        dec = boundary_value_decomposition(u_power(1, K), w2)
        assert dec.residual < 1e-10

    def test_mismatch_raises_below_float_floor(self, rng, w2):
        """The split is an algebraic identity, so the roundoff floor is the
        only obstruction for consistent data; a tolerance below it must be
        reported as a mismatch rather than silently accepted."""
        b0 = random_element(rng, K, -2, 2, k_support=64)
        a = apply_Q(b0, w2)
        with pytest.raises(DecompositionError, match="residual"):
            boundary_value_decomposition(a, w2, tol=1e-18)


def test_norm_bound_flag_reads_the_bound(w2):
    """The flag is the inequality ||Qb|| <= C ||b|| itself: False at twice
    the bound, True on it."""
    constant, _ = _norm_bound(0.0, 1.0, w2, K)
    assert constant > 0.0
    assert _norm_bound(2.0 * constant * 3.0, 3.0, w2, K) == (constant, False)
    assert _norm_bound(constant * 3.0, 3.0, w2, K) == (constant, True)
