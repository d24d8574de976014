import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import (BoundaryFunction, TruncationWarning, abel_identity_check,
                   boundary_pairing, from_mode, identity,
                   inner_product_fourier,
                   integration_by_parts_residual, norm_fourier, power_UB,
                   random_element, u_power, ustar_power)
from oracles import inner_product

K = 128


class TestInnerProduct:
    def test_identity_pairs_to_reciprocal_sum(self, w2):
        """(1, 1) = sum_{k<=K} 1/A(k): a diagonal trace."""
        one = identity(K)
        expected = w2.inv_a_partial_sum(K)
        with pytest.warns(TruncationWarning):
            got = inner_product(one, one, w2)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got.imag == 0.0

    def test_disjoint_modes_are_orthogonal(self, w2):
        """(U, U*) = 0: no shared diagonal."""
        with pytest.warns(TruncationWarning):
            assert inner_product(u_power(1, K), ustar_power(1, K), w2) == 0.0

    def test_trace_route_matches_fourier_route(self, rng, w2):
        """(a, a) equals norm_fourier(a)^2 to 1e-12 on interior-supported
        elements: dual evaluation of the same pairing."""
        for _ in range(10):
            a = random_element(rng, K, -6, 6, k_support=K - 12)
            trace = inner_product(a, a, w2)
            fourier = norm_fourier(a, w2) ** 2
            assert trace.real == pytest.approx(fourier, rel=1e-12)
            assert abs(trace.imag) < 1e-12 * fourier

    def test_sesquilinear(self, rng, w2):
        a = random_element(rng, K, -4, 4, k_support=K - 10)
        b = random_element(rng, K, -4, 4, k_support=K - 10)
        c = random_element(rng, K, -4, 4, k_support=K - 10)
        alpha = 0.8 - 0.6j
        lhs = inner_product(alpha * a + c, b, w2)
        rhs = np.conj(alpha) * inner_product(a, b, w2) + inner_product(c, b, w2)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_parallelogram_law(self, rng, w2):
        a = random_element(rng, K, -4, 4, k_support=K - 10)
        b = random_element(rng, K, -4, 4, k_support=K - 10)
        lhs = norm_fourier(a + b, w2) ** 2 + norm_fourier(a - b, w2) ** 2
        rhs = 2 * norm_fourier(a, w2) ** 2 + 2 * norm_fourier(b, w2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_truncation_warning_on_edge_mass(self, w2):
        a = from_mode(0, np.ones(K + 1), K)  # no declared tail, mass at edge
        with pytest.warns(TruncationWarning):
            inner_product(a, a, w2)


class TestNormFourier:
    def test_zero(self, w2):
        from qdisk import zero
        assert norm_fourier(zero(K), w2) == 0.0

    def test_shift_norm_closed_form(self, w2):
        """||U||^2 = sum_k 1/A(k+1) = 1/4 - 1/(2(K+3)) at mu=1, scale=2
        (telescoping sum)."""
        expected = np.sqrt(0.25 - 1.0 / (2.0 * (K + 3)))
        assert norm_fourier(u_power(1, K), w2) == pytest.approx(expected,
                                                                rel=1e-14)

    def test_matches_inner_product(self, rng, w2):
        a = random_element(rng, K, -5, 5, k_support=K - 12)
        ip = inner_product_fourier(a, a, w2)
        assert norm_fourier(a, w2) ** 2 == pytest.approx(ip.real, rel=1e-14)

    def test_one_weight_evaluation_per_pairing(self, rng, w2):
        """A is evaluated once per pairing and sliced per mode; the sums are
        bitwise those of a per-mode evaluation of 1/A(k + max(m, 0))."""
        from qdisk import custom_weights
        calls = []
        w = custom_weights(lambda k: calls.append(k) or w2.a_fn(k), w2.b_fn,
                           validate=False)
        a = random_element(rng, K, -5, 5)
        b = random_element(rng, K, -3, 7)
        got = inner_product_fourier(a, b, w)
        assert len(calls) == 1
        ks = np.arange(K + 1)
        expected = 0.0 + 0.0j
        for m in set(a.modes) & set(b.modes):
            weight = 1.0 / w2.a_at(ks + max(m, 0))
            expected += np.sum(b.coeff(m) * np.conj(a.coeff(m)) * weight)
        assert got == complex(expected)


class TestAbelIdentity:
    def test_constant_first_sequence(self, rng):
        """f constant: both sides collapse to f (g_{n+1} - g_0)."""
        g = rng.standard_normal(12)
        report = abel_identity_check(np.full(12, 3.0), g, 10)
        assert report.passed
        assert report["summation-by-parts"].observed["difference"] < 1e-13

    def test_linear_case(self):
        report = abel_identity_check(np.arange(7.0), np.ones(7), 5)
        assert report.passed

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=24),
           st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=24))
    def test_arbitrary_sequences(self, f, g):
        n = min(len(f), len(g)) - 2
        report = abel_identity_check(f, g, n)
        assert report["summation-by-parts"].passed

    def test_trace_form_on_settled_tails(self, rng):
        """Sequences constant by k = n are exact for the trace form."""
        n = 256
        f = np.concatenate([rng.standard_normal(64), np.full(n + 2 - 64, 1.7)])
        g = np.concatenate([rng.standard_normal(64), np.full(n + 2 - 64, -0.4)])
        report = abel_identity_check(f, g, n)
        assert report["trace-form"].observed["difference"] < 1e-10


class TestBoundaryPairing:
    def test_mode_alignment(self):
        """∫ conj(1) e^{iφ} e^{-iφ} dφ/2π = 1 and
        ∫ conj(e^{iφ}) 1 e^{-iφ} dφ/2π = 0."""
        one = BoundaryFunction({0: 1.0 + 0.0j})
        e1 = BoundaryFunction({1: 1.0 + 0.0j})
        assert boundary_pairing(one, e1) == 1.0 + 0.0j
        assert boundary_pairing(e1, one) == 0.0 + 0.0j

    def test_general_sum(self):
        fa = BoundaryFunction({-1: 2.0j, 0: 1.0 + 0.0j, 2: 3.0 + 0.0j})
        fb = BoundaryFunction({0: 5.0 + 0.0j, 1: 1.0 - 1.0j, 3: 2.0 + 0.0j})
        expected = np.conj(2.0j) * 5.0 + 1.0 * (1.0 - 1.0j) + 3.0 * 2.0
        assert boundary_pairing(fa, fb) == expected


class TestIntegrationByParts:
    def test_identity_pair_vanishes(self, w2):
        one = identity(512)
        assert integration_by_parts_residual(one, one, w2) == 0.0

    def test_shift_against_identity(self, w2):
        """a = 1, b = U: (a, D̄b) telescopes to exactly 1 with the tail
        correction, cancelling the boundary pairing."""
        assert integration_by_parts_residual(identity(512), u_power(1, 512),
                                             w2) < 1e-13

    def test_kernel_generator_against_identity(self, w2):
        """a = UB(K), b = 1: Da = 0, D̄b = 0, and the pairing has no
        aligned modes, so the residual is zero despite the undeclared tail."""
        a = power_UB(w2, 1, 512)
        with pytest.warns(TruncationWarning):
            res = integration_by_parts_residual(a, identity(512), w2)
        assert res < 1e-6

    def test_random_declared_tail_pairs(self, rng, w2):
        for _ in range(10):
            a = random_element(rng, 512, -4, 4, declared_tails=True,
                               tail_start=256)
            b = random_element(rng, 512, -4, 4, declared_tails=True,
                               tail_start=256)
            assert integration_by_parts_residual(a, b, w2) < 1e-6

    def test_other_deformations(self, rng):
        from qdisk import quantum_disk_weights
        for mu in (0.3, 0.7):
            w = quantum_disk_weights(mu, 2.0)
            a = random_element(rng, 512, -3, 3, declared_tails=True,
                               tail_start=256)
            b = random_element(rng, 512, -3, 3, declared_tails=True,
                               tail_start=256)
            assert integration_by_parts_residual(a, b, w) < 1e-6
