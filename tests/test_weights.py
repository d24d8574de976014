import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import (adjoint, check_conditions, constant_classical_weight,
                   from_mode,
                   ClassicalWeight, limit_diagnostics, power_UB,
                   quantum_disk_weights, table_weights, weights_from_json)
from oracles import to_matrix


class TestQuantumDiskWeights:
    def test_closed_forms_at_origin(self):
        """mu=1, scale=1: A(0) = 2, B(0) = sqrt(1/2) by direct evaluation."""
        w = quantum_disk_weights(1.0, 1.0)
        assert w.a_at(0) == pytest.approx(2.0, abs=0)
        assert w.b_at(0) == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_reciprocal_of_commutator_eigenvalue(self):
        """scale=1: A(1) = 6, the reciprocal of the commutator eigenvalue
        1/((1+1)(1+2)) at k = 1."""
        w = quantum_disk_weights(1.0, 1.0)
        assert w.a_at(1) == pytest.approx(6.0, abs=0)

    def test_reciprocal_relation_against_matrix_commutator(self):
        """scale=1: A(k) * eigenvalue of [z*, z] at k recovers 1 exactly.

        The eigenvalue is a difference of B^2 values approaching 1, so its
        float representation carries eps-level absolute noise that the
        unbounded factor A(k) amplifies; the admissible defect is A(k)*eps.
        """
        for mu in (0.3, 0.7, 1.0):
            w = quantum_disk_weights(mu, 1.0)
            k_max = 128
            z = from_mode(1, w.b_at(np.arange(k_max + 1)), k_max)
            mz = to_matrix(z, k_max + 1)
            mzbar = to_matrix(adjoint(z), k_max + 1)
            eigs = np.diag(mzbar @ mz - mz @ mzbar)[:-1]
            ks = np.arange(k_max)
            a = w.a_at(ks)
            assert np.all(np.abs(a * eigs.real - 1.0) <= a * 5e-15 + 1e-14)

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(0.05, 1.0), scale=st.floats(0.1, 10.0),
           k=st.integers(0, 10**6))
    def test_shift_modulus_increasing_below_one(self, mu, scale, k):
        """B(k+1) > B(k) and B(k) < 1 for any admissible parameters."""
        w = quantum_disk_weights(mu, scale)
        assert w.b_at(k + 1) > w.b_at(k)
        assert w.b_at(k) < 1.0

    def test_normalized_difference_identity(self):
        """Exact rearrangement at scale=2:
        A(k)(B(k+1)-B(k)) = 2(1+k mu) / ((1+(k+2) mu)(B(k+1)+B(k))).

        The left side subtracts B values that agree to O(1/k^2) and then
        multiplies by A ~ k^2, so its float evaluation carries A(k)*eps of
        noise; the identity is checked within that envelope (and to 1e-13
        outright on the small-k range where no cancellation occurs).
        """
        ks = np.arange(10_001)
        for mu in (0.3, 0.7, 1.0):
            w = quantum_disk_weights(mu, 2.0)
            b, b1 = w.b_at(ks), w.b_at(ks + 1)
            lhs = w.a_at(ks) * (b1 - b)
            rhs = 2.0 * (1.0 + ks * mu) / ((1.0 + (ks + 2) * mu) * (b1 + b))
            assert np.all(np.abs(lhs - rhs) <= w.a_at(ks) * 1e-15)
            np.testing.assert_allclose(lhs[:5], rhs[:5], rtol=1e-13, atol=0)

    def test_domain_errors(self):
        for mu, scale in ((0.0, 2.0), (1.5, 2.0), (-0.2, 2.0), (0.5, 0.0),
                          (0.5, -1.0), (0.5, np.nan), (0.5, np.inf),
                          (np.nan, 2.0)):
            with pytest.raises(ValueError):
                quantum_disk_weights(mu, scale)

    def test_partial_sum_and_tail_closed_forms(self):
        """sum_{k<=K} 1/A = (1/s)(1 - 1/(1+(K+1)mu)), tail = the complement."""
        for mu, scale in ((0.3, 2.0), (1.0, 2.0), (0.7, 1.0)):
            w = quantum_disk_weights(mu, scale)
            for k_max in (10, 100, 1000):
                exact = (1.0 - 1.0 / (1.0 + (k_max + 1) * mu)) / scale
                assert w.inv_a_partial_sum(k_max) == pytest.approx(exact, rel=1e-13)
                assert w.inv_a_tail(k_max) == pytest.approx(1.0 / scale - exact,
                                                            rel=1e-13)

    def test_b_minus_one_convention(self):
        w = quantum_disk_weights(0.5, 2.0)
        assert w.b_at(-1) == 0.0
        np.testing.assert_array_equal(w.b_at(np.array([-1, -1])), [0.0, 0.0])
        with pytest.raises(ValueError):
            w.b_at(-2)
        with pytest.raises(ValueError):
            w.a_at(-1)


class TestCheckConditions:
    def test_canonical_weights_pass(self):
        """scale=2, k_max=1e4: all booleans true and the normalized
        difference is within 0.05 of 1, decreasing along the samples."""
        report = check_conditions(quantum_disk_weights(1.0, 2.0), 10_000)
        assert report.passed
        cond3 = report["normalized-difference-limit"]
        assert cond3.observed["distance_to_one"] < 0.05
        dists = np.abs(np.asarray(cond3.observed["A_times_B_increment"]) - 1.0)
        assert np.all(np.diff(dists) < 0)

    def test_commutator_normalization_fails_limit(self):
        """scale=1: the normalized difference converges to 1/2 and the
        distance-to-1 check fails."""
        report = check_conditions(quantum_disk_weights(1.0, 1.0), 10_000)
        assert not report.passed
        cond3 = report["normalized-difference-limit"]
        seq = np.asarray(cond3.observed["A_times_B_increment"])
        assert abs(seq[-1] - 0.5) < 0.01
        assert not cond3.passed
        # conditions 1-2 still hold for scale=1
        assert report["positivity"].passed
        assert report["shift-monotone-bounded"].passed

    def test_harmonic_table_fails_cauchy(self):
        """A(k) = k+1 diverges logarithmically: the partial-sum increment
        over the last decade stays O(log 10)."""
        ks = np.arange(1002, dtype=float)
        w = table_weights(ks + 1.0, 1.0 - 1.0 / (ks + 2.0), validate=False)
        report = check_conditions(w, 1000)
        summable = report["inverse-weight-summable"]
        assert not summable.passed
        assert summable.observed["last_decade_increment"] > 1.0

    def test_small_kmax_rejected(self):
        with pytest.raises(ValueError):
            check_conditions(quantum_disk_weights(1.0, 2.0), 8)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            check_conditions(quantum_disk_weights(1.0, 2.0), 100, tol=tol)

    def test_quantum_tail_bound_recorded(self):
        w = quantum_disk_weights(0.5, 2.0)
        report = check_conditions(w, 100)
        bound = report["inverse-weight-summable"].observed["tail_bound"]
        # the closed-form tail that the parametrix norm bound uses
        assert bound == w.inv_a_tail(100) == 1.0 / (2.0 * (1.0 + 101 * 0.5))


class TestLimitDiagnostics:
    def test_n_zero_all_sequences_vanish(self, w2):
        report = limit_diagnostics(w2, 0, [1, 10, 100])
        for result in report.results:
            np.testing.assert_array_equal(result.observed["values"], 0.0)
            np.testing.assert_array_equal(result.observed["errors"], 0.0)

    def test_errors_decrease_along_probes(self, w2):
        report = limit_diagnostics(w2, 1, [100, 1000, 10_000])
        assert report.passed
        for result in report.results:
            errors = np.asarray(result.observed["errors"])
            assert np.all(np.diff(errors) < 0)

    def test_three_step_telescoped_limit(self):
        """mu=0.5, n=3, probe 1e4: A(k+n)(B(k+n)-B(k)) within 0.1 of 3."""
        w = quantum_disk_weights(0.5, 2.0)
        report = limit_diagnostics(w, 3, [10_000])
        seq = report["A(k+n)(B(k+n)-B(k))"].observed["values"]
        assert abs(seq[0] - 3.0) < 0.1

    def test_signed_targets(self, w2):
        """The two backward differences tend to -n, the forward ones to +n."""
        report = limit_diagnostics(w2, 2, [10_000])
        targets = [r.expected["target"] for r in report.results]
        assert targets == [-2.0, -2.0, 2.0, 2.0]
        for result in report.results:
            assert abs(result.observed["values"][0]
                       - result.expected["target"]) < 0.01

    def test_errors_that_grow_and_stay_large_fail(self):
        """Scale 1 makes A half the size that normalises the differences, so
        every sequence tends to half its target.  With the probes in
        descending order the errors of the backward differences grow
        (1.00005, then 1.0048) and end above 0.5: those checks fail, and so
        does the report.  Scale 2 passes on the same probes."""
        for scale, passed in ((1.0, [False, False, True, True]), (2.0, [True] * 4)):
            report = limit_diagnostics(quantum_disk_weights(1.0, scale), 2,
                                       [10_000, 100])
            assert [r.passed for r in report.results] == passed, scale
            assert report.passed == all(passed)

    def test_negative_probe_rejected(self, w2):
        with pytest.raises(ValueError):
            limit_diagnostics(w2, 1, [-3])


class TestTableAndCustomWeights:
    def test_non_monotone_b_rejected_at_construction(self):
        with pytest.raises(ValueError, match="increasing"):
            table_weights([1.0, 2.0, 3.0], [0.5, 0.4, 0.6])

    def test_b_plateau_rejected_at_the_repeat(self):
        """B(2) = B(1) stays in (0, 1) but is not strictly increasing."""
        with pytest.raises(ValueError,
                           match="strictly increasing; it fails first at k=2"):
            table_weights([1.0, 2.0, 3.0, 4.0], [0.3, 0.5, 0.5, 0.6])

    def test_b_above_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            table_weights([1.0, 2.0, 3.0], [0.5, 0.9, 1.1])

    def test_infinite_a_rejected_at_the_first_bad_k(self):
        with pytest.raises(ValueError,
                           match="finite and positive; it fails first at k=1"):
            table_weights([1.0, np.inf, 3.0], [0.5, 0.6, 0.7])

    def test_evaluation_beyond_table_raises(self):
        w = table_weights([1.0, 2.0], [0.3, 0.6])
        with pytest.raises(ValueError, match="table ends"):
            w.a_at(5)
        assert w.inv_a_tail(1) == 0.0

    def test_json_round_trip(self):
        w = quantum_disk_weights(0.25, 2.0)
        w2 = weights_from_json(w.to_json_dict())
        assert w2.descriptor == w.descriptor
        ks = np.arange(50)
        np.testing.assert_array_equal(w.a_at(ks), w2.a_at(ks))

        t = table_weights([1.0, 2.0, 4.0], [0.3, 0.5, 0.6])
        t2 = weights_from_json(t.to_json_dict())
        np.testing.assert_array_equal(t.b_at(np.arange(3)),
                                      t2.b_at(np.arange(3)))


class TestClassicalWeight:
    def test_constant_weight(self):
        f = constant_classical_weight()
        assert f.at(1.0) == 2.0
        np.testing.assert_array_equal(f.at(np.linspace(0, 1, 5)), 2.0)

    def test_boundary_value_enforced(self):
        with pytest.raises(ValueError, match="F\\(1\\)"):
            ClassicalWeight(lambda rho: np.full_like(rho, 1.5))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            ClassicalWeight(lambda rho: 2.0 * (rho - 0.25))
