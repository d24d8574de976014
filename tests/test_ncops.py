from dataclasses import replace

import numpy as np
import pytest

from qdisk import (BoundaryFunction, adjoint, apply_D, apply_Dbar, apply_Q,
                   apply_Qbar, boundary_operator_check, extend, from_mode,
                   identity, inner_product_fourier,
                   integration_by_parts_residual, kernel_basis, norm_bound_check,
                   norm_fourier, polar_split,
                   power_UB, quantum_disk_structure_check,
                   quantum_disk_weights, random_element, table_weights)
from qdisk.ncops import _blocks, _stencil
from qdisk.parametrix import _norm_bound
from qdisk.weights import WeightPair

import oracles

K = 128


def _interior_max(x, hi):
    if not x.modes:
        return 0.0
    return max(float(np.max(np.abs(c[: hi + 1]))) for c in x.modes.values())


def _commutator_oracle(a, z, w, dim):
    """A(K) [to_matrix(z), to_matrix(a)] — the matrix route."""
    ma = oracles.to_matrix(a, dim)
    mz = oracles.to_matrix(z, dim)
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
            got = oracles.to_matrix(apply_D(a, w2), K + 1)
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
            got = oracles.to_matrix(apply_Dbar(a, w2), K + 1)
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
            direct = oracles.to_matrix(apply_Dbar(a, w2), dim)
            via_d = oracles.to_matrix(apply_D(adjoint(a), w2), dim)
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

    @pytest.mark.parametrize("k_max, window", [(256, 8), (4096, 64)])
    def test_tail_window_scales_with_truncation(self, w2, k_max, window):
        """The restriction averages max(8, k_max // 64) coefficients."""
        report = boundary_operator_check(BoundaryFunction({1: 1.0 + 0.0j}),
                                         w2, k_max, "D")
        params = report["boundary-derivative-recovery"].params
        assert params["tail_window"] == window

    @pytest.mark.parametrize("which", ["dbar", "d", ""])
    def test_rejects_unknown_operator(self, w2, which):
        with pytest.raises(ValueError, match="which"):
            boundary_operator_check(BoundaryFunction({1: 1.0 + 0.0j}), w2,
                                    64, which)

    @pytest.mark.parametrize("which", ["D", "Dbar"])
    def test_recovery_fails_on_the_error_alone(self, w2, which):
        """f = 1 on modes -4..4: at K = 256 the weights pass the
        normalization check, but the window-mean error (0.087 under D,
        0.070 under D̄) is above 0.05, so the recovery check fails; at
        K = 512 (0.043 and 0.035) it passes."""
        f = BoundaryFunction({m: 1.0 for m in range(-4, 5)})
        coarse, fine = (boundary_operator_check(f, w2, k, which) for k in (256, 512))
        assert coarse["normalized-difference-limit"].passed
        assert coarse["boundary-derivative-recovery"].observed["max_error"] > 0.05
        assert not coarse["boundary-derivative-recovery"].passed
        assert fine["boundary-derivative-recovery"].observed["max_error"] < 0.05
        assert fine["boundary-derivative-recovery"].passed

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
        mz = oracles.to_matrix(z, 17)
        mzbar = oracles.to_matrix(adjoint(z), 17)
        eigs = np.diag(mzbar @ mz - mz @ mzbar).real
        assert eigs[0] == pytest.approx(0.5, abs=1e-15)
        assert eigs[1] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_rejects_out_of_range_mu(self):
        with pytest.raises(ValueError):
            quantum_disk_structure_check(1.5, 64)

    @pytest.mark.parametrize("k_max", [64, 256])
    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
    def test_equals_dense_matrix_route(self, mu, k_max):
        """The Fourier-form check observes exactly what the dense matrices do."""
        report = quantum_disk_structure_check(mu, k_max)
        assert ([r.observed for r in report.results]
                == oracles.structure_check_dense(mu, k_max))

    @pytest.mark.parametrize("k_max", [0, 1])
    def test_rejects_empty_interior(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            quantum_disk_structure_check(1.0, k_max)

    def test_smallest_interior_passes(self):
        assert quantum_disk_structure_check(1.0, 2).passed


def _memo_arrays(w):
    """Every array the weight memo holds: the table and the row of each kind
    and shift."""
    for key, entry in w.memo.items():
        if key == "table":
            yield from entry
        elif key != "k_max":
            yield entry[2]


class TestWeightMemo:
    @staticmethod
    def _results(w, a, b):
        """Every memo reader on a and b: D, D̄, both polar splits, Q, Q̄,
        the Fourier pairing, the norm bound and the adjoint identity."""
        out = [apply_D(a, w), apply_Dbar(a, w), *polar_split(a, w, "D"),
               *polar_split(a, w, "Dbar"), apply_Q(b, w), apply_Qbar(b, w)]
        scalars = [inner_product_fourier(a, b, w),
                   _norm_bound(1.0, 1.0, w, a.k_max)[0],
                   integration_by_parts_residual(a, a, w)]
        return [x.coeffs for x in out] + scalars

    def test_cold_and_warm_memo_agree_bitwise(self, rng):
        a = random_element(rng, 256, -4, 4, declared_tails=True, tail_start=100)
        b = random_element(rng, 256, -6, 6, k_support=128)
        cold = self._results(quantum_disk_weights(0.7), a, b)
        w = quantum_disk_weights(0.7)
        apply_D(random_element(rng, 256, -1, 1), w)  # a narrower memo that must grow
        grown = self._results(w, a, b)
        warm = self._results(w, a, b)
        assert w.memo["k_max"] == 256
        for x, y, z in zip(cold, grown, warm):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes() == np.asarray(z).tobytes()

    def test_memo_holds_one_truncation(self, rng):
        w = quantum_disk_weights(1.0)
        b = random_element(rng, 512, -3, 3, k_support=256)
        apply_Q(b, w)
        apply_Qbar(b, w)
        assert {len(x[-1]) for x in _memo_arrays(w) if x.ndim == 2} == {513}
        apply_D(random_element(rng, 4096, -2, 2), w)
        assert w.memo["k_max"] == 4096
        arrays = list(_memo_arrays(w))
        assert all(x.shape[1] == 4097 for x in arrays if x.ndim == 2)
        assert all(len(x) > 4097 for x in w.memo["table"])
        assert set(w.memo) == {"k_max", "table", ("amp", 1), ("on_c", 1),
                               ("on_next", 1), ("up", 1)}

    def test_memo_fills_only_the_kinds_and_modes_asked_for(self, rng):
        w = quantum_disk_weights(0.7)
        a = random_element(rng, 256, 2, 4)
        inner_product_fourier(a, a, w)
        assert set(w.memo) == {"k_max", "table", ("inv_a", 1)}
        assert w.memo["inv_a", 1][:2] == (2, 4)
        assert len(w.memo["table"][0]) == 256 + 4 + 1  # A up to k_max + 4
        apply_Dbar(a, w)
        apply_Dbar(random_element(rng, 256, -1, 0), w)  # grows to the union
        assert {key: w.memo[key][:2] for key in w.memo if key[-1] == -1} == {
            (kind, -1): (-1, 4) for kind in ("amp", "on_c", "on_next", "up")}

    @pytest.mark.filterwarnings("ignore::qdisk.TruncationWarning")
    def test_table_weights_need_only_the_range_each_reader_reads(self, rng):
        """A table ending at k_max serves the pairing at modes <= 0 and the
        norm-bound constant; the operators need the table to reach
        k_max + r + 1 (r the largest |mode|).  Pairings equal those of the
        closed-form weights the table was sampled from, and the constant its
        definition (1/B(0)) (Σ_{k<=k_max} 1/A(k) + tail), the tail being 0
        for tables."""
        qd = quantum_disk_weights(0.5)

        def sampled(k_hi):
            ks = np.arange(k_hi + 1)
            return table_weights(qd.a_at(ks), qd.b_at(ks))

        def constant(w):
            return (w.inv_a_partial_sum(k_max) + w.inv_a_tail(k_max)) / w.b_at(0)

        k_max = 40
        a = random_element(rng, k_max, -3, 0)
        b = random_element(rng, k_max, -3, 0)
        w = sampled(k_max)
        assert norm_fourier(a, w) == norm_fourier(a, qd)
        assert inner_product_fourier(a, b, w) == inner_product_fourier(a, b, qd)
        assert _norm_bound(1.0, 1.0, w, k_max)[0] == constant(w)
        with pytest.raises(ValueError, match="weight table ends"):
            apply_Q(b, w)
        wide = sampled(k_max + 4 + 1)  # Q reads modes -4..-1
        got = norm_bound_check(b, wide).results[0].observed
        want = norm_bound_check(b, qd).results[0].observed
        assert (got["lhs"], got["norm_b"]) == (want["lhs"], want["norm_b"])
        assert got["bound_constant"] == constant(wide)

    def test_warm_calls_evaluate_no_weights(self, rng, monkeypatch):
        w = quantum_disk_weights(1.0)
        a = random_element(rng, 128, -4, 4, declared_tails=True, tail_start=64)
        b = random_element(rng, 128, -6, 6, k_support=64)
        self._results(w, a, b)
        calls = []
        for name in ("a_at", "b_at", "log_b_cumsum"):
            original = getattr(WeightPair, name)
            monkeypatch.setattr(WeightPair, name,
                                lambda self, *args, _f=original, _name=name:
                                calls.append(_name) or _f(self, *args))
        self._results(w, a, b)
        assert calls == []
        self._results(quantum_disk_weights(1.0), a, b)
        assert calls  # the guard sees the fill of a cold memo


class TestModeByModeReference:
    @pytest.mark.filterwarnings("ignore::qdisk.TruncationWarning")
    @pytest.mark.parametrize("mu, k_max", [(0.3, 64), (1.0, 512)])
    def test_whole_array_kernels_equal_the_per_mode_loops(self, rng, mu, k_max):
        w = quantum_disk_weights(mu)
        elements = [random_element(rng, k_max, -6, 6),
                    random_element(rng, k_max, -5, 3, k_support=k_max // 2),
                    random_element(rng, k_max, -4, 4, declared_tails=True,
                                   tail_start=k_max // 3)]

        def same(got, want):
            assert list(got.modes) == sorted(want)
            for m, row in want.items():
                assert got.coeff(m).tobytes() == row.tobytes(), m

        for x in elements:
            for shift, which in ((+1, "D"), (-1, "Dbar")):
                same((apply_D if shift > 0 else apply_Dbar)(x, w),
                     oracles.mode_by_mode_apply(x, w, shift))
                for got, want in zip(polar_split(x, w, which),
                                     oracles.mode_by_mode_polar(x, w, shift)):
                    same(got, want)
                same((apply_Q if shift > 0 else apply_Qbar)(x, w),
                     oracles.mode_by_mode_solve(x, w, shift))
            for y in elements:
                assert (inner_product_fourier(x, y, w)
                        == oracles.mode_by_mode_pairing(x, y, w))

    @pytest.mark.parametrize("shift", [+1, -1])
    def test_scalar_stencil_is_the_row_of_the_array_call(self, shift):
        ms = np.arange(-12, 13)
        rows = _stencil(shift, ms)
        for i, m in enumerate(ms.tolist()):
            scalar = tuple(_stencil(shift, m))
            assert scalar == tuple(field[i] for field in rows), m
            assert scalar == oracles.stencil_row(shift, m), m

    @pytest.mark.filterwarnings("ignore::qdisk.TruncationWarning")
    @pytest.mark.parametrize("lo, hi", [(-5, -1), (-3, 0), (0, 4), (1, 5),
                                        (0, 0), (1, 1), (-1, -1), (-2, 2)])
    def test_one_sided_mode_ranges_equal_the_per_mode_loops(self, rng, lo, hi):
        """The kernels shift and sum the s = -1 rows as one block of the
        range; ranges on one side of it, or at its ends, hit every cut."""
        w, k_max = quantum_disk_weights(0.7), 32
        x = random_element(rng, k_max, lo, hi, declared_tails=True,
                           tail_start=k_max // 2)
        for shift, apply, solve in ((+1, apply_D, apply_Q),
                                    (-1, apply_Dbar, apply_Qbar)):
            for got, want in ((apply(x, w), oracles.mode_by_mode_apply(x, w, shift)),
                              (solve(x, w), oracles.mode_by_mode_solve(x, w, shift))):
                assert list(got.modes) == sorted(want)
                for m, row in want.items():
                    assert got.coeff(m).tobytes() == row.tobytes(), (shift, m)

    @pytest.mark.parametrize("shift", [+1, -1])
    def test_s_minus_one_rows_are_the_block(self, shift):
        for lo in range(-8, 9):
            for hi in range(lo - 1, 9):
                ms = np.arange(lo, hi + 1)
                down, fwd = _blocks(shift, lo)
                s = _stencil(shift, ms).s
                np.testing.assert_array_equal(ms[down], ms[s < 0])
                np.testing.assert_array_equal(ms[fwd], ms[s > 0])
