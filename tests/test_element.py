import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import (BoundaryFunction, ToeplitzElement, TruncationWarning,
                   adjoint, apply_D, element, extend, from_mode, identity,
                   multiply, power_UB, random_element, restrict, u_power,
                   ustar_power, zero)
from oracles import to_matrix

K = 64


class TestToMatrix:
    def test_shift_is_subdiagonal(self):
        m = to_matrix(u_power(1, K), 8)
        expected = np.diag(np.ones(7), -1)
        np.testing.assert_array_equal(m, expected)

    def test_adjoint_shift_is_superdiagonal(self):
        """U* e_0 = 0: the (0,0) entry stays empty."""
        m = to_matrix(ustar_power(1, K), 8)
        expected = np.diag(np.ones(7), +1)
        np.testing.assert_array_equal(m, expected)
        assert m[0, 0] == 0.0

    def test_indicator_diagonal(self):
        """chi(K) with chi(0) = 0 is diag(0, 1, 1, ...)."""
        chi = from_mode(0, np.concatenate([[0.0], np.ones(K)]), K)
        m = to_matrix(chi, 6)
        np.testing.assert_array_equal(m, np.diag([0, 1, 1, 1, 1, 1]))

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            to_matrix(identity(K), K + 2)


class TestMultiply:
    def test_normal_ordering_rule(self, rng):
        """U* f(K) = f(K+1) U*: exact coefficient shift."""
        f = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
        prod = multiply(ustar_power(1, K), from_mode(0, f, K))
        np.testing.assert_array_equal(prod.coeff(-1)[:-1], f[1:])

    def test_identity_is_neutral(self, rng):
        a = random_element(rng, K, -4, 4)
        prod = multiply(a, identity(K))
        for m in a.modes:
            np.testing.assert_allclose(prod.coeff(m), a.coeff(m),
                                       rtol=0, atol=1e-15)

    def test_weighted_shift_times_adjoint(self, w2):
        """(U B(K)) (B(K) U*) = B(K-1)^2 chi(K): matrix-oracle cross-check."""
        z = power_UB(w2, 1, K)
        prod = multiply(z, adjoint(z))
        dim = K - 4
        expected = to_matrix(z, K + 1) @ to_matrix(adjoint(z), K + 1)
        np.testing.assert_allclose(to_matrix(prod, K + 1)[:dim, :dim],
                                   expected[:dim, :dim], rtol=0, atol=1e-14)
        ks = np.arange(1, dim)
        np.testing.assert_allclose(prod.coeff(0)[ks], w2.b_at(ks - 1) ** 2,
                                   rtol=1e-14, atol=0)
        assert prod.coeff(0)[0] == 0.0

    def test_matrix_homomorphism_on_interior(self, rng, w2):
        """to_matrix(a b) equals to_matrix(a) to_matrix(b) on the block left
        untouched by truncation (relative to the product's magnitude)."""
        for _ in range(5):
            a = random_element(rng, K, -3, 2)
            b = random_element(rng, K, -2, 3)
            dim = K + 1
            oracle = to_matrix(a, dim) @ to_matrix(b, dim)
            got = to_matrix(multiply(a, b), dim)
            hi = multiply(a, b).k_valid + 1
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs((got - oracle)[:hi, :hi])) <= 1e-12 * scale

    def test_interior_bound_bookkeeping(self, rng):
        a = random_element(rng, K, -3, 2)
        b = random_element(rng, K, -2, 3)
        assert multiply(a, b).k_valid == K - (3 + 2 + 2 + 3)

    def test_empty_interior_warns(self, rng):
        a = random_element(rng, 8, -3, 3)
        b = random_element(rng, 8, -3, 3)
        with pytest.warns(TruncationWarning):
            multiply(a, b)

    def test_empty_interior_is_not_valid(self, rng):
        a = random_element(rng, 10, -6, 6)
        with pytest.warns(TruncationWarning):
            assert multiply(a, a).k_valid == -1

    def test_shared_kmax_required(self, rng):
        with pytest.raises(ValueError, match="k_max"):
            multiply(identity(8), identity(16))


class TestAdjoint:
    def test_shift_pair(self):
        assert np.array_equal(adjoint(u_power(1, K)).coeff(-1),
                              ustar_power(1, K).coeff(-1))

    def test_weighted_shift(self, w2):
        """(U B(K))* = B(K) U*: same k-indexing, conjugated, mode flipped."""
        z = power_UB(w2, 1, K)
        zbar = adjoint(z)
        np.testing.assert_allclose(zbar.coeff(-1), w2.b_at(np.arange(K + 1)),
                                   rtol=5e-15, atol=0)

    def test_scalar_conjugation(self):
        a = 1j * identity(K)
        np.testing.assert_array_equal(adjoint(a).coeff(0),
                                      np.full(K + 1, -1j))

    def test_conjugate_transpose_exact(self, rng):
        a = random_element(rng, K, -5, 5)
        dim = K + 1
        np.testing.assert_array_equal(to_matrix(adjoint(a), dim),
                                      to_matrix(a, dim).conj().T)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_involution(self, seed):
        a = random_element(np.random.default_rng(seed), 16, -3, 3)
        aa = adjoint(adjoint(a))
        assert set(aa.modes) == set(a.modes)
        for m in a.modes:
            np.testing.assert_array_equal(aa.coeff(m), a.coeff(m))


class TestPowerUB:
    def test_zeroth_power_is_identity(self, w2):
        p = power_UB(w2, 0, K)
        np.testing.assert_array_equal(p.coeff(0), np.ones(K + 1))

    def test_first_power(self, w2):
        np.testing.assert_allclose(power_UB(w2, 1, K).coeff(1),
                                   w2.b_at(np.arange(K + 1)),
                                   rtol=5e-15, atol=0)

    def test_third_power_at_origin(self, w2):
        """B(0)B(1)B(2) = sqrt(1/2 * 2/3 * 3/4) = 1/2 at mu = 1."""
        p = power_UB(w2, 3, K)
        assert p.coeff(3)[0] == pytest.approx(0.5, rel=1e-14)

    def test_matches_repeated_multiplication(self, w2):
        z = power_UB(w2, 1, K)
        z3 = multiply(multiply(z, z), z)
        np.testing.assert_allclose(power_UB(w2, 3, K).coeff(3)[: K - 6],
                                   z3.coeff(3)[: K - 6], rtol=1e-13, atol=0)

    def test_coefficients_increase_toward_one(self, w2):
        for n in (1, 2, 5):
            c = power_UB(w2, n, 512).coeff(n).real
            assert np.all(np.diff(c) > 0)
            assert c[-1] < 1.0


class TestRestrictExtend:
    def test_declared_tail_is_exact(self):
        a = from_mode(2, np.full(K + 1, 5.0), K, tail=5.0)
        f = restrict(a, 8)
        assert f.coeff(2) == 5.0 + 0.0j
        assert f.variation[2] == 0.0

    def test_kernel_generator_boundary_tends_to_one(self, w2):
        """Products of B approach 1; within 0.01 at k_max = 512."""
        for n in (1, 2, 4):
            f = restrict(power_UB(w2, n, 512), 16)
            assert abs(f.coeff(n) - 1.0) < 0.01

    def test_vanishing_sequence(self):
        ks = np.arange(K + 1)
        a = from_mode(-1, 1.0 / (ks + 1.0), K)
        f = restrict(a, 8)
        assert abs(f.coeff(-1)) < 2.0 / K
        assert f.variation[-1] < 2.0 / K

    def test_variation_is_the_window_spread(self):
        """An undeclared mode records max |window - mean| over its last 16
        valid coefficients: for the ramp 0, 1/2, ..., 15/2 ending at k_valid
        the mean and the spread are both 15/4, exactly."""
        ks = np.arange(K + 1)
        a = replace(from_mode(3, 0.5 * (ks - 40), K), k_valid=55)
        f = restrict(a)
        assert f.coeff(3) == 3.75
        assert f.variation[3] == 3.75

    def test_no_valid_coefficient_is_unbounded(self, rng):
        a = random_element(rng, 10, -6, 6)
        with pytest.warns(TruncationWarning):
            p = multiply(a, a)
        with pytest.warns(TruncationWarning, match="k_valid=-1"):
            f = restrict(p, 8)
        assert set(f.variation) == set(p.modes)
        assert all(v == np.inf for v in f.variation.values())

    def test_extend_constant_is_identity_element(self):
        a = extend(BoundaryFunction({0: 1.0 + 0.0j}), K)
        np.testing.assert_array_equal(a.coeff(0), np.ones(K + 1))
        assert a.tail(0) == 1.0 + 0.0j

    def test_extend_single_positive_mode_is_shift(self):
        a = extend(BoundaryFunction({1: 1.0 + 0.0j}), K)
        np.testing.assert_array_equal(to_matrix(a, 8),
                                      to_matrix(u_power(1, K), 8))

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(-6, 6),
                           st.complex_numbers(max_magnitude=1e6,
                                              allow_nan=False,
                                              allow_infinity=False),
                           min_size=1, max_size=9))
    def test_restrict_extend_round_trip(self, modes):
        f = BoundaryFunction(modes)
        g = restrict(extend(f, 32), 4)
        for m in modes:
            assert g.coeff(m) == f.coeff(m)


class TestSerialization:
    def test_element_round_trip(self, rng):
        a = random_element(rng, 16, -3, 3, declared_tails=True, tail_start=8)
        b = ToeplitzElement.from_json_dict(a.to_json_dict())
        assert b.k_max == a.k_max and b.tail_start == a.tail_start
        for m in a.modes:
            np.testing.assert_array_equal(a.coeff(m), b.coeff(m))
            assert a.tail(m) == b.tail(m)

    def test_round_trip_keeps_validity_bound(self, rng, w2):
        a = apply_D(random_element(rng, 10, -2, 2), w2)
        assert a.k_valid == 9
        assert ToeplitzElement.from_json_dict(a.to_json_dict()).k_valid == 9

    def test_absent_validity_bound_means_whole_range(self, rng):
        data = random_element(rng, 10, -2, 2).to_json_dict()
        del data["k_valid"]
        assert ToeplitzElement.from_json_dict(data).k_valid == 10

    def test_absent_zero_and_declared_modes_round_trip(self):
        """Absent modes (tail 0), present all-zero modes with and without a
        declared tail, and declared nonzero tails keep their tail()."""
        a = element(K, {-3: [1.0, 2.0j], 0: 0.0, 1: 3.0, 4: [0.0]},
                    tails={1: 3.0, 4: 0.0}, tail_start=5)
        b = ToeplitzElement.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
        assert list(b.modes) == [-3, 0, 1, 4]
        assert (b.k_max, b.tail_start, b.k_valid) == (a.k_max, a.tail_start, a.k_valid)
        for m in range(-5, 7):
            assert b.tail(m) == a.tail(m), m
            np.testing.assert_array_equal(b.coeff(m), a.coeff(m))
        assert [a.tail(m) for m in (-4, -3, 0, 1, 2, 4)] == [0, None, None, 3, 0, 0]
        assert 2 not in b.modes and 4 in b.modes and 4 in b.tails

    def test_boundary_round_trip(self):
        f = BoundaryFunction({-2: 1.0 + 2.0j, 0: 0.5 + 0.0j, 4: -1.0j})
        assert BoundaryFunction.from_json_dict(f.to_json_dict()).modes == f.modes


class TestLinearStructure:
    def test_add_and_scale(self, rng):
        a = random_element(rng, 16, -2, 2)
        b = random_element(rng, 16, -2, 2)
        c = 2.0 * a + b - a
        for m in c.modes:
            np.testing.assert_allclose(c.coeff(m), a.coeff(m) + b.coeff(m),
                                       rtol=0, atol=1e-15)

    def test_sum_declares_its_tails_from_the_later_start(self, rng):
        """A declared tail of a sum is exact only from the later of the two
        tail_starts on: before it, one summand is still off its tail."""
        a = random_element(rng, 16, -2, 2, declared_tails=True, tail_start=3)
        b = random_element(rng, 16, -2, 2, declared_tails=True, tail_start=9)
        for c in (a + b, b + a):
            assert c.tail_start == 9
            for m in c.modes:
                assert np.all(c.coeff(m)[9:] == c.tail(m))
                assert not np.all(c.coeff(m)[3:] == c.tail(m))

    def test_sum_reads_a_missing_mode_as_a_known_zero(self):
        """A mode that one summand lacks, absent inside its range or outside
        it, adds zero with a known tail 0: the other summand's declared tail
        stays declared, and an undeclared tail stays undeclared."""
        a = element(K, {-3: 1.0, 1: 2.0, 3: 4.0}, tails={-3: 1.0, 3: 4.0})
        b = element(K, {0: 1.0, 1: 1.0}, tails={0: 5.0, 1: 1.0})
        assert dict((a + b).tails) == dict((b + a).tails) == {-3: 1, 0: 5, 3: 4}
        assert dict((a - b).tails) == {-3: 1, 0: -5, 3: 4}
        assert (a - b).tail(1) is None and (a - b).coeff(1)[0] == 1.0

    def test_zero_element(self):
        z = zero(16)
        assert not z.modes
        assert np.max(np.abs(z.coeffs[z.present, -1]), initial=0.0) == 0.0


def _mode_by_mode_draws(rng, k_max, mode_min, mode_max, k_support=None,
                        declared_tails=False, tail_start=None):
    """random_element's draws written as a loop over modes: per mode the real
    parts, the imaginary parts, then the tail's real and imaginary part."""
    k_support = k_max + 1 if k_support is None else k_support
    tail_start = k_support // 2 if tail_start is None else tail_start
    modes, tails = {}, {}
    for m in range(mode_min, mode_max + 1):
        c = np.zeros(k_max + 1, dtype=complex)
        body = min(k_support, k_max + 1)
        c[:body] = rng.standard_normal(body) + 1j * rng.standard_normal(body)
        if declared_tails:
            t = complex(rng.standard_normal() + 1j * rng.standard_normal())
            c[tail_start:] = t
            tails[m] = t
        modes[m] = c
    return modes, tails


class TestStackedLayout:
    @pytest.mark.parametrize("declared_tails", [False, True])
    @pytest.mark.parametrize("k_support, tail_start",
                             [(None, None), (20, None), (20, 7), (200, 30)])
    def test_random_element_is_the_mode_by_mode_draw(self, declared_tails,
                                                     k_support, tail_start):
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = random_element(got_rng, K, -3, 4, k_support=k_support,
                             declared_tails=declared_tails, tail_start=tail_start)
        modes, tails = _mode_by_mode_draws(want_rng, K, -3, 4, k_support,
                                           declared_tails, tail_start)
        assert list(got.modes) == list(modes)
        for m, c in modes.items():
            assert got.coeff(m).tobytes() == c.tobytes()
            assert got.tail(m) == tails.get(m)
        # the stream is left where the loop leaves it
        assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_modes_is_a_read_only_view(self, rng):
        a = random_element(rng, 8, -1, 1)
        with pytest.raises(TypeError):
            a.modes[5] = np.zeros(9)
        with pytest.raises(ValueError):
            a.modes[0][0] = 1.0
        assert a.mode_lo == -1 and a.coeffs.shape == (3, 9)

    def test_absent_rows_inside_the_range(self):
        a = element(K, {-2: 1.0, 2: 1.0}, tails={2: 1.0})
        assert a.coeffs.shape == (5, K + 1) and list(a.modes) == [-2, 2]
        assert a.tail(0) == 0 and a.tail(-2) is None and a.tail(2) == 1.0
        assert not np.any(a.coeff(0))
        with pytest.raises(ValueError, match="declared tail"):
            element(K, {0: 1.0}, tails={1: 1.0})


def _gappy(rng, lo, hi, tail_start, k_valid):
    """Random element over modes lo..hi with the row after lo absent and
    about half of the present modes' tails declared."""
    ms = [m for m in range(lo, hi + 1) if m in (lo, hi) or m != lo + 1]
    rows = rng.standard_normal((len(ms), 2, K + 1))
    tails = {m: complex(*rng.standard_normal(2)) for m in ms if rng.random() < 0.5}
    return replace(element(K, dict(zip(ms, rows[:, 0] + 1j * rows[:, 1])), tails,
                           tail_start), k_valid=k_valid)


@pytest.mark.parametrize("range_a, range_b", [
    ((-4, 4), (-4, 4)),   # the same range
    ((-3, 2), (0, 5)),    # overlapping
    ((-6, -3), (2, 4)),   # disjoint
    ((-5, 5), (-1, 1)),   # nested
    ((-1, 1), (-5, 5)),
])
def test_difference_is_the_sum_with_the_negated_element(rng, range_a, range_b):
    """a - b equals a + (-1) b, the scaled sum, up to the sign of zero."""
    for _ in range(5):
        a = _gappy(rng, *range_a, tail_start=10, k_valid=K - 3)
        b = _gappy(rng, *range_b, tail_start=20, k_valid=K - 1)
        got, want = a - b, a + (-1.0) * b
        assert (got.mode_lo, got.tail_start, got.k_valid) == (
            want.mode_lo, want.tail_start, want.k_valid)
        for name in ("coeffs", "tail_values", "present", "declared"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.present_modes == list(want.modes)
