import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import aps
from qdisk import (APSProjection, BoundaryFunction, IllConditionedError,
                   apply_D, apply_Q, boundary_pairing, custom_weights,
                   element, extend, index_analytic, index_numeric,
                   norm_fourier, power_UB, project, quantum_disk_weights,
                   random_element, restrict, solve_aps)


class TestProjection:
    def test_cutoff_zero(self):
        f = BoundaryFunction({1: 1.0 + 0.0j, 0: 1.0 + 0.0j})
        assert project(f, APSProjection(0)).modes == {0: 1.0 + 0.0j}

    def test_negative_cutoff_kills_constants(self):
        f = BoundaryFunction({0: 1.0 + 0.0j})
        assert project(f, APSProjection(-1)).modes == {}

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(-8, 8),
                           st.complex_numbers(max_magnitude=1e3,
                                              allow_nan=False,
                                              allow_infinity=False),
                           max_size=10),
           st.integers(-5, 5))
    def test_idempotent(self, modes, cutoff):
        f = BoundaryFunction(modes)
        p = APSProjection(cutoff)
        once = project(f, p)
        twice = project(once, p)
        assert once.modes == twice.modes
        assert all(m <= cutoff for m in once.modes)


class TestAnalyticIndex:
    def test_counting_formulas(self):
        assert index_analytic(APSProjection(0)) == (1, 0, 1)
        assert index_analytic(APSProjection(-3)) == (0, 2, -2)
        assert index_analytic(APSProjection(-1)) == (0, 0, 0)

    def test_index_is_cutoff_plus_one(self):
        for n in range(-9, 10):
            counts = index_analytic(APSProjection(n))
            assert counts.index == n + 1
            assert counts.dim_ker >= 0 and counts.dim_coker >= 0
            assert counts.dim_ker * counts.dim_coker == 0

    def test_unit_increment(self):
        """Raising the cutoff by one always raises the index by one."""
        for n in range(-8, 9):
            assert (index_analytic(APSProjection(n)).index
                    - index_analytic(APSProjection(n - 1)).index) == 1


class TestNumericIndex:
    def test_cutoff_zero(self, w2):
        res = index_numeric(w2, APSProjection(0), 512)
        assert (res.dim_ker, res.dim_coker, res.index) == (1, 0, 1)
        assert res.matches_analytic

    def test_small_sweep(self, w2):
        cache = {}
        for n in (-3, -1, 0, 2):
            res = index_numeric(w2, APSProjection(n), 512, cache=cache)
            assert res.index == n + 1
            assert res.matches_analytic

    def test_kernel_and_cokernel_never_overlap(self, w2):
        cache = {}
        for n in (-4, -1, 0, 3):
            res = index_numeric(w2, APSProjection(n), 512, cache=cache)
            assert res.dim_ker * res.dim_coker == 0

    def test_truncation_guard(self, w2):
        with pytest.raises(IllConditionedError, match="window"):
            index_numeric(w2, APSProjection(0), 16)

    def test_b_reaching_one_inside_the_sweep_range_raises(self):
        """B(k) = 1 - 0.5 * 0.9^k passes the construction probe (k <= 256)
        but stops increasing in double precision at k = 324 and reaches 1.0
        at k = 349: a K = 512 sweep reads both, a K = 256 sweep neither."""
        w = custom_weights(lambda k: 2.0 * (k + 1.0) ** 2,
                           lambda k: 1.0 - 0.5 * 0.9 ** np.asarray(k, float))
        assert index_numeric(w, APSProjection(0), 256).matches_analytic
        with pytest.raises(ValueError,
                           match="strictly increasing; it fails first at k=324"):
            index_numeric(w, APSProjection(0), 512)

    def test_infinite_a_inside_the_sweep_range_raises(self):
        """B(k) = 1 - 0.5 / (k + 2)^4 with A = 1 / (B(k+1) - B(k)): the
        difference underflows to 0 and A = inf from k = 1806 on, inside the
        range a K = 4096 sweep reads."""
        def b_fn(k):
            return 1.0 - 0.5 / (np.asarray(k, float) + 2.0) ** 4

        def a_fn(k):
            with np.errstate(divide="ignore"):
                return 1.0 / (b_fn(np.asarray(k) + 1) - b_fn(k))

        w = custom_weights(a_fn, b_fn)
        assert index_numeric(w, APSProjection(0), 512).matches_analytic
        with pytest.raises(ValueError,
                           match="finite and positive; it fails first at k=1806"):
            index_numeric(w, APSProjection(0), 4096)

    def test_weights_are_checked_again_only_for_a_wider_extent(self,
                                                               monkeypatch):
        """The quantum-disk B set to 1 from k = 137 on: at K = 128 the sweep
        reads k <= 133 + |N|, so N = 0..3 pass and N = 4 raises, naming
        k = 137, whether the cutoffs share a cache or not.  A sweep from
        N = 6 down checks the weights once, at its widest extent."""
        qd = quantum_disk_weights(1.0, 2.0)
        w = custom_weights(qd.a_at, lambda k: np.where(np.asarray(k) >= 137, 1.0,
                                                       qd.b_at(k)), validate=False)
        for cache in ({}, None):
            for n in range(4):
                assert index_numeric(w, APSProjection(n), 128,
                                     cache=cache).matches_analytic
            with pytest.raises(ValueError, match="stay below 1; it fails first at k=137"):
                index_numeric(w, APSProjection(4), 128, cache=cache)
        checks = []
        validate = aps._validate_weights
        monkeypatch.setattr(aps, "_validate_weights",
                            lambda *args: checks.append(1) or validate(*args))
        for n in range(6, -7, -1):
            index_numeric(qd, APSProjection(n), 128)
        assert len(checks) == 1

    def test_shared_cache_matches_fresh_cache(self, w2):
        """The cache holds one count per (a, constrained) system, shared by
        kernel mode m and cokernel mode -m; per_mode is unchanged by it."""
        cache, systems = {}, set()
        for n in range(-6, 7):
            shared = index_numeric(w2, APSProjection(n), 256, cache=cache)
            fresh = index_numeric(w2, APSProjection(n), 256)
            assert shared.per_mode == fresh.per_mode
            systems |= {(r["mode"] if r["side"] == "ker" else -r["mode"],
                         r["constrained"]) for r in shared.per_mode}
        assert set(cache) == systems
        assert len(cache) == 35


class TestSolve:
    def test_zero_data(self, w2):
        sol = solve_aps(element(256, {}), w2, APSProjection(2))
        assert sol.solvable
        assert norm_fourier(sol.element, w2) == 0.0
        # admissible solutions form a 3-parameter family over the kernel
        assert len(sol.kernel_coeffs) == 3

    def test_round_trip(self, rng, w2):
        """b = D(a0) for a0 = Qb0 (whose restriction has no positive modes)
        recovers a0 up to kernel elements below the cutoff."""
        K = 512
        b0 = random_element(rng, K, -3, 3, k_support=200)
        a0 = apply_Q(b0, w2)
        da = apply_D(a0, w2)
        b = element(K, {m: np.where(np.arange(K + 1) <= da.k_valid, c, 0.0)
                        for m, c in da.modes.items()})
        sol = solve_aps(b, w2, APSProjection(2))
        assert sol.solvable
        diff = sol.element - a0
        # any discrepancy must be kernel-shaped; here Q reproduces a0 itself
        hi = 199
        for m in diff.modes:
            assert np.max(np.abs(diff.coeff(m)[:hi])) < 1e-8

    def test_obstruction_for_negative_cutoff(self, rng, w2):
        """cutoff = -2: one blocked boundary mode (-1); generic data is
        obstructed with that exact support."""
        b = random_element(rng, 512, -4, 4, k_support=200)
        sol = solve_aps(b, w2, APSProjection(-2))
        assert not sol.solvable
        assert set(sol.obstruction.modes) == {-1}

    def test_obstruction_threshold(self, rng, w2):
        """A boundary value above 1e-8 in modulus obstructs: the input of
        the test above, scaled to an obstruction of 2e-8, is reported, and
        scaled to 5e-9 it is solvable."""
        b = random_element(rng, 512, -4, 4, k_support=200)
        value = abs(solve_aps(b, w2, APSProjection(-2)).obstruction.coeff(-1))
        for size, solvable in ((2e-8, False), (5e-9, True)):
            sol = solve_aps((size / value) * b, w2, APSProjection(-2))
            assert sol.solvable == solvable, size
            if not solvable:
                assert abs(sol.obstruction.coeff(-1)) == pytest.approx(size)

    def test_no_obstruction_at_cutoff_minus_one(self, rng, w2):
        """cutoff = -1: kernel and cokernel both vanish; always solvable."""
        b = random_element(rng, 512, -4, 4, k_support=200)
        sol = solve_aps(b, w2, APSProjection(-1))
        assert sol.solvable
        res = norm_fourier(apply_D(sol.element, w2) - b, w2)
        assert res / norm_fourier(b, w2) < 1e-11

    def test_solution_satisfies_boundary_condition(self, rng, w2):
        """r(a) of the returned solution has no modes above the cutoff."""
        b = random_element(rng, 512, -3, 3, k_support=200)
        sol = solve_aps(b, w2, APSProjection(1))
        r = restrict(sol.element)
        for m, c in r.modes.items():
            if m > 1:
                assert abs(c) < 1e-8


class TestAdjointDomainConsistency:
    def test_boundary_pairing_vanishes_across_the_split(self, rng, w2):
        """If r(a) lives at modes <= N and the shifted r(b) at modes > N,
        the boundary term pairs mode m of a with mode m+1 of b and is
        identically zero — the adjoint-domain structure."""
        n = 1
        K = 256
        fa = BoundaryFunction({m: complex(*rng.standard_normal(2))
                               for m in range(-3, n + 1)})
        fb = BoundaryFunction({m: complex(*rng.standard_normal(2))
                               for m in range(n + 2, n + 6)})
        assert boundary_pairing(fa, fb) == 0.0
        a = extend(fa, K)
        b = extend(fb, K)
        assert boundary_pairing(restrict(a), restrict(b)) == 0.0
