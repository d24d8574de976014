"""The structured null count against the dense SVD oracle.

Production counts every per-mode system of ``index_numeric`` through
``count_null_bidiagonal`` (Sturm counts, with the boundary row entering by
the Haynsworth rule); ``count_null_dense`` on the same system scattered
into a matrix is the reference.  Both routes share one threshold, fixed
by the [1, 2] bound on sigma_max of a row-equilibrated bordered bidiagonal;
the tests check that bound on the oracle's singular values.  The count
asks the gap query first and skips the query at the threshold when the
gap query finds only the structural zeros; ``count_null_two_queries``,
which always asks both through dstebz, must give the same ``NullCount``.
Each query (``nullity._count_within``) is one DLAEBZ Sturm pass at t: the
Golub-Kahan spectrum is ± symmetric, so the count in [-t, t] is
2 N(t) - n.  dstebz counts (-t, t] (``count_within_dstebz``); the two
differ only for t on an eigenvalue to the last bit, which the forbidden
band keeps from every accepted count.  So the query equals dstebz's count
on every sweep system and, off the spectrum, on random tridiagonals with
splits and underflowing squares; with t on an eigenvalue it equals
dstebz's half-line count mirrored, also on a split where a count without
pivot guard (dlarrc) would divide 0 by 0.
"""

import ctypes
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cython_lapack, eigvalsh_tridiagonal, svdvals

from qdisk import (APSProjection, IllConditionedError, element,
                   apply_D, apply_Dbar, index_numeric, quantum_disk_weights)
from qdisk import classical, nullity
from qdisk.aps import _mode_bands
from qdisk.classical import _mode_nullity, index_classical
from qdisk.cli import main
from qdisk.nullity import count_null_bidiagonal, count_null_dense
from oracles import count_null_two_queries, count_within_dstebz, mode_matrix


def _top_sigma(matrix):
    """sigma_max of the row-equilibrated matrix, by dense SVD."""
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    return svdvals(matrix / norms[:, None])[0]


def _sweep_jobs(nmin=-6, nmax=6):
    """Every (a, constrained) system of an index sweep: kernel mode m is
    a = m, cokernel mode m is a = -m."""
    jobs = set()
    for n in range(nmin, nmax + 1):
        for m in range(-abs(n) - 4, abs(n) + 5):
            jobs.add((m, m > n))
            jobs.add((-m, m <= n + 1))
    return sorted(jobs)


def _count_queries(monkeypatch):
    """Wrap ``nullity._count_within``; the returned list gets one entry per
    Sturm query."""
    calls = []
    within = nullity._count_within

    def counted(*args):
        calls.append(args)
        return within(*args)

    monkeypatch.setattr(nullity, "_count_within", counted)
    return calls


def _counted_offdiagonals(monkeypatch, run):
    """Off-diagonal of every tridiagonal T that ``run()`` counts on."""
    offs = []
    sturm_inputs = nullity._sturm_inputs
    with monkeypatch.context() as patch:
        patch.setattr(nullity, "_sturm_inputs",
                      lambda off: offs.append(off) or sturm_inputs(off))
        run()
    return offs


def _assert_dlaebz_count_is_dstebz_count(off, scale_dim):
    tau = nullity._threshold(scale_dim)
    sturm = nullity._sturm_inputs(off)
    for t in (tau, nullity.GAP_RATIO * tau):
        assert nullity._count_within(*sturm, t) == count_within_dstebz(
            np.zeros(len(off) + 1), off, t), (len(off), t)


def _kahan_system(rows, ratio):
    """Square upper bidiagonal with unit diagonal and ``ratio`` above it,
    and the singular values of its row-equilibrated matrix in units of the
    threshold: the smallest falls like ratio ** -rows, the others stay O(1)."""
    diag, upper = np.ones(rows), np.full(rows - 1, ratio)
    dense = np.diag(diag) + np.diag(upper, 1)
    sigmas = svdvals(dense / np.linalg.norm(dense, axis=1)[:, None])
    return diag, upper, sigmas / nullity._threshold(rows)


@pytest.mark.parametrize("k_max", [128, 256])
@pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
def test_structured_count_matches_dense_on_the_sweep(k_max, mu):
    w = quantum_disk_weights(mu, 2.0)
    window = k_max // 16
    for a, constrained in _sweep_jobs():
        diag, upper, rows, cols, border = _mode_bands(w, a, k_max, window,
                                                      constrained)
        got = count_null_bidiagonal(diag, upper, rows, cols, k_max,
                                    border=border)
        matrix = mode_matrix(w, a, k_max, window, constrained)
        want = count_null_dense(matrix, k_max)
        job = (a, constrained)
        assert (got.nullity, got.n_below, got.structural) == (
            want.nullity, want.n_below, want.structural), job
        assert got.threshold == want.threshold, job
        # the fixed threshold scale stands in for this sigma_max
        sigma_max = _top_sigma(matrix)
        assert 1.0 <= sigma_max <= 2.0, job
        assert abs(sigma_max / nullity.SIGMA_SCALE - 1.0) <= 1e-3, job
        # kernel mode a and cokernel mode -a: the D-bar system is the
        # negated D system, and the shared count must not see the sign
        assert count_null_bidiagonal(-diag, -upper, rows, cols, k_max,
                                     border=border) == got, job


@pytest.mark.parametrize("k_max", [128, 512, 4096])
@pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
def test_count_equals_two_query_reference_on_the_nc_sweep(k_max, mu):
    w = quantum_disk_weights(mu, 2.0)
    for a, constrained in _sweep_jobs():
        diag, upper, rows, cols, border = _mode_bands(w, a, k_max,
                                                      k_max // 16, constrained)
        for sign in (1.0, -1.0):
            got = count_null_bidiagonal(sign * diag, sign * upper, rows, cols,
                                        k_max, border=border)
            want = count_null_two_queries(sign * diag, sign * upper, rows,
                                          cols, k_max, border=border)
            assert got == want, (a, constrained, sign)


@pytest.mark.parametrize("grid", [257, 2048, 16384])
def test_count_equals_two_query_reference_on_the_classical_sweep(
        grid, monkeypatch):
    jobs = _sweep_jobs()
    got = [_mode_nullity(a, constrained, grid) for a, constrained in jobs]
    monkeypatch.setattr(classical, "count_null_bidiagonal",
                        count_null_two_queries)
    want = [_mode_nullity(a, constrained, grid) for a, constrained in jobs]
    assert got == want


@pytest.mark.parametrize("k_max", [128, 512, 4096])
@pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
def test_count_within_equals_dstebz_on_the_nc_sweep(k_max, mu, monkeypatch):
    w = quantum_disk_weights(mu, 2.0)

    def sweep():
        for a, constrained in _sweep_jobs():
            diag, upper, rows, cols, border = _mode_bands(
                w, a, k_max, k_max // 16, constrained)
            for sign in (1.0, -1.0):
                count_null_bidiagonal(sign * diag, sign * upper, rows, cols,
                                      k_max, border=border)

    offs = _counted_offdiagonals(monkeypatch, sweep)
    assert len(offs) == 2 * len(_sweep_jobs())
    for off in offs:
        _assert_dlaebz_count_is_dstebz_count(off, k_max)


@pytest.mark.parametrize("grid", [257, 2048, 16384])
def test_count_within_equals_dstebz_on_the_classical_sweep(grid, monkeypatch):
    offs = _counted_offdiagonals(monkeypatch, lambda: [
        _mode_nullity(a, constrained, grid) for a, constrained in _sweep_jobs()])
    assert len(offs) == len(_sweep_jobs())
    for off in offs:
        _assert_dlaebz_count_is_dstebz_count(off, grid)


def _mirrored_half_line_count(off, t):
    """Eigenvalues in [-t, t] of the zero-diagonal tridiagonal with
    off-diagonal ``off``, by the ± symmetry from dstebz's independent count
    of those in (-r, t], r above the spectral radius."""
    size, r = len(off) + 1, 2.0 * np.abs(off).max(initial=0.0) + 1.0
    return 2 * len(eigvalsh_tridiagonal(np.zeros(size), off, select="v",
                                        select_range=(-r, t))) - size


def test_zero_pivot_at_a_split_is_guarded():
    """T = diag(0) with off-diagonal [0.5, 0, 0.25] has eigenvalues ±0.5 and
    ±0.25, all four in [-0.5, 0.5] (three in dstebz's (-0.5, 0.5]).  The
    Sturm pass at 0.5 meets an exact zero pivot at the split; without the
    PIVMIN guard (dlarrc) the next step divides 0 by 0."""
    off = np.array([0.5, 0.0, 0.25])
    assert nullity._count_within(*nullity._sturm_inputs(off), 0.5) == 4
    assert _mirrored_half_line_count(off, 0.5) == 4
    assert count_within_dstebz(np.zeros(4), off, 0.5) == 3


@pytest.mark.parametrize("index", [
    partial(index_classical, m_points=16384),
    partial(index_numeric, quantum_disk_weights(0.7, 2.0), k_max=512),
], ids=["classical-grid-16384", "nc-K-512"])
def test_sweep_asks_one_query_per_system(monkeypatch, index):
    """Every system of both sweeps has no singular value below the gap
    threshold, so each of the 35 counts is the gap query alone."""
    calls = _count_queries(monkeypatch)
    cache = {}
    for n in range(-6, 7):
        assert index(p=APSProjection(n), cache=cache).index == n + 1
    assert len(cache) == 35
    assert len(calls) == 35


def test_singular_value_below_threshold_takes_both_queries(monkeypatch):
    rows = 30
    diag, upper, sigmas = _kahan_system(rows, 2.0)
    assert np.sum(sigmas < 1.0) == 1
    assert not np.any((sigmas >= 1.0) & (sigmas < nullity.GAP_RATIO))
    calls = _count_queries(monkeypatch)
    got = count_null_bidiagonal(diag, upper, rows, rows, rows)
    assert (got.n_below, got.nullity, got.structural) == (1, 1, 0)
    assert len(calls) == 2
    assert got == count_null_two_queries(diag, upper, rows, rows, rows)


def test_singular_value_in_the_gap_still_raises():
    rows = 20
    diag, upper, sigmas = _kahan_system(rows, 2.0)
    assert 1.0 <= sigmas[-1] < nullity.GAP_RATIO
    with pytest.raises(IllConditionedError, match="forbidden band"):
        count_null_bidiagonal(diag, upper, rows, rows, rows)


@pytest.mark.parametrize("side", ["ker", "coker"])
@pytest.mark.parametrize("m", [-3, -1, 0, 1, 2])
def test_mode_system_rows_are_the_operator_stencil(w2, side, m):
    """Up to a positive row factor, row k of the unconstrained mode system
    at a = m (side 'ker') or a = -m (side 'coker') is coefficient k of D
    resp. minus D̄ applied to mode m."""
    k_max = 32
    op = apply_D if side == "ker" else apply_Dbar
    out_mode = m + 1 if side == "ker" else m - 1
    sign = 1.0 if side == "ker" else -1.0
    stencil = np.stack([
        op(element(k_max, {m: np.eye(k_max + 1)[j]}),
           w2).coeff(out_mode).real
        for j in range(k_max + 1)], axis=1)
    mat = mode_matrix(w2, m if side == "ker" else -m, k_max, 8, False)
    if len(mat) == k_max + 1:  # square systems are stored reversed
        mat = mat[::-1, ::-1]
    stencil = stencil[: len(mat)]
    np.testing.assert_allclose(
        mat / np.linalg.norm(mat, axis=1)[:, None],
        sign * stencil / np.linalg.norm(stencil, axis=1)[:, None], atol=1e-14)


@pytest.mark.parametrize("a", [-3, -1, 0, 2])
def test_boundary_row_is_the_tail_window_mean(w2, a):
    """The constrained system's border pins the mean of c(k) over the tail
    window k in [K - window + 1, K]: with the columns of a reversed (s = -1,
    square) system put back in order, the border's support is exactly that
    window, every entry 1/sqrt(window)."""
    k_max, window = 128, 8
    mat = mode_matrix(w2, a, k_max, window, True)
    border = mat[-1, ::-1] if len(mat) == k_max + 2 else mat[-1]
    np.testing.assert_array_equal(np.flatnonzero(border),
                                  np.arange(k_max - window + 1, k_max + 1))
    assert np.all(border[-window:] == window ** -0.5)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(2, 40), wide=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_bordered_count_matches_dense(rows, wide, seed, data):
    """Random positive bidiagonal bands with a random border window: wherever
    no singular value lies near the threshold, the counts agree.  A random
    drift between the bands makes the null vector of a wide system decay,
    so the border often misses it and the count is 1."""
    cols = rows + wide
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.01, 1.0, rows)
    upper = rng.uniform(0.01, 1.0, cols - 1) * 10 ** rng.uniform(-1, 1)
    start = data.draw(st.integers(0, cols - 1))
    stop = data.draw(st.integers(start + 1, cols))
    index = np.arange(start, stop)
    values = rng.uniform(0.1, 1.0, len(index))

    dense = np.zeros((rows + 1, cols))
    dense[np.arange(rows), np.arange(rows)] = diag
    dense[np.arange(cols - 1), np.arange(1, cols)] = upper
    dense[rows, index] = values
    sigmas = svdvals(dense / np.linalg.norm(dense, axis=1)[:, None])
    tau = nullity.SIGMA_SCALE * nullity.THRESHOLD_SCALE / rows
    assume(not np.any((sigmas >= tau / 10) & (sigmas < 1000 * tau)))

    want = count_null_dense(dense, rows)
    got = count_null_bidiagonal(diag, upper, rows, cols, rows,
                                border=(index, values))
    assert (got.nullity, got.n_below, got.structural) == (
        want.nullity, want.n_below, want.structural)
    assert got.threshold == want.threshold == tau
    assert got == count_null_two_queries(diag, upper, rows, cols, rows,
                                         border=(index, values))
    assert 1.0 <= sigmas[0] <= 2.0


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 60), wide=st.booleans(), bordered=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_row_equilibrated_sigma_max_lies_in_one_to_two(rows, wide, bordered,
                                                       seed, data):
    """The bound behind the fixed threshold scale: a row-equilibrated upper
    bidiagonal, square or wide, plain or with one dense border row, has
    1 <= sigma_max <= 2.  Entries have random signs and magnitudes over
    twelve decades, so rows range from one dominant entry to two equal
    ones."""
    cols = rows + wide
    rng = np.random.default_rng(seed)

    def entries(n):
        return rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-6, 6, n)

    dense = np.zeros((rows + bordered, cols))
    dense[np.arange(rows), np.arange(rows)] = entries(rows)
    dense[np.arange(cols - 1), np.arange(1, cols)] = entries(cols - 1)
    if bordered:
        start = data.draw(st.integers(0, cols - 1))
        stop = data.draw(st.integers(start + 1, cols))
        dense[rows, start:stop] = entries(stop - start)
    assert 1.0 - 1e-12 <= _top_sigma(dense) <= 2.0


def _random_offdiagonal(size, family, seed):
    """Off-diagonal of a random zero-diagonal tridiagonal.  Clustered: every
    other entry is tiny, so T is close to 2 x 2 blocks whose eigenvalues
    cluster at ±c within 1e-12.  Split: about a third of the entries are
    exact zeros, so the recurrence meets zero pivots.  Underflow: magnitudes
    span 1e-300 to 1, so many squares fall below the underflow threshold
    and become splits."""
    rng = np.random.default_rng(seed)
    if family == "clustered":
        off = rng.uniform(0.5, 1.0) * (1.0 + 1e-14 * rng.standard_normal(size - 1))
        off[1::2] = 1e-12 * rng.standard_normal(len(off[1::2]))
    elif family == "underflow":
        off = rng.choice([-1.0, 1.0], size - 1) * 10 ** rng.uniform(-300, 0, size - 1)
    else:
        off = rng.uniform(-1.0, 1.0, size - 1) * 10 ** rng.uniform(-8, 0, size - 1)
        if family == "split":
            off[rng.random(size - 1) < 1 / 3] = 0.0
    return off


_FAMILIES = st.sampled_from(["spread", "clustered", "split", "underflow"])


@settings(max_examples=300, deadline=None)
@given(size=st.integers(2, 120), family=_FAMILIES,
       seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6),
       nudge=st.integers(-3, 3))
def test_count_only_query_matches_full_count(size, family, seed, pick,
                                             nudge):
    """On zero-diagonal tridiagonals T (``_random_offdiagonal``'s families),
    the count-only Sturm query equals the full-precision count in [-t, t],
    dstebz's half-line count mirrored, even with the threshold on or a few
    ulps off an eigenvalue of a cluster."""
    off = _random_offdiagonal(size, family, seed)
    full = eigvalsh_tridiagonal(np.zeros(size), off)
    t = abs(full[pick % size]) * (1.0 + nudge * np.finfo(float).eps)
    assume(t > 0.0)
    want = _mirrored_half_line_count(off, t)
    assert nullity._count_within(*nullity._sturm_inputs(off), t) == want


@settings(max_examples=200, deadline=None)
@given(size=st.integers(2, 120), family=_FAMILIES,
       seed=st.integers(0, 2 ** 32 - 1), log_t=st.floats(-10.0, 0.5))
def test_count_off_the_spectrum_needs_no_endpoint_convention(size, family,
                                                             seed, log_t):
    """With t > 1e-10 at least 1e-9 t away from every |eigenvalue|, [-t, t],
    (-t, t] and (-t, t) hold the same eigenvalues: the query equals dstebz's
    count and the dense count of |eigenvalue| < t."""
    off = _random_offdiagonal(size, family, seed)
    t = 10.0 ** log_t
    dense = np.abs(np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)))
    assume(t > 1e-10 and np.min(np.abs(dense - t)) >= 1e-9 * t)
    got = nullity._count_within(*nullity._sturm_inputs(off), t)
    assert got == count_within_dstebz(np.zeros(size), off, t)
    assert got == np.sum(dense < t)


def test_index_at_a_size_beyond_the_dense_route():
    w = quantum_disk_weights(0.3, 2.0)
    cache = {}
    for n in (-3, 0, 3):
        res = index_numeric(w, APSProjection(n), 8192, cache=cache)
        assert res.index == n + 1
        assert res.matches_analytic


@pytest.mark.parametrize("wide", [False, True])
def test_zero_border_row_counts_as_a_zero_row(wide):
    """An all-zero border row adds no constraint.  It stays unscaled, as the
    zero rows of the dense route do, so s(t) = -t: the count is the dense
    oracle's, with no 0/0 on the way."""
    rows, cols = 5, 5 + wide
    diag, upper = np.ones(rows), np.full(cols - 1, 0.5)
    dense = np.zeros((rows + 1, cols))
    dense[:rows] = (np.eye(rows, cols) + 0.5 * np.eye(rows, cols, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = count_null_bidiagonal(diag, upper, rows, cols, rows,
                                    border=(np.array([0, 1]), np.zeros(2)))
        oracle = count_null_two_queries(diag, upper, rows, cols, rows,
                                        border=(np.array([0, 1]), np.zeros(2)))
    assert got == count_null_dense(dense, rows) == oracle
    assert got.nullity == wide


def _dgtsv_info(info):
    """A dgtsv stand-in returning its inputs and the given INFO."""
    return lambda dl, d, du, b: (dl, d, du, b, info)


def test_singular_shifted_solve_is_ill_conditioned(monkeypatch, w2, capsys):
    monkeypatch.setattr(nullity, "dgtsv", _dgtsv_info(3))
    with pytest.raises(IllConditionedError, match="singular"):
        index_numeric(w2, APSProjection(0), 128)
    assert main(["index-sweep", "--kmax", "128", "--nmin", "0",
                 "--nmax", "0"]) == 3
    assert "ill-conditioned" in capsys.readouterr().err


def test_rejected_shifted_solve_argument_is_a_bug(monkeypatch, w2):
    monkeypatch.setattr(nullity, "dgtsv", _dgtsv_info(-4))
    with pytest.raises(RuntimeError, match="dgtsv rejected argument 4") as exc:
        index_numeric(w2, APSProjection(0), 128)
    assert not isinstance(exc.value, IllConditionedError)


def test_shifted_solve_solves_the_shifted_system(rng):
    off = rng.standard_normal(40)
    rhs = rng.standard_normal(41)
    t = 0.3
    dense = np.diag(off, 1) + np.diag(off, -1) - t * np.eye(41)
    np.testing.assert_allclose(dense @ nullity._shifted_solve(off, rhs, t),
                               rhs, atol=1e-10)


@pytest.mark.parametrize("gap_shift, tau_shift", [
    (-2, 0),   # the gap query finds fewer than the structural zeros
    (1, 0),    # ... or the structural zeros plus an odd count
    (2, -2),   # the threshold query finds fewer than the structural zeros
], ids=["gap-below-structural", "gap-odd", "threshold-below-structural"])
def test_count_inconsistent_with_structural_zeros_is_ill_conditioned(
        monkeypatch, capsys, gap_shift, tau_shift):
    tau = nullity._threshold(257)
    within = nullity._count_within

    def shifted(*args):
        t = args[-1]
        return within(*args) + (gap_shift if t > 10.0 * tau else tau_shift)

    monkeypatch.setattr(nullity, "_count_within", shifted)
    assert main(["index-sweep", "--variant", "classical", "--grid", "257",
                 "--nmin", "0", "--nmax", "0"]) == 3
    err = capsys.readouterr().err
    assert "ill-conditioned" in err and "structural zero(s)" in err


def test_rejected_sturm_argument_is_an_internal_error(monkeypatch):
    """A negative DLAEBZ info is a bug in the call, not a usage error or
    ill-conditioning: it propagates out of ``main`` instead of exiting 2.
    The stand-in for DLAEBZ is called through the same C prototype and
    writes INFO = -3 through its last pointer."""
    @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)
    def rejecting(*pointers):
        ctypes.c_int.from_address(pointers[-1]).value = -3

    monkeypatch.setattr(nullity, "_dlaebz", rejecting)
    with pytest.raises(RuntimeError, match="argument 3") as caught:
        main(["index-sweep", "--variant", "classical", "--grid", "257",
              "--nmin", "0", "--nmax", "0"])
    assert not isinstance(caught.value, IllConditionedError)


def test_overflowed_sturm_intervals_are_an_internal_error(monkeypatch):
    """One bisection step splits one interval into at most MMAX = 2, so an
    INFO above 2 is a bug in the call too, reported as such."""
    @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)
    def overflowing(*pointers):
        ctypes.c_int.from_address(pointers[-1]).value = 3

    monkeypatch.setattr(nullity, "_dlaebz", overflowing)
    with pytest.raises(RuntimeError, match="INFO = 3") as caught:
        count_null_bidiagonal(np.ones(4), np.full(3, 0.5), 4, 4, 4)
    assert not isinstance(caught.value, IllConditionedError)


@pytest.mark.parametrize("routine", ["dstebz", "dlarrc"])
def test_capsule_with_another_signature_is_an_import_error(routine):
    with pytest.raises(ImportError, match="unexpected signature"):
        nullity._bind(cython_lapack.__pyx_capi__[routine])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["diag", "upper", "border"])
def test_non_finite_input_is_a_value_error_before_any_query(monkeypatch,
                                                            name, bad):
    rows = 8
    arrays = {"diag": np.ones(rows), "upper": np.full(rows, 0.5),
              "border": np.full(3, 0.5)}
    arrays[name][1] = bad
    calls = _count_queries(monkeypatch)
    with pytest.raises(ValueError, match=f"non-finite entries in {name}"):
        count_null_bidiagonal(arrays["diag"], arrays["upper"], rows, rows + 1,
                              rows, border=(np.arange(3), arrays["border"]))
    assert not calls
