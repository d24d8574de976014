"""The structured null count against the dense SVD oracle.

Production counts every per-mode system of ``index_numeric`` through
``count_null_bidiagonal`` (Sturm counts, with the boundary row entering by
the Haynsworth rule); ``count_null_dense`` on the same system scattered
into a matrix is the reference.  Both routes share one threshold, fixed
by the [1, 2] bound on sigma_max of a row-equilibrated bordered bidiagonal;
the tests check that bound on the oracle's singular values.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal, lapack, svdvals

from qdisk import (APSProjection, IllConditionedError, ToeplitzElement,
                   apply_D, apply_Dbar, index_numeric, quantum_disk_weights)
from qdisk import nullity
from qdisk.aps import _mode_bands, _mode_matrix
from qdisk.cli import main
from qdisk.nullity import count_null_bidiagonal, count_null_dense


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
        matrix = _mode_matrix(w, a, k_max, window, constrained)
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
        op(ToeplitzElement(k_max, {m: np.eye(k_max + 1)[j].astype(complex)}),
           w2).coeff(out_mode).real
        for j in range(k_max + 1)], axis=1)
    mat = _mode_matrix(w2, m if side == "ker" else -m, k_max, 8, False)
    if len(mat) == k_max + 1:  # square systems are stored reversed
        mat = mat[::-1, ::-1]
    stencil = stencil[: len(mat)]
    np.testing.assert_allclose(
        mat / np.linalg.norm(mat, axis=1)[:, None],
        sign * stencil / np.linalg.norm(stencil, axis=1)[:, None], atol=1e-14)


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


@settings(max_examples=300, deadline=None)
@given(size=st.integers(2, 120), clustered=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6),
       nudge=st.integers(-3, 3))
def test_count_only_query_matches_full_count(size, clustered, seed, pick,
                                             nudge):
    """On zero-diagonal tridiagonals T, the count-only Sturm query equals
    the full-precision count, even with the threshold on or a few ulps off
    an eigenvalue of a cluster.  Clustered: every other off-diagonal entry
    is tiny, so T is close to 2 x 2 blocks whose eigenvalues cluster at ±c
    within 1e-12."""
    rng = np.random.default_rng(seed)
    if clustered:
        off = rng.uniform(0.5, 1.0) * (1.0 + 1e-14 * rng.standard_normal(size - 1))
        off[1::2] = 1e-12 * rng.standard_normal(len(off[1::2]))
    else:
        off = rng.uniform(-1.0, 1.0, size - 1) * 10 ** rng.uniform(-8, 0, size - 1)
    full = eigvalsh_tridiagonal(np.zeros(size), off)
    t = abs(full[pick % size]) * (1.0 + nudge * np.finfo(float).eps)
    assume(t > 0.0)
    want = len(eigvalsh_tridiagonal(np.zeros(size), off, select="v",
                                    select_range=(-t, t)))
    assert nullity._count_within(np.zeros(size), off, t) == want


def test_index_at_a_size_beyond_the_dense_route():
    w = quantum_disk_weights(0.3, 2.0)
    cache = {}
    for n in (-3, 0, 3):
        res = index_numeric(w, APSProjection(n), 8192, cache=cache)
        assert res.index == n + 1
        assert res.matches_analytic


def test_singular_shifted_solve_is_ill_conditioned(monkeypatch, w2, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(nullity, "solve_banded", singular)
    with pytest.raises(IllConditionedError, match="singular"):
        index_numeric(w2, APSProjection(0), 128)
    assert main(["index-sweep", "--kmax", "128", "--nmin", "0",
                 "--nmax", "0"]) == 3
    assert "ill-conditioned" in capsys.readouterr().err


def test_unconverged_sturm_count_is_ill_conditioned(monkeypatch, w2, capsys):
    def unconverged(*args):
        count, w, iblock, isplit, _ = lapack.dstebz(*args)
        return count, w, iblock, isplit, 1

    monkeypatch.setattr(nullity, "dstebz", unconverged)
    with pytest.raises(IllConditionedError, match="did not converge"):
        index_numeric(w2, APSProjection(0), 128)
    assert main(["index-sweep", "--variant", "classical", "--grid", "257",
                 "--nmin", "0", "--nmax", "0"]) == 3
    assert "ill-conditioned" in capsys.readouterr().err


def test_rejected_sturm_argument_is_an_internal_error(monkeypatch):
    """A negative dstebz info is a bug in the call, not a usage error or
    ill-conditioning: it propagates out of ``main`` instead of exiting 2."""
    monkeypatch.setattr(nullity, "dstebz",
                        lambda *args: (0, None, None, None, -3))
    with pytest.raises(RuntimeError, match="argument 3") as caught:
        main(["index-sweep", "--variant", "classical", "--grid", "257",
              "--nmin", "0", "--nmax", "0"])
    assert not isinstance(caught.value, IllConditionedError)
