"""Truncation validity as a checked invariant.

For a random short chain of multiply / adjoint / apply_D / apply_Dbar /
apply_Q at a small truncation K, every coefficient at k <= k_valid of the
result (absent modes read as zero) must equal the same chain evaluated by
the to_matrix oracle on an embedding of the inputs at a larger truncation.
The embedding keeps the stored coefficients, continues each declared tail,
and continues every undeclared mode with random values: beyond k_max such a
mode is unknown, so a k_valid that counts on it shows up as a mismatch.

Q has no matrix form; its oracle is apply_Q on the embedding.  Its j >= k
sums stop at k_max by design (the neglected tail is reported through a
TruncationWarning, not through k_valid), so Q enters a chain only as the
first link, on an input supported on k < K/2 whose embedding continues with
zeros.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import (TruncationWarning, adjoint, apply_D, apply_Dbar, apply_Q,
                   element, multiply, power_UB, quantum_disk_weights,
                   random_element)
from oracles import to_matrix

K, BIG = 40, 160
LINKS = ("D", "Dbar", "adjoint", "multiply-left", "multiply-right")


def _embed(x, rng, junk: bool):
    """x at truncation BIG: declared tails continue exactly; undeclared
    modes continue with random values (junk) or with zeros."""
    modes = {}
    for m, c in x.modes.items():
        t = x.tail(m)
        ext = np.full(BIG - x.k_max, 0j if t is None else t)
        if t is None and junk:
            ext = rng.standard_normal(len(ext)) + 1j * rng.standard_normal(len(ext))
        modes[m] = np.concatenate([c, ext])
    return element(BIG, modes, dict(x.tails), x.tail_start)


def _input(rng, declared: bool):
    lo = int(rng.integers(-2, 1))
    return random_element(rng, K, lo, lo + int(rng.integers(0, 3)),
                          declared_tails=declared, tail_start=K // 2)


def _assert_valid_prefix(x, oracle):
    """Coefficients of x at k <= k_valid against the oracle's diagonals."""
    hi = x.k_valid
    if hi < 0:
        return
    span = range(x.mode_min - 8, x.mode_max + 9)
    pairs = []
    for m in span:
        ks = np.arange(hi + 1)
        want = oracle[ks + m, ks] if m >= 0 else oracle[ks, ks - m]
        pairs.append((m, x.coeff(m)[: hi + 1], want))
    scale = 1.0 + max(float(np.max(np.abs(want))) for _, _, want in pairs)
    for m, got, want in pairs:
        err = float(np.max(np.abs(got - want)))
        assert err <= 1e-9 * scale, (m, err, scale, hi)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.sampled_from([0.3, 1.0]),
       start_with_q=st.booleans(), declared=st.booleans(),
       links=st.lists(st.sampled_from(LINKS), max_size=3))
def test_valid_coefficients_match_the_matrix_oracle(seed, mu, start_with_q,
                                                    declared, links):
    rng = np.random.default_rng(seed)
    w = quantum_disk_weights(mu)
    dim = BIG + 1
    z = to_matrix(power_UB(w, 1, BIG), dim)
    a_rows = w.a_at(np.arange(dim))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        if start_with_q:
            lo = int(rng.integers(-3, 1))
            b = random_element(rng, K, lo, lo + int(rng.integers(0, 4)),
                               k_support=K // 2)
            x = apply_Q(b, w)
            mat = to_matrix(apply_Q(_embed(b, rng, junk=False), w), dim)
        else:
            x = _input(rng, declared)
            mat = to_matrix(_embed(x, rng, junk=True), dim)
        for link in links:
            if link == "D":
                x, mat = apply_D(x, w), a_rows * (z @ mat - mat @ z)
            elif link == "Dbar":
                zs = z.conj().T
                x, mat = apply_Dbar(x, w), a_rows * (zs @ mat - mat @ zs)
            elif link == "adjoint":
                x, mat = adjoint(x), mat.conj().T
            else:
                y = _input(rng, declared)
                ymat = to_matrix(_embed(y, rng, junk=True), dim)
                if link == "multiply-left":
                    x, mat = multiply(y, x), ymat @ mat
                else:
                    x, mat = multiply(x, y), mat @ ymat
    _assert_valid_prefix(x, mat)
