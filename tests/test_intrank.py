"""Exact integer ranks against dense rational-elimination oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sps

from nicolai.intrank import _psd_ranks, integer_rank, rows_from_csr
from nicolai.model import build_supercharge
from oracles import block_ranks, stacked_nullity
from sparse_oracle import csr


def _dense_rank_oracle(rows, ncols):
    """Plain Gaussian elimination over Fraction."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def test_trivial_ranks():
    assert integer_rank([]) == 0
    assert integer_rank([{0: 1}, {1: 1}, {2: 1}]) == 3
    assert integer_rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert integer_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2


def test_random_matrices_match_oracle():
    rng = random.Random(42)
    for _ in range(60):
        nrows = rng.randint(1, 14)
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(nrows):
            row = {
                c: rng.choice((-3, -2, -1, 1, 2, 3))
                for c in range(ncols)
                if rng.random() < 0.4
            }
            rows.append(row)
        assert integer_rank(rows) == _dense_rank_oracle(rows, ncols)


def test_rows_from_csr_with_column_restriction():
    mat = sps.csr_matrix(np.array([[1, 0, 2], [0, 3, 0]]))
    rows = rows_from_csr(mat, cols=np.array([0, 2]))
    assert rows == [{0: 1, 1: 2}]


def test_stacked_nullity_matches_hodge_identity():
    # For a nilpotent Q, dim ker Q cap ker Q* = dim - 2 rank(Q).
    for n, mode in ((1, "open"), (2, "open"), (2, "closed"), (3, "closed")):
        m = build_supercharge((0, n), mode)
        dim = m.window.dimension
        rank_q = integer_rank(rows_from_csr(csr(m.Q)))
        rank_qdag = integer_rank(rows_from_csr(csr(m.Qdag)))
        assert rank_q == rank_qdag
        assert stacked_nullity([csr(m.Q), csr(m.Qdag)]) == dim - 2 * rank_q


def _gram_stack(rng, d, s, bound, rows=None):
    """``d`` Gram matrices ``BᵀB`` of random ``(r, s)`` integer ``B`` with
    entries in ``[-bound, bound]``: symmetric positive semidefinite, of rank
    at most ``r``.  ``r`` is ``rows``, or random in ``0..s`` (0 gives a zero
    block)."""
    r = s if rows is None else rows
    b = rng.integers(-bound, bound + 1, size=(d, r, s))
    if rows is None:  # cut each B to a random number of rows
        b *= (np.arange(s)[None, :, None] < rng.integers(0, s + 1, size=(d, 1, 1)))
    return np.einsum("dki,dkj->dij", b, b), b


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
def test_psd_ranks_of_gram_stacks_match_oracles(s):
    rng = np.random.default_rng(s)
    for bound in (1, 3):
        stack, _ = _gram_stack(rng, 40, s, bound)
        ranks = _psd_ranks(stack).tolist()
        assert ranks == block_ranks(stack)
        for block, rank in zip(stack.tolist()[:10], ranks):
            rows = [{c: v for c, v in enumerate(row) if v} for row in block]
            assert rank == _dense_rank_oracle(rows, s)
    # rank-deficient blocks: B with fewer rows than columns
    stack, _ = _gram_stack(rng, 20, s, 2, rows=max(s - 2, 0))
    assert _psd_ranks(stack).tolist() == block_ranks(stack)


def test_psd_ranks_of_zero_and_size_one_blocks():
    assert _psd_ranks(np.zeros((3, 4, 4), dtype=np.int64)).tolist() == [0, 0, 0]
    ones = np.array([0, 1, 7, 0, 2**40], dtype=np.int64).reshape(5, 1, 1)
    assert _psd_ranks(ones).tolist() == [0, 1, 1, 0, 1]


def test_psd_ranks_switch_to_python_integers_mid_elimination():
    # the first step is certified in int64, but the last pivot, det(BᵀB) =
    # det(B)², lies beyond int64, so the elimination must leave int64 midway
    rng = np.random.default_rng(7)
    stack, b = _gram_stack(rng, 6, 6, 1 << 12, rows=6)
    assert 2 * int(np.abs(stack).max()) ** 2 < 2**63
    assert (np.abs(np.linalg.det(b.astype(float))) ** 2 > 2.0**64).all()
    assert _psd_ranks(stack).tolist() == block_ranks(stack) == [6] * 6
    # rank-deficient big blocks, and entries too large for the first step
    low, _ = _gram_stack(rng, 6, 6, 1 << 12, rows=4)
    assert _psd_ranks(low).tolist() == block_ranks(low) == [4] * 6
    huge, _ = _gram_stack(rng, 4, 5, 1 << 20, rows=5)
    assert 2 * int(np.abs(huge).max()) ** 2 >= 2**63
    assert _psd_ranks(huge).tolist() == block_ranks(huge) == [5] * 4
