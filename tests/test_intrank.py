"""Exact integer rank against a dense rational-elimination oracle."""

import random
from fractions import Fraction

import numpy as np
import scipy.sparse as sps

from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.model import build_supercharge
from oracles import stacked_nullity
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
