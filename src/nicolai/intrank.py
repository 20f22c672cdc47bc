"""Exact rank of integer matrices over the rationals.

``integer_rank`` is fraction-free Gaussian elimination on dictionary rows with
Python integers: rows are combined as ``(p[c]//g)*row - (r[c]//g)*pivot`` and
re-divided by their content gcd, so the rank is preserved exactly; pivots are
chosen Markowitz-style.  No command uses it or ``rows_from_csr``: both are kept
for the benchmark's span, the tests and the API.  ``spectrum`` ranks its
positive semidefinite blocks with ``_psd_ranks``.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["integer_rank", "rows_from_csr"]


def rows_from_csr(mat, cols: Optional[np.ndarray] = None) -> List[Dict[int, int]]:
    """Extract nonzero rows of a sparse matrix as ``{col: int}`` dicts.

    ``mat`` is any matrix with a ``.tocsr()`` method, such as a scipy sparse
    matrix.  When ``cols`` is given, columns are restricted to that subset
    and re-indexed by position in ``cols``.
    """
    csr = mat.tocsr()
    remap = None
    if cols is not None:
        remap = {int(c): p for p, c in enumerate(cols)}
    rows = []
    for r in range(csr.shape[0]):
        row: Dict[int, int] = {}
        for k in range(csr.indptr[r], csr.indptr[r + 1]):
            c = int(csr.indices[k])
            if remap is not None:
                if c not in remap:
                    continue
                c = remap[c]
            v = int(csr.data[k])
            if v:
                row[c] = v
        if row:
            rows.append(row)
    return rows


def _reduce_content(row: Dict[int, int]) -> Dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def integer_rank(rows: Iterable[Dict[int, int]]) -> int:
    """Rank over the rationals of the matrix whose rows are the given dicts."""
    active = [_reduce_content(dict(r)) for r in rows if r]
    rank = 0
    while active:
        best = min(range(len(active)), key=lambda i: (len(active[i]), i))
        pivot = active.pop(best)
        rank += 1
        pc, pv = min(pivot.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        reduced = []
        for row in active:
            b = row.get(pc)
            if b is None:
                reduced.append(row)
                continue
            g = gcd(pv, b)
            mr, mp = pv // g, b // g
            out = {c: mr * v for c, v in row.items()}
            for c, v in pivot.items():
                nv = out.get(c, 0) - mp * v
                if nv:
                    out[c] = nv
                elif c in out:
                    del out[c]
            if out:
                reduced.append(_reduce_content(out))
        active = reduced
    return rank


def _psd_ranks(stack: np.ndarray) -> np.ndarray:
    """Exact ranks of a ``(d, s, s)`` integer stack of symmetric positive
    semidefinite (PSD) blocks, by one Bareiss elimination over the stack.

    Each step moves every block's largest diagonal entry ``p``, its pivot, to
    the front; a zero diagonal entry of a PSD block has a zero row and column,
    so ``p = 0`` means a zero block.  With ``r`` the pivot row and ``prev`` the
    previous pivot, ``(p A - r rᵀ) // prev`` divides exactly (Sylvester's
    identity) and, without the pivot's row and column, is a positive multiple
    of the Schur complement, again PSD.  The rank counts the positive pivots.
    A step runs in int64 only while ``2 M² < 2**63``, ``M = max |A|``,
    certifies it; from the first that fails, the stack holds Python integers.
    """
    a, (d, n) = stack, stack.shape[:2]
    at, ar = np.arange(d)[:, None, None], np.arange(n)
    ranks, prev = np.zeros((d, 1, 1), dtype=np.int64), np.ones((d, 1, 1), dtype=np.int64)
    while n:
        i = a.diagonal(axis1=1, axis2=2).argmax(axis=1)[:, None]
        order = ar[:n] - (ar[:n] <= i)
        order[:, 0] = i[:, 0]  # the pivot, then every other index in turn
        a = a[at, order[:, :, None], order[:, None, :]]
        m = max(int(a.max()), -int(a.min()))
        if not m:
            break
        if 2 * m * m >= 1 << 63 and a.dtype != object:
            a, prev = a.astype(object), prev.astype(object)
        p, r = a[:, :1, :1], a[:, :1, 1:]
        ranks += p > 0
        a = (p * a[:, 1:, 1:] - r.transpose(0, 2, 1) * r) // prev
        prev, n = np.maximum(p, 1), n - 1
    return ranks[:, 0, 0]
