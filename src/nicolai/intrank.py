"""Exact rank of sparse integer matrices over the rationals.

Fraction-free Gaussian elimination on dictionary rows with Python integers:
rows are combined as ``(p[c]//g)*row - (r[c]//g)*pivot`` and re-divided by
their content gcd, so entries stay integral and modest while the row space
(and hence the rank) is preserved exactly.  Pivots are chosen Markowitz-style
(sparsest row first, then smallest magnitude) to limit fill-in.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["integer_rank", "rows_from_csr"]


def rows_from_csr(mat, cols: Optional[np.ndarray] = None) -> List[Dict[int, int]]:
    """Extract nonzero rows of a sparse matrix as ``{col: int}`` dicts.

    ``mat`` is any matrix with a ``.tocsr()`` method, such as a scipy sparse
    matrix.  No command uses this; it is kept for the benchmark's span and
    the tests' oracles.  When ``cols`` is given, columns are restricted to
    that subset and re-indexed by position in ``cols``.
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

