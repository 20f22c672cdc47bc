"""Hot kernels for ladder-monomial action on every basis state of a window.

A basis state of a ``w``-site window is a ``w``-bit integer (bit ``p`` is the
occupation of the ``p``-th site counted from the low edge).  Acting with an
ordered product of creation/annihilation operators either kills the state or
maps it to exactly one other basis state with a Jordan-Wigner sign
``(-1)**(occupied bits below the hit bit)``.  ``monomial_action`` computes the
target index and sign for *all* ``2**w`` basis states at once; it is the inner
loop of every matrix build in this package.
"""

from __future__ import annotations

import numpy as np


def monomial_action(size, factors):
    """Apply an ordered ladder-factor list to every basis state of a window.

    ``factors`` is a sequence of ``(bit_position, dagger)`` pairs in
    *application order* (first entry acts first).  Returns ``(targets, signs)``
    int64 arrays of length ``2**size``: ``targets[b]`` is the image basis index
    of state ``b`` (or ``-1`` if the state is annihilated) and ``signs[b]`` the
    accumulated Jordan-Wigner sign (``0`` for annihilated states).
    """
    if size < 0 or size > 62:
        raise ValueError(f"window size {size} out of range")
    factors = [(int(p), bool(d)) for p, d in factors]
    if any(not 0 <= p < size for p, _ in factors):
        raise ValueError("factor bit position outside the window")
    dim = 1 << size
    cur = np.arange(dim, dtype=np.int64)
    sign = np.ones(dim, dtype=np.int64)
    alive = np.ones(dim, dtype=bool)
    for p, d in factors:
        bit = (cur >> p) & 1
        alive &= (bit == 0) if d else (bit == 1)
        below = (cur & ((1 << p) - 1)).astype(np.uint64)
        odd = (np.bitwise_count(below).astype(np.int64) & 1).astype(bool)
        sign = np.where(odd, -sign, sign)
        cur = np.where(alive, cur ^ (1 << p), cur)
    targets = np.where(alive, cur, -1)
    signs = np.where(alive, sign, 0)
    return targets, signs
