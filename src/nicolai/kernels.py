"""Ladder-monomial action on the basis states of a window.

A basis state of a ``w``-site window is a ``w``-bit integer (bit ``p`` is the
occupation of the ``p``-th site counted from the low edge).  Acting with an
ordered product of creation/annihilation operators either kills the state or
maps it to exactly one other basis state with a Jordan-Wigner sign
``(-1)**(occupied bits below the hit bit)``.  ``closed_form`` reduces the
product to a few bit masks once; every operator build in this package reads
them (see ``fock._closed_form_entries``), touching only the surviving
states.  ``monomial_action`` applies them to *all* ``2**w`` basis states at
once; no command calls it, and the tests keep it as the builders' oracle.
"""

from __future__ import annotations

import numpy as np


def closed_form(factors):
    """Reduce an ordered ladder-factor list to ``(support, required, flip,
    const, parity)``, or ``None`` when the product is zero.

    ``factors`` is a sequence of ``(bit_position, dagger)`` pairs in
    *application order* (first entry acts first).  A state survives iff its
    bits on the touched sites ``support`` equal ``required``; it then maps to
    ``state ^ flip`` with sign ``const * (-1)**popcount(state & parity)``.  A
    factor's Jordan-Wigner sign counts the occupied bits below it: those
    already touched have known values (``current``, folded into ``const``),
    the others are the state's own bits (folded into ``parity``).
    """
    support = required = current = parity = 0
    const = 1
    for p, d in factors:
        bit = 1 << p
        need = 0 if d else bit  # the bit's value before the factor acts
        if not (support & bit):
            support |= bit
            required |= need
            current |= need
        elif (current & bit) != need:
            return None
        below = bit - 1
        if (current & below).bit_count() & 1:
            const = -const
        parity ^= below & ~support
        current ^= bit
    return support, required, required ^ current, const, parity


def monomial_action(size, factors):
    """Apply an ordered ladder-factor list to every basis state of a window,
    the whole-window oracle of the closed-form builds in ``nicolai.fock``.

    ``factors`` is as for ``closed_form``.  Returns ``(targets, signs)``
    int64 arrays of length ``2**size``: ``targets[b]`` is the image basis
    index of state ``b`` (or ``-1`` if the state is annihilated) and
    ``signs[b]`` the accumulated Jordan-Wigner sign (``0`` for annihilated
    states).
    """
    if size < 0 or size > 62:
        raise ValueError(f"window size {size} out of range")
    factors = [(int(p), bool(d)) for p, d in factors]
    if any(not 0 <= p < size for p, _ in factors):
        raise ValueError("factor bit position outside the window")
    dim = 1 << size
    form = closed_form(factors)
    if form is None:
        return np.full(dim, -1, dtype=np.int64), np.zeros(dim, dtype=np.int64)
    support, required, flip, const, parity = form
    states = np.arange(dim, dtype=np.int64)
    live = (states & support) == required
    odd = (np.bitwise_count(states & parity) & 1).astype(np.int64)
    targets = np.where(live, states ^ flip, -1)
    signs = np.where(live, const * (1 - 2 * odd), 0)
    return targets, signs
